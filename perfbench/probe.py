"""One set-up as a fresh process: start the interpreter, import tightcycle
and do the program-side preparation a workload needs before its first
operation.  run.py times this end to end, several times per run.

    python3 perfbench/probe.py <workload>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tightcycle  # noqa: E402,F401

if sys.argv[1] == "structure":
    from tightcycle import cli  # noqa: E402

    cli.build_parser()
