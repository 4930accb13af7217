"""The benchmark's tracer patches functions where their callers look them up.

`perfbench/spans.py` reads each (owner, attribute) of its PATCHES table from
`owner.__dict__`, so a function that moves to another module, or a method
that a class starts to inherit, makes `--trace 1` fail.  This test loads the
table by path and checks every entry without installing anything.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_defined_on_its_owner():
    spans = _load_spans()
    assert spans.PATCHES
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in spans.PATCHES
        if attr not in owner.__dict__ or not callable(owner.__dict__[attr])
    ]
    assert missing == []

