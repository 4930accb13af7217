"""Pinned `tcl verify` outputs for all eight campaigns.

Each campaign runs in-process through `cli.main` with seed 7 at `--jobs 1`
and `--jobs 2`, and the SHA-256 of its JSON report must equal the digest
recorded before the campaigns shared one trial runner and the CLI one
dispatch table.  The same digest at both job counts is the `--jobs`
invariance contract.
"""

import contextlib
import hashlib
import io

import pytest

from tightcycle import cli

CASES = [
    ("graphmeet", ["--n", "9", "--trials", "40"],
     "cf8e21fe33bba33ebfac41ec667e57358fcab04cb557dff5b98ea871b3a7256f"),
    ("fracmatch", ["--n", "9", "--trials", "10"],
     "c8e5a2a75fdda7265f680c95c449f234ddf362527c91388175a0c977326ce864"),
    ("farkas", ["--trials", "30"],
     "23a2500cf9c689a366f2ef0316dff0e17b08be7cf04cb304481337f464e51dcb"),
    ("reduced-degree", ["--trials", "200"],
     "87eae24b27bca264e623fe24163e90ae623f6f8b9c4ab5148021178bfccccdc4"),
    ("erdos-gallai", ["--trials", "300", "--exhaustive-n", "5", "--max-n", "10"],
     "59a178e95b4d589da52f734f1febd8d15f6e379a3943763307e1eff312ceacda"),
    ("extremal-bound", ["--max-n", "9"],
     "03e91e52f23ad1cba1e919e619d211df93625bf6a9aa87c9b12b1dfa5951b523"),
    ("cycle-oracle", ["--trials", "30", "--max-n", "8"],
     "64247ea2fba5b9e57943b94fc6048405971538bb3cb0d435e8b00299aad1deeb"),
    ("pipeline", ["--n", "18", "--t", "6"],
     "8831f010dcb214bcf62534d021074fd7fb2a54f7fa7bda07c11e474326c8d658"),
]


def test_cases_cover_every_campaign():
    assert sorted(cli.CAMPAIGNS) == sorted(name for name, _, _ in CASES)


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name,extra,digest", CASES, ids=[c[0] for c in CASES])
def test_verify_output_is_pinned(name, extra, digest, jobs):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", name, *extra, "--seed", "7", "--jobs", jobs])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
