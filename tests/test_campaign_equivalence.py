"""Pinned `tcl verify` outputs for all eight campaigns.

Each campaign runs in-process through `cli.main` with seed 7 at `--jobs 1`
and `--jobs 2`, and the SHA-256 of its JSON report must equal the digest
recorded here.  The same digest at both job counts is the `--jobs`
invariance contract.  The six trial-based campaigns report
`stats.instances_sha256`, a fingerprint of every instance they drew, so a
change in which instances are drawn moves the digest too.  These digests
were re-pinned when that key was added, after checking that each report
with the key removed still hashed to the digest pinned before it.
"""

import contextlib
import hashlib
import io

import pytest

from tightcycle import cli

CASES = [
    ("graphmeet", ["--n", "9", "--trials", "40"],
     "0483b4418aefba34e1e19baf795a27f5fcc03d97048358ceefa9a1f6106197cc"),
    ("fracmatch", ["--n", "9", "--trials", "10"],
     "2f6a5e61df8b4f6b7274556fc07c84439fb27555c7b488b8cbf832c75b4d86fa"),
    ("farkas", ["--trials", "30"],
     "df735ace2ba86fa6ce5701ca06f7302aa67c4de30c97792f0c69b773b25e4a02"),
    ("reduced-degree", ["--trials", "200"],
     "57c3738d365bad9496dc6d226661ae8c71a23c53a667579c75fa0499a3de4418"),
    ("erdos-gallai", ["--trials", "300", "--exhaustive-n", "5", "--max-n", "10"],
     "5e701cd101aad2ad69bdd79946a41c8db7c0d5cc4e4d943aaa7fe8643fed8b2a"),
    ("extremal-bound", ["--max-n", "9"],
     "03e91e52f23ad1cba1e919e619d211df93625bf6a9aa87c9b12b1dfa5951b523"),
    ("cycle-oracle", ["--trials", "30", "--max-n", "8"],
     "02d1489a5483ab63c29b289cf789b1bc5d4546da8139dc63b06e5a447b3b01ec"),
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
