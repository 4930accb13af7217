"""A seeded, bounded fuzz of the exit-code contract, over every subcommand.

Each draw calls `cli.main` in-process with a small host file, laid out in
one of the ways a hand-made file can be (comments before or after the
header, blank lines, CRLF, tabs, no final newline, leading zeros, edges out
of range or repeated, wrong token counts, bytes that are not UTF-8, ...),
and option values at and around each bound, plus nan, inf, 1e400 and text.
Whatever the input, the run must end in:

- exit 0 or 1 with nothing on standard error;
- or exit 2 with one `error:` line, or an argparse usage error.

Never exit 3 and never a traceback.  Sizes stay small and `--jobs` at most
1, so no pool starts; two bounds are left out for their cost alone:
`verify erdos-gallai --exhaustive-n 7` (all 2^21 graphs on 7 vertices) and
`verify extremal-bound --max-n 22` (the exact DP up to 22 vertices).
"""

from __future__ import annotations

import itertools
import random

import pytest

from tightcycle.cli import CAMPAIGNS, main

DRAWS = 100  # per subcommand and per campaign
JUNK = ["nan", "inf", "-inf", "1e400", "-1e400", "x", "", "1/0", "0x10", "٣"]
JUNK_SHARE = 0.1  # of option values; the rest are values at and around a bound


def _ints(*values):
    return [str(v) for v in values]


def _host(rng: random.Random, k: int) -> bytes:
    """A small .3g (k = 3) or .2g (k = 2) file with one or two layout quirks
    or faults, sometimes of the other arity."""
    if rng.random() < 0.1:
        k = 5 - k
    n = rng.randint(0, 9)
    pool = list(itertools.combinations(range(1, n + 1), k))
    edges = [list(e) for e in rng.sample(pool, rng.randint(0, len(pool)))]
    rows = [" ".join(map(str, e)) for e in edges]
    pre, header = [], [f"{k} {n}"]
    newline, end = "\n", "\n"
    for quirk in rng.sample(QUIRKS, rng.randint(0, 2)):
        if quirk == "comment-before":
            pre.append("# generator: fuzz")
        elif quirk == "comment-after":
            rows.insert(rng.randint(0, len(rows)), "# interior comment")
        elif quirk == "blank":
            rows.insert(rng.randint(0, len(rows)), rng.choice(("", "  ", "\t")))
        elif quirk == "crlf":
            newline = "\r\n"
        elif quirk == "tab" and rows:
            rows[-1] = rows[-1].replace(" ", "\t")
        elif quirk == "no-final-newline":
            end = ""
        elif quirk == "leading-zeros" and rows:
            rows[0] = " ".join("00" + t for t in rows[0].split())
        elif quirk == "out-of-range":
            rows.insert(rng.randint(0, len(rows)), " ".join(map(str, [0, n + 1, n + 2][:k])))
        elif quirk == "duplicate" and edges:
            rows.append(" ".join(map(str, reversed(rng.choice(edges)))))
        elif quirk == "token-count":
            rows.insert(rng.randint(0, len(rows)), " ".join(["1"] * rng.choice((1, k + 1))))
        elif quirk == "non-integer":
            rows.insert(rng.randint(0, len(rows)), " ".join(["1", rng.choice(JUNK) or "y", "3"][:k]))
        elif quirk == "bad-header":
            header = [rng.choice((f"{k}", f"{k} {n} {n}", f"{k} -1", f"{k} x", "x 3"))]
        elif quirk == "no-header":
            header = []
        elif quirk == "empty":
            pre, header, rows, end = [], [], [], ""
    lines = pre + header + rows
    data = (newline.join(lines) + end if lines else "").encode("utf-8")
    if rng.random() < 0.05:
        data += b"\xff\xfe\n"  # not UTF-8
    return data


QUIRKS = ["comment-before", "comment-after", "blank", "crlf", "tab", "no-final-newline",
          "leading-zeros", "out-of-range", "duplicate", "token-count", "non-integer",
          "bad-header", "no-header", "empty"]


def _file(rng, tmp_path, k, name):
    """A path to a drawn host file, or now and then to no file at all."""
    path = tmp_path / name
    if rng.random() < 0.05:
        return str(tmp_path / "missing" / name)
    path.write_bytes(_host(rng, k))
    return str(path)


def _value(rng, values):
    return rng.choice(JUNK if rng.random() < JUNK_SHARE else values)


def _options(rng, table, required=()):
    """The `required` options of `table` and some of the others, each with a
    drawn value."""
    others = [option for option in sorted(table) if option not in required]
    argv = []
    for option in [*required, *rng.sample(others, rng.randint(0, len(others)))]:
        values = table[option]
        argv += [option] if values == [None] else [option, _value(rng, values)]  # or a flag
    return argv


REPORT = {"--format": ["json", "text", "csv", "xml"]}
STAGE = {**REPORT, "--t": _ints(-1, 0, 1, 2, 3, 4, 9, 10), "--seed": _ints(-1, 0, 7)}
REDUCE = {**STAGE, "--d": ["-1", "0", "1/20", "1", "2", "-1/20"],
          "--eps": ["-0.5", "0", "1/4", "1", "1.5", "-1e-3"],
          "--samples": _ints(-1, 0, 1, 3)}

# subcommand -> (file arities, other positionals, options, required options)
COMMANDS = {
    "info": ([3], [], REPORT, ()),
    "components": ([3], [], REPORT, ()),
    "link": ([3], [_ints(-1, 0, 1, 9, 10)], {}, ()),
    "match": ([2], [], REPORT, ()),
    "egcheck": ([2], [], {**REPORT, "--k": _ints(-1, 0, 1, 4, 5, 6)}, ()),
    "graphmeet": ([2, 2], [], {**REPORT, "--observe": [None]}, ()),
    "fracmatch": ([3], [], REPORT, ()),
    "maxfrac": ([3], [], {**REPORT, "--component": _ints(-1, 0, 1, 40)}, ()),
    "cycle": ([3], [], REPORT, ()),
    "validate": ([3], [["1 2 3 4", "1,2,3,4,5,6", "3 2 1", "", "1 1 1 1", "0 1 2 3", "1 x"]],
                 REPORT, ()),
    "extremal": ([], [], {"--n": _ints(-1, 0, 1, 2, 3, 9), "--a": _ints(-1, 0, 1, 3, 9, 10),
                          "--eta": ["0", "0.5", "1", "-1/2", "0.9"]}, ("--n",)),
    "random": ([], [], {"--n": _ints(-1, 0, 1, 2, 3, 9), "--p": _ints(-0.1, 0, 0.5, 1, 1.1),
                        "--seed": _ints(-1, 0, 3), "--delta-target": _ints(-1, 0, 1, 28, 29),
                        "--max-attempts": _ints(-1, 0, 1, 5)}, ("--n",)),
    "slice": ([3], [], STAGE, ()),
    "reduce": ([3], [], REDUCE, ()),
    "pipeline": ([3], [], {**REDUCE, "--canonical": [None]}, ()),
}

# campaign -> option values at and around its bounds
CAMPAIGN_VALUES = {
    "--trials": _ints(-1, 0, 1, 2),
    "--n": _ints(-1, 0, 1, 3, 6, 9),
    "--t": _ints(-1, 0, 2, 3, 6),
    "--max-n": _ints(-5, 1, 2, 3, 4, 5, 9, 10, 23),
    "--exhaustive-n": _ints(-1, 0, 1, 2, 3, 8),
}


def _verify_argv(rng, campaign):
    reads, _ = CAMPAIGNS[campaign]
    table = {f"--{dest.replace('_', '-')}": CAMPAIGN_VALUES[f"--{dest.replace('_', '-')}"]
             for dest in reads}
    table.update(REPORT, **{"--seed": _ints(-1, 0, 5), "--jobs": _ints(-1, 0, 1)})
    if rng.random() < 0.1:  # an option this campaign does not read
        table["--samples"] = ["3"]
    argv = _options(rng, table)
    # a small default stands in for a missing size, so a draw stays quick
    for option, small in (("--trials", "2"), ("--n", "9"), ("--max-n", "5"),
                          ("--exhaustive-n", "3")):
        if option in table and option not in argv:
            argv += [option, small]
    return ["verify", campaign] + argv


def _check_exit_contract(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (argv, code, err)
    if code == 2:
        lines = err.splitlines()
        one_error = err.startswith("error: ") and err.count("\n") == 1
        usage = err.startswith("usage: ") and ": error: " in lines[-1]
        assert one_error or usage, (argv, err)
    else:
        assert err == "", (argv, code, err)
    return code


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_command_keeps_the_exit_code_contract(capsys, tmp_path, command):
    arities, positionals, options, required = COMMANDS[command]
    rng = random.Random(f"cli-fuzz:{command}")
    codes = set()
    for i in range(DRAWS):
        argv = [command]
        argv += [_file(rng, tmp_path, k, f"h{i}-{j}") for j, k in enumerate(arities)]
        argv += [_value(rng, values) for values in positionals]
        argv += _options(rng, options, required)
        codes.add(_check_exit_contract(capsys, argv))
    assert 2 in codes  # the draws reach bad input


@pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
def test_every_campaign_keeps_the_exit_code_contract(capsys, campaign):
    rng = random.Random(f"cli-fuzz:verify:{campaign}")
    codes = {_check_exit_contract(capsys, _verify_argv(rng, campaign)) for _ in range(DRAWS)}
    assert 2 in codes
