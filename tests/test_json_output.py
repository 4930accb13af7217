"""The JSON report contract: `tcl --format json` prints exactly
`json.dumps(payload, indent=2, sort_keys=True)` and a newline.

`cli` writes reports with its own streamed writer; `json.dumps` is the
reference it is held to, value by value and report by report.
"""

import argparse
import contextlib
import enum
import io
import json
import math
import random
import subprocess
import sys
from collections import OrderedDict, namedtuple
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tightcycle import cli
from tightcycle.generators import extremal, random_3graph
from tightcycle.hypergraph import (
    Graph,
    Hypergraph3,
    complete_3graph,
    write_graph,
    write_hypergraph,
)


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 2 ** 70


class Flavour(str):
    pass


class Weight(float):
    pass


Pair = namedtuple("Pair", "a b")


def written(value) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(value, "json")
    return out.getvalue()


def assert_same_as_stdlib(value):
    try:
        expected = json.dumps(value, indent=2, sort_keys=True) + "\n"
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            written(value)
        assert str(got.value) == str(exc)
        return
    assert written(value) == expected


CASES = [
    # strings
    "", "plain", "café über", "  ", "\U0001d11e", "\x00\x01\x1f\x7f",
    "tab\tnew\nline\r\"quote\" back\\slash /", "\ud800", "lone \udfff low", Flavour("sub"),
    # ints
    0, -1, 2 ** 64, 2 ** 64 + 1, -(2 ** 100), True, False, None, Colour.RED, Colour.BLUE,
    # floats
    0.0, -0.0, 1e22, 1e16, 0.1, 1e-7, 5e-324, 1.7976931348623157e308,
    math.nan, math.inf, -math.inf, Weight(2.5), Weight("nan"),
    # containers
    [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, (1, 2, 3), [1, True, 2], [1, 2.0],
    [Colour.RED, 3], [(1, 2), (3, 4)], Pair(1, "x"), OrderedDict([("b", 1), ("a", 2)]),
    {"e": (1, 2, 3), "c": 0}, [{"e": (1, 2, 3), "c": 0}, {"e": (1, 2, 4), "c": 1}],
    {"deep": [{"x": [[1, [2, {"y": ()}]]]}]}, [[[[[]]]]],
    # values json.dumps writes, below the streamed levels
    {"a": [{"b": Pair({"k": [1, 2]}, Weight(0.5))}]}, [[{1: [{"x": None}], 2: True}]],
    {"t": [[math.nan, {"k": Colour.RED}]]},
    # keys
    {"b": 1, "a": 2, "é": 3, "\n": 4}, {10: "a", 2: "b", -1: "c"}, {2 ** 65: 1},
    {0.5: 1, 1.5: 2, -math.inf: 3, math.inf: 4}, {True: 1, False: 2}, {None: 1},
    {Colour.BLUE: 1}, {Flavour("k"): 1}, {Weight(0.25): 1}, {1: "x", 2.5: "y"},
    {"top": {3: [1], 1: {"z": None}}},
    # errors: a value or key the stdlib refuses, and keys it cannot sort
    object(), {1, 2}, Fraction(1, 2), [1, object()], {"a": {"b": b"bytes"}},
    {(1, 2): 1}, {"a": 1, 2: "b"}, {None: 1, 0: 2}, [[{"a": {"b": object()}}]],
]


@pytest.mark.parametrize("value", CASES, ids=range(len(CASES)))
def test_writer_matches_json_dumps(value):
    assert_same_as_stdlib(value)


# --- the record template ------------------------------------------------------
# A list one level below a report's top is written one element per `write`;
# records (str-keyed dicts of ints and int tuples) fill the %-template of the
# first record.  In each case below the first record fixes the template and a
# later one does not fit it.

RECORD = {"e": (1, 2, 3), "c": 0}
TEMPLATE_BREAKERS = {
    "bool": [{"e": (1, 2, 3), "c": True}, {"e": (1, False, 3), "c": 1}],
    "intenum": [{"e": (1, 2, 3), "c": Colour.RED}, {"e": (1, Colour.BLUE, 3), "c": 1}],
    "list": [{"e": [1, 2, 3], "c": 1}],
    "length": [{"e": (1, 2), "c": 1}, {"e": (1, 2, 3, 4), "c": 1}],
    "empty-tuple": [{"e": (), "c": 1}],
    "extra-key": [{"e": (1, 2, 3), "c": 1, "x": 2}],
    "missing-key": [{"e": (1, 2, 3)}, {"e": (1, 2, 3), "d": 1}, {}],
    "nested-dict": [{"e": (1, 2, 3), "c": {"k": 1}}, {"e": {"k": (1, 2, 3)}, "c": 1}],
    "percent-key": [{"e": (1, 2, 3), "%d": 1}, {"e": (1, 2, 3), "c%s": 1, "c": 2}],
    "non-ascii-key": [{"e": (1, 2, 3), "é": 1}, {"e": (1, 2, 3), "\U0001d11e": 1}],
    "non-str-key": [{"e": (1, 2, 3), 1: 0}, {1: (1, 2, 3), 2: 0}, {Flavour("c"): 1, "e": (4, 5, 6)}],
    "other-values": [{"e": (1, 2, 3), "c": 1.0}, {"e": (1, 2, 3), "c": None}, {"e": "123", "c": 1},
                     OrderedDict([("c", 1), ("e", (1, 2, 3))]), 7, [1, 2, 3]],
}


@pytest.mark.parametrize("name", list(TEMPLATE_BREAKERS))
def test_a_record_that_does_not_fit_the_template_is_written_by_json_dumps(name):
    rows = [RECORD, *TEMPLATE_BREAKERS[name], {"c": 2 ** 70, "e": (-1, 0, 2 ** 64)}]
    assert_same_as_stdlib({"labels": rows})
    assert_same_as_stdlib([rows])


@pytest.mark.parametrize("first", [
    {"%d": 1, "é": (1, 2), "a%%s": (3,)},
    {"c": 1, "e": [1, 2, 3]},
    {"c": True, "e": (1, 2, 3)},
    {"c": 1, "e": ()},
    {1: 0, 2: (1, 2, 3)},
    {},
    7,
])
def test_the_first_record_fixes_the_template_or_none(first):
    rows = [first, {"%d": 2, "é": (3, 4), "a%%s": (5,)}, dict(RECORD), {"c": 5, "e": (4, 5, 6)}]
    assert_same_as_stdlib({"labels": rows})
    assert_same_as_stdlib([rows])


def test_each_record_is_one_write():
    rows = [{"e": (i, i + 1, i + 2), "c": i % 3} for i in range(1, 50)]
    writes = []
    cli._write_json({"labels": rows}, writes.append, "\n", 2)
    assert sum('"e"' in w for w in writes) == len(rows)
    assert "".join(writes) == json.dumps({"labels": rows}, indent=2, sort_keys=True)


def random_value(rng: random.Random, depth: int = 0):
    kind = rng.randrange(11 if depth < 4 else 7)
    if kind == 0:
        return rng.randrange(-10 ** 30, 10 ** 30)
    if kind == 1:
        return rng.choice([True, False, None, Colour.RED, -0.0, math.nan, math.inf])
    if kind == 2:
        return rng.uniform(-1e6, 1e6) * 10.0 ** rng.randrange(-30, 30)
    if kind in (3, 4):
        return "".join(chr(rng.choice([rng.randrange(32, 127), rng.randrange(0, 0x11000)]))
                       for _ in range(rng.randrange(6)))
    if kind in (5, 6):
        return rng.randrange(1000)
    size = rng.randrange(5)
    if kind == 7:
        return [random_value(rng, depth + 1) for _ in range(size)]
    if kind == 8:
        return tuple(rng.randrange(100) for _ in range(size))
    if kind == 9:
        key = rng.choice([lambda: str(rng.randrange(50)), lambda: rng.randrange(50),
                          lambda: rng.randrange(50) / 4])
        return {key(): random_value(rng, depth + 1) for _ in range(size)}
    return {str(rng.randrange(50)): random_value(rng, depth + 1) for _ in range(size)}


def test_writer_matches_json_dumps_on_a_seeded_corpus():
    rng = random.Random(20161019)
    for _ in range(1000):
        assert_same_as_stdlib(random_value(rng))


scalars = (st.none() | st.booleans() | st.integers() | st.floats() | st.text()
           | st.sampled_from([Colour.RED, Colour.BLUE]))
keys = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
json_values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner) | st.dictionaries(keys, inner, max_size=3)),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_writer_matches_json_dumps_on_nested_values(value):
    assert_same_as_stdlib(value)


# --- every report command prints json.dumps of its payload -------------------


def report_commands() -> set[str]:
    """The subcommands that take --format, read from the parser itself.  A
    command whose sub-parsers take it, as `verify`'s campaigns do, counts."""

    def subparsers(parser):
        return next((a.choices for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)), {})

    def reports(parser):
        return (any("--format" in a.option_strings for a in parser._actions)
                or any(map(reports, subparsers(parser).values())))

    return {name for name, p in subparsers(cli.build_parser()).items() if reports(p)}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    files = {
        "k6": write_hypergraph(complete_3graph(6)),
        "ext": write_hypergraph(extremal(9, 2).hypergraph),
        "h12": write_hypergraph(random_3graph(12, 0.6, 3)),
        "h18": write_hypergraph(random_3graph(18, 0.5, 1)),
        "acyclic": write_hypergraph(Hypergraph3(5, [(1, 2, 3), (3, 4, 5)])),
        "g": write_graph(Graph(7, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 7), (2, 5)])),
        "path": write_graph(Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])),
    }
    for name, text in files.items():
        (d / name).write_text(text)
    return d


# One invocation or more per report command; {name} is a corpus file.
INVOCATIONS = [
    ["info", "{h12}"],
    ["components", "{h12}"],
    ["components", "{ext}"],
    ["match", "{g}"],
    ["egcheck", "{g}"],
    ["egcheck", "{path}", "--k", "2"],
    ["graphmeet", "{g}", "{g}", "--observe"],
    ["fracmatch", "{k6}"],
    ["maxfrac", "{ext}"],
    ["cycle", "{ext}"],
    ["cycle", "{acyclic}"],
    ["validate", "{k6}", "1,2,3,4,5,6"],
    ["slice", "{h12}", "--t", "3", "--seed", "5"],
    ["reduce", "{h18}", "--t", "6", "--seed", "4"],
    ["pipeline", "{h18}", "--t", "6", "--seed", "1"],
    ["verify", "farkas", "--trials", "3", "--seed", "2"],
]


def test_every_report_command_has_an_invocation():
    covered = {argv[0] for argv in INVOCATIONS}
    assert report_commands() - covered == set(), "add an invocation for each new report command"


@pytest.mark.parametrize("argv", INVOCATIONS, ids=[" ".join(a[:2]) for a in INVOCATIONS])
def test_report_bytes_are_json_dumps_of_the_payload(argv, corpus, capsys, monkeypatch):
    payloads = []
    emit = cli._emit

    def recording_emit(payload, fmt):
        payloads.append(payload)
        emit(payload, fmt)

    monkeypatch.setattr(cli, "_emit", recording_emit)
    files = {p.name: str(p) for p in corpus.iterdir()}
    code = cli.main([a.format(**files) for a in argv])
    out = capsys.readouterr().out
    assert code in (0, 1) and len(payloads) == 1
    assert out == json.dumps(payloads[0], indent=2, sort_keys=True) + "\n"


def test_reader_that_goes_away_ends_quietly(tmp_path):
    """About 27k edges, so the report is megabytes and about 27k writes: the
    pipe closes while the writer is still going."""
    path = tmp_path / "h.3g"
    path.write_text(write_hypergraph(random_3graph(60, 0.8, 1)))
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.Popen([sys.executable, "-m", "tightcycle.cli", "components", str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=src)
    try:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert proc.returncode == 0
    assert err == b""
