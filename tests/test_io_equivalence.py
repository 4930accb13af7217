"""The .3g/.2g readers and the constructors against the earlier implementation.

The oracle below is the earlier reader, which checked every edge itself
before handing the list to constructors that checked it again.  The current
readers leave the edge checks to the constructors.  Every text must give the
same object as the oracle, or a ParseError on the same line; every edge list
must give the same object, or an InvalidArgumentError with the same message.
"""

import itertools
import random
from collections import namedtuple

import pytest
from hypothesis import given, settings, strategies as st

from tightcycle.errors import InvalidArgumentError, ParseError
from tightcycle.hypergraph import (
    Graph,
    Hypergraph3,
    read_graph,
    read_hypergraph,
    write_graph,
    write_hypergraph,
)


# -- oracle: the earlier parser and constructors, kept verbatim in substance --


def _old_parse_lines(text, arity):
    n = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != str(arity):
                raise ParseError(f"expected header '{arity} <n>', got {line!r}", lineno)
            try:
                n = int(parts[1])
            except ValueError:
                raise ParseError(f"vertex count {parts[1]!r} is not an integer", lineno)
            if n < 0:
                raise ParseError(f"vertex count must be >= 0, got {n}", lineno)
            continue
        if len(parts) != arity:
            raise ParseError(f"expected {arity} vertices, got {len(parts)}", lineno)
        try:
            vs = tuple(sorted(int(p) for p in parts))
        except ValueError:
            raise ParseError(f"non-integer vertex in {line!r}", lineno)
        if len(set(vs)) != arity:
            raise ParseError(f"repeated vertex in edge {vs}", lineno)
        if vs[0] < 1 or vs[-1] > n:
            raise ParseError(f"edge {vs} not inside [1, {n}]", lineno)
        if vs in seen:
            raise ParseError(f"duplicate edge {vs}", lineno)
        seen.add(vs)
        edges.append(vs)
    if n is None:
        raise ParseError("missing header line", None)
    return n, edges


def _old_hypergraph3(n, edges):
    """The earlier Hypergraph3.__init__, returning (n, edges, edge_set)."""
    if n < 0:
        raise InvalidArgumentError(f"vertex count must be >= 0, got {n}")
    canon = []
    seen = set()
    for raw in edges:
        e = tuple(sorted(raw))
        if len(e) != 3 or e[0] == e[1] or e[1] == e[2]:
            raise InvalidArgumentError(f"edge {tuple(raw)} is not 3 distinct vertices")
        if e[0] < 1 or e[2] > n:
            raise InvalidArgumentError(f"edge {e} not inside [1, {n}]")
        if e in seen:
            raise InvalidArgumentError(f"duplicate edge {e}")
        seen.add(e)
        canon.append(e)
    canon.sort()
    return n, tuple(canon), frozenset(canon)


def _old_graph(n, edges):
    """The earlier Graph.__init__, returning (n, edges, edge_set)."""
    if n < 0:
        raise InvalidArgumentError(f"vertex count must be >= 0, got {n}")
    canon = []
    seen = set()
    for raw in edges:
        e = tuple(sorted(raw))
        if len(e) != 2 or e[0] == e[1]:
            raise InvalidArgumentError(f"edge {tuple(raw)} is not 2 distinct vertices")
        if e[0] < 1 or e[1] > n:
            raise InvalidArgumentError(f"edge {e} not inside [1, {n}]")
        if e in seen:
            raise InvalidArgumentError(f"duplicate edge {e}")
        seen.add(e)
        canon.append(e)
    canon.sort()
    return n, tuple(canon), frozenset(canon)


FORMATS = [
    # (arity, current reader, writer, class, earlier constructor)
    (3, read_hypergraph, write_hypergraph, Hypergraph3, _old_hypergraph3),
    (2, read_graph, write_graph, Graph, _old_graph),
]


def _outcome(fn, *args):
    """("ok", (n, edges, edge_set)) or ("error", type name, line or message)."""
    try:
        obj = fn(*args)
    except ParseError as exc:
        return ("error", "ParseError", exc.line)
    except InvalidArgumentError as exc:
        return ("error", "InvalidArgumentError", str(exc))
    if isinstance(obj, tuple):
        return ("ok", obj)
    return ("ok", (obj.n, obj.edges, obj.edge_set))


def assert_reads_like_oracle(text):
    for arity, read, _, _, old_ctor in FORMATS:
        expected = _outcome(lambda t: old_ctor(*_old_parse_lines(t, arity)), text)
        assert _outcome(read, text) == expected, (arity, text)


def assert_round_trips_or_rejects(text):
    for _, read, write, _, _ in FORMATS:
        try:
            obj = read(text)
        except ParseError:
            continue
        canonical = write(obj)
        again = read(canonical)
        assert again == obj
        assert write(again) == canonical


# -- texts ------------------------------------------------------------------

HAND_CASES = [
    "",
    "\n\n",
    "# only a comment\n",
    "3 4\n",
    "3 0\n",
    "2 0\n",
    "3 4\n1 2 3\n1 2 4\n",
    "2 4\n1 2\n3 4\n",
    "# made by hand\n\n3 5\n\n5 1 3\n  # interior comment\n2 4 5\n",
    "   3   5  \n 5\t1 3 \n",
    "3 4\r\n1 2 3\r\n2 3 4\r\n",
    "3 -1\n",
    "3 -1\n1 2 3\n",
    "2 -3\n1 2\n",
    "3\n",
    "3 4 5\n",
    "2 4\n1 2 3\n",
    "3 x\n",
    "3 4.0\n",
    "x 4\n",
    "1 2 3\n",
    "3 4\n1 2\n",
    "3 4\n1 2 3 4\n",
    "2 4\n1\n",
    "3 4\n1 two 3\n",
    "3 4\n1 2.5 3\n",
    "3 4\n1 1 2\n",
    "3 4\n2 1 1\n",
    "3 4\n1 2 2\n",
    "2 4\n3 3\n",
    "3 4\n1 2 5\n",
    "3 4\n0 1 2\n",
    "3 4\n-1 2 3\n",
    "2 4\n0 4\n",
    "3 4\n1 2 3\n3 2 1\n",
    "2 4\n1 2\n2 1\n",
    "3 4\n1 2 3\n1 2 3\n1 1 1\n",
    "3 4\n1 2 5\n1 1 2\n",
    "3 4\n1 1 2\n1 2 x\n",
    "3 4\n1 2 3\n1 2\n1 2 3\n",
    "3 4\n+1 2 3\n",
    "3 1_0\n1 2 10\n",
    "3 4\n1 2 3\n# 1 2 3\n2 3 4\n",
    "# a\n# b\n2 3\n1 3\n# c\n2 3\n",
]


def _seeded_text(rng):
    """A random document of either arity, with at most one planted fault."""
    arity = rng.choice((2, 3))
    n = rng.randint(0, 8)
    pool = list(itertools.combinations(range(1, n + 1), arity))
    edges = rng.sample(pool, rng.randint(0, len(pool)))
    lines = [f"{arity} {n}"]
    for e in edges:
        e = list(e)
        rng.shuffle(e)
        lines.append((" " * rng.randint(1, 2)).join(map(str, e)))
    for _ in range(rng.randint(0, 3)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(("", "# c", "  ", "\t# x")))
    fault = rng.choice(("none", "none", "repeat", "range", "duplicate", "count", "token",
                        "header", "negative", "no-header", "comment-first"))
    at = rng.randint(1, len(lines))
    if fault == "repeat":
        v = rng.randint(1, max(n, 1))
        lines.insert(at, " ".join(map(str, [v] * 2 + [rng.randint(1, 9)] * (arity - 2))))
    elif fault == "range":
        bad = rng.choice((0, -1, n + 1, n + 5))
        lines.insert(at, " ".join(map(str, [bad] + list(range(1, arity)))))
    elif fault == "duplicate" and edges:
        e = list(rng.choice(edges))
        rng.shuffle(e)
        lines.append(" ".join(map(str, e)))
    elif fault == "count":
        lines.insert(at, " ".join(["1"] * rng.choice((1, arity + 1))))
    elif fault == "token":
        lines.insert(at, " ".join(["1", rng.choice(("x", "2.0", "", "0x3", "٣"))] + ["3"] * (arity - 2)))
    elif fault == "header":
        lines[lines.index(f"{arity} {n}")] = rng.choice((f"{5 - arity} {n}", f"{arity}", "x 3"))
    elif fault == "negative":
        lines[lines.index(f"{arity} {n}")] = f"{arity} -{rng.randint(1, 3)}"
    elif fault == "no-header":
        lines.remove(f"{arity} {n}")
    elif fault == "comment-first":
        lines.insert(0, "# generated")
    return "\n".join(lines) + rng.choice(("", "\n"))


SEEDED_CASES = [_seeded_text(random.Random(seed)) for seed in range(400)]


@pytest.mark.parametrize("text", HAND_CASES)
def test_hand_cases_read_like_oracle(text):
    assert_reads_like_oracle(text)
    assert_round_trips_or_rejects(text)


def test_seeded_corpus_reads_like_oracle():
    outcomes = set()
    for text in SEEDED_CASES:
        assert_reads_like_oracle(text)
        assert_round_trips_or_rejects(text)
        for _, read, _, _, _ in FORMATS:
            try:
                read(text)
                outcomes.add("ok")
            except ParseError as exc:
                outcomes.add(str(exc).split(": ", 1)[-1].split(" ", 1)[0])
    # every kind of outcome occurs: parsed, bad header, wrong count,
    # non-integer, not distinct, out of range, duplicate, missing header
    assert {"ok", "expected", "non-integer", "edge", "duplicate", "missing",
            "vertex"} <= outcomes


# -- hypothesis: structured documents and arbitrary text --------------------

TOKENS = st.one_of(
    st.integers(-1, 7).map(str),
    st.sampled_from(["x", "1.5", "+2", "#", "٣", "0x1", "1_0"]),
)
FILLER = st.sampled_from(["", "  ", "# comment", "  # indented"])
BAD_HEADERS = st.sampled_from(["3", "2", "3 x", "3 4 5", "x 4", "4 4", "3 -2"])


@st.composite
def documents(draw):
    """Filler, a header (usually well formed, sometimes absent or bad), then
    lines that are mostly edges of the header's arity near the range [1, n]."""
    k = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(0, 7))
    near = st.lists(st.integers(0, n + 1).map(str), min_size=k, max_size=k).map(" ".join)
    inside = st.lists(st.integers(1, max(n, k)).map(str), min_size=k, max_size=k,
                      unique=True).map(" ".join)
    edge_lines = st.one_of(FILLER, st.lists(TOKENS, min_size=1, max_size=4).map(" ".join),
                           near, inside, inside, inside)
    header = draw(st.one_of(st.just(f"{k} {n}"), st.just(f"{k} {n}"), st.none(), BAD_HEADERS))
    lines = draw(st.lists(FILLER, max_size=2))
    lines += [header] if header is not None else []
    lines += draw(st.lists(edge_lines, max_size=12))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


DOCUMENTS = documents()


@given(DOCUMENTS)
@settings(max_examples=400, deadline=None)
def test_structured_documents_read_like_oracle(text):
    assert_reads_like_oracle(text)


@given(st.one_of(DOCUMENTS, st.text(max_size=80)))
@settings(max_examples=400, deadline=None)
def test_any_text_round_trips_or_raises_parse_error(text):
    assert_round_trips_or_rejects(text)


EDGE_LISTS = st.tuples(
    st.integers(-1, 6),
    st.lists(st.lists(st.integers(-1, 7), min_size=1, max_size=4), max_size=10),
)


@given(EDGE_LISTS)
@settings(max_examples=400, deadline=None)
def test_constructors_match_earlier_constructors(case):
    n, edges = case
    for _, _, _, cls, old_ctor in FORMATS:
        assert _outcome(cls, n, edges) == _outcome(old_ctor, n, edges)
        assert _outcome(cls, n, iter(map(tuple, edges))) == _outcome(old_ctor, n, edges)


# -- edges in any container: the constructors keep an exact ascending tuple
# as given and copy everything else, so the stored edges are exact tuples --

Pair = namedtuple("Pair", "u v")
Triple = namedtuple("Triple", "a b c")


class Edge(tuple):
    pass


def assert_constructs_like_oracle(n, edges):
    """The list and an iterator over it both construct as the oracle does."""
    for _, _, _, cls, old_ctor in FORMATS:
        expected = _outcome(old_ctor, n, edges)
        for given_edges in (edges, iter(edges)):
            got = _outcome(cls, n, given_edges)
            assert got == expected, (cls.__name__, n, edges)
            if got[0] == "ok":
                _, stored, stored_set = got[1]
                assert all(type(e) is tuple for e in stored)
                assert all(type(e) is tuple for e in stored_set)


MIXED_EDGE_LISTS = [
    (5, [(1, 2, 3), (3, 2, 1)]),
    (5, [(1, 2, 3), [2, 3, 4], (5, 4, 3), (1, 3, 5)]),
    (5, [Triple(1, 2, 3), (1, 2, 4), Triple(5, 1, 2)]),
    (5, [Triple(1, 2, 3), (1, 2, 3)]),
    (5, [Edge((1, 2, 3)), (2, 3, 4), Edge((4, 3, 2))]),
    (5, [Edge((1, 2, 4)), (1, 2, 4)]),
    (5, [(True, 2, 3), (1, 2, 3)]),
    (5, [(1, 2, 3), (True, 2, 3)]),
    (5, [(False, 2, 3)]),
    (5, [(True, 2, 3), (2, 3, 4.0)]),
    (5, [(1.0, 2.0, 3.0), (1, 2, 3)]),
    (5, [(1.5, 2, 3)]),
    (5, [(1, 2.0, 2), (2, 3, 4)]),
    (5, [(3.0, 2, 1), [4, 5.0, 1]]),
    (5, [(1, 2, 6.0)]),
    (5, [(1, 2, 3, 4)]),
    (5, [(1, 2)]),
    (5, [()]),
    (5, [(1, 1, 2)]),
    (5, [(2, 1, 1), (1, 2, 3)]),
    (4, [(1, 2), (2, 1), (3, 4)]),
    (4, [(1, 2), [3, 4], (4, 2), Pair(1, 3)]),
    (4, [Pair(1, 2), (1, 2)]),
    (4, [Pair(2, 1), Edge((3, 4)), Edge((4, 1))]),
    (4, [(True, 2), (1, 3), (2.0, 3)]),
    (4, [(1, 2), (2.0, 1)]),
    (4, [(1.0, 4.0), (0.5, 2)]),
    (4, [(3, 3)]),
    (4, [(1, 5)]),
    (4, [(0, 1)]),
]


@pytest.mark.parametrize("n,edges", MIXED_EDGE_LISTS, ids=range(len(MIXED_EDGE_LISTS)))
def test_mixed_edge_containers_match_earlier_constructors(n, edges):
    assert_constructs_like_oracle(n, edges)


VERTICES = st.one_of(st.integers(-1, 7), st.booleans(), st.integers(-1, 7).map(float),
                     st.sampled_from([0.5, 2.5, 6.5]))


def _container(kind, vs):
    if kind == "ascending":
        return tuple(sorted(vs))
    if kind == "descending":
        return tuple(sorted(vs, reverse=True))
    if kind == "named" and len(vs) in (2, 3):
        return (Pair if len(vs) == 2 else Triple)(*sorted(vs))
    if kind == "subclass":
        return Edge(sorted(vs))
    return list(vs) if kind == "list" else tuple(vs)


MIXED_EDGES = st.builds(_container,
                        st.sampled_from(["ascending", "ascending", "descending", "named",
                                         "subclass", "list", "as given"]),
                        st.lists(VERTICES, min_size=1, max_size=4))


@given(st.integers(-1, 6), st.lists(MIXED_EDGES, max_size=10))
@settings(max_examples=400, deadline=None)
def test_edges_in_any_container_match_earlier_constructors(n, edges):
    assert_constructs_like_oracle(n, edges)
