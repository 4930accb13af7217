import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tightcycle.errors import InvalidArgumentError, ParseError
from tightcycle.generators import extremal, random_3graph
from tightcycle.hypergraph import (
    Graph,
    Hypergraph3,
    complete_3graph,
    read_graph,
    read_hypergraph,
    write_graph,
    write_hypergraph,
)


def test_degree_complete_k4():
    K4 = complete_3graph(4)
    assert K4.degrees[1] == 3  # each vertex misses exactly one triple
    assert K4.completions[1][2] == 0b1100  # third vertex is 3 or 4


def test_degree_extremal_b_vertex():
    inst = extremal(9, 2)
    H = inst.hypergraph
    # brute-force count for a vertex of B, cross-checked with the formula
    for b in inst.b_side:
        count = sum(1 for e in H.edges if b in e)
        assert count == 13
    assert 13 == 28 - 15  # C(8,2) - C(6,2)


def test_degree_matches_brute_count_on_random_hosts():
    for seed in range(6):
        H = random_3graph(14, 0.1 + 0.15 * seed, seed)
        brute = [sum(1 for e in H.edges if v in e) for v in H.vertices()]
        assert list(H.degrees[1:]) == brute
        assert H.min_degree(1) == min(brute)


def _degree_hosts():
    """Edgeless, complete and random hosts, with and without an uncovered
    vertex or pair."""
    rng = random.Random(3)
    hosts = [Hypergraph3(n, []) for n in (2, 3, 7)] + [complete_3graph(6)]
    for _ in range(40):
        n = rng.randint(3, 10)
        triples = list(itertools.combinations(range(1, n + 1), 3))
        hosts.append(Hypergraph3(n, rng.sample(triples, rng.randint(0, len(triples)))))
    return hosts


def test_min_degrees_match_brute_count_with_uncovered_vertices_and_pairs():
    seen = set()
    for H in _degree_hosts():
        by_vertex = [sum(1 for e in H.edges if v in e) for v in H.vertices()]
        by_pair = [sum(1 for e in H.edges if set(p) <= set(e))
                   for p in itertools.combinations(H.vertices(), 2)]
        assert H.min_degree(1) == min(by_vertex)
        assert H.min_degree(2) == min(by_pair)
        seen.add((min(by_vertex) == 0, min(by_pair) == 0))
    assert seen == {(True, True), (False, True), (False, False)}


def test_info_on_huge_edgeless_host_is_quick(tmp_path):
    path = tmp_path / "huge.3g"
    path.write_text("3 100000000\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "tightcycle.cli", "info", str(path)],
        capture_output=True, text=True, timeout=20, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["min_degree_1"] == 0 and payload["min_degree_2"] == 0


def test_min_degree():
    assert complete_3graph(5).min_degree(1) == 6
    assert Hypergraph3(5, []).min_degree(1) == 0
    assert extremal(9, 2).hypergraph.min_degree(1) == 13


def test_min_degree_invalid():
    H = Hypergraph3(1, [])
    assert H.min_degree(2) == 0  # no pair to take a minimum over
    assert Hypergraph3(0, []).min_degree(1) == 0
    for s in (0, 3):
        with pytest.raises(InvalidArgumentError):
            complete_3graph(4).min_degree(s)


def test_link_graph_k4():
    K4 = complete_3graph(4)
    L = K4.link_graph(1)
    assert L.n == 4  # the vertex stays, isolated
    assert L.edge_set == {(2, 3), (2, 4), (3, 4)}
    assert L.adjacency[1] == ()


def test_link_graph_isolated():
    H = Hypergraph3(4, [(1, 2, 3)])
    L = H.link_graph(4)
    assert L.n == 4 and len(L.edges) == 0


def test_link_graph_extremal_b_vertex():
    inst = extremal(9, 2)
    for v in inst.b_side[:2]:
        L = inst.hypergraph.link_graph(v)
        assert len(L.edges) == inst.hypergraph.degrees[v] == 13


def test_construction_rejects_bad_edges():
    with pytest.raises(InvalidArgumentError):
        Hypergraph3(4, [(1, 2, 2)])
    with pytest.raises(InvalidArgumentError):
        Hypergraph3(4, [(1, 2, 5)])
    with pytest.raises(InvalidArgumentError):
        Hypergraph3(4, [(1, 2, 3), (3, 2, 1)])
    with pytest.raises(InvalidArgumentError):
        Graph(3, [(1, 1)])


def test_read_basic():
    H = read_hypergraph("3 4\n1 2 3\n1 2 4\n")
    assert H.n == 4
    assert H.edges == ((1, 2, 3), (1, 2, 4))


def test_read_duplicate_edge_reports_line():
    with pytest.raises(ParseError) as err:
        read_hypergraph("3 3\n1 2 3\n1 2 3\n")
    assert err.value.line == 3


def test_read_comments_and_order():
    text = "# generated\n3 5\n\n5 1 3\n# interior comment\n2 4 5\n"
    H = read_hypergraph(text)
    assert H.edges == ((1, 3, 5), (2, 4, 5))


READ_ERROR_CASES = [
    # (text, line of the error, reader); ids are "text-line"
    ("2 4\n1 2 3\n", 1, read_hypergraph),  # wrong arity header for .3g
    ("3 x\n", 1, read_hypergraph),
    ("3 4\n1 2\n", 2, read_hypergraph),
    ("3 4\n1 2 9\n", 2, read_hypergraph),
    ("3 4\n1 two 3\n", 2, read_hypergraph),
    ("3 4\n1 1 2\n", 2, read_hypergraph),  # repeated vertex
    ("3 -1\n", 1, read_hypergraph),  # negative vertex count
    ("# made by hand\n3 4\n1 2 5\n", 3, read_hypergraph),  # comment before header
    ("2 4\n1 2\n2 1\n", 3, read_graph),  # duplicate pair in a .2g
]


@pytest.mark.parametrize("text,line,read", READ_ERROR_CASES,
                         ids=[f"{text}-{line}" for text, line, _ in READ_ERROR_CASES])
def test_read_errors(text, line, read):
    with pytest.raises(ParseError) as err:
        read(text)
    assert err.value.line == line


def test_write_read_byte_identical():
    H = complete_3graph(5)
    text = write_hypergraph(H)
    assert write_hypergraph(read_hypergraph(text)) == text


def test_roundtrip_random_instances():
    # 1000 random instances survive a full read/write/read cycle
    for i in range(1000):
        rng = random.Random(i)
        n = rng.randint(3, 12)
        H = random_3graph(n, rng.uniform(0, 1), i)
        text = write_hypergraph(H)
        again = read_hypergraph(text)
        assert again == H
        assert write_hypergraph(again) == text


def test_graph_roundtrip():
    G = Graph(5, [(1, 2), (4, 5), (2, 3)])
    assert read_graph(write_graph(G)) == G


@given(st.integers(3, 10), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_handshake_and_link_consistency(n, seed):
    rng = random.Random(seed)
    H = random_3graph(n, rng.uniform(0, 1), seed)
    degsum = sum(H.degrees)
    assert degsum == 3 * len(H.edges)
    if H.n > 0:
        assert H.min_degree(1) * H.n <= 3 * len(H.edges)
    v = rng.randint(1, n)
    L = H.link_graph(v)
    assert len(L.edges) == H.degrees[v]
    for u, w in itertools.combinations(range(1, n + 1), 2):
        assert ((u, w) in L) == ((u, v, w) in H)


def test_completions_match_brute_force():
    for H in _degree_hosts():
        comp = H.completions
        assert len(comp) == H.n + 1 and all(len(row) == H.n + 1 for row in comp)
        assert not any(comp[0]) and not any(row[0] for row in comp)
        for a, b in itertools.product(H.vertices(), repeat=2):
            thirds = {c for c in H.vertices() if len({a, b, c}) == 3 and (a, b, c) in H}
            assert comp[a][b] == comp[b][a] == sum(1 << (c - 1) for c in thirds)
