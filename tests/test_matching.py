import dataclasses
import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from tightcycle.errors import InvalidArgumentError, PreconditionError
from tightcycle.generators import min_degree_bound
from tightcycle.hypergraph import Graph, complete_graph
from tightcycle.matching import (
    GraphMeetReport,
    connected_components,
    erdos_gallai_threshold,
    graphmeet_verify,
    largest_component,
    max_matching,
    reverify_graphmeet,
)


def max_matching_brute(G: Graph) -> int:
    """Exhaustive maximum matching size; test oracle, exponential time."""
    adj = G.adjacency

    def best(available: frozenset[int]) -> int:
        for v in sorted(available):
            ns = [u for u in adj[v] if u in available]
            # v is either unmatched (drop it) or matched to one neighbour
            without = best(available - {v})
            with_v = 0
            for u in ns:
                with_v = max(with_v, 1 + best(available - {v, u}))
            return max(without, with_v)
        return 0

    return best(frozenset(range(1, G.n + 1)))

PETERSEN = Graph(
    10,
    [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5),
     (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),
     (6, 8), (8, 10), (7, 10), (7, 9), (6, 9)],
)


def test_max_matching_small_cases():
    C5 = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    assert max_matching(C5).size == 2
    assert max_matching(complete_graph(4)).size == 2
    assert max_matching(PETERSEN).size == 5 == max_matching_brute(PETERSEN)


def test_max_matching_is_valid_matching():
    rng = random.Random(1)
    for i in range(200):
        n = rng.randint(2, 12)
        edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5]
        G = Graph(n, edges)
        mm = max_matching(G)
        mm.validate(G)


def test_max_matching_optimal_vs_oracle():
    # blossom equals exhaustive search on >= 10^4 random graphs with n <= 10
    rng = random.Random(88)
    for i in range(10_000):
        n = rng.randint(2, 10)
        p = rng.uniform(0.05, 0.95)
        edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < p]
        G = Graph(n, edges)
        assert max_matching(G).size == max_matching_brute(G)


def test_max_matching_deterministic():
    G = Graph(8, [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (1, 8)])
    assert max_matching(G) == max_matching(G)


def test_erdos_gallai_threshold_values():
    assert erdos_gallai_threshold(5, 2) == 4  # max{3, 0 + 1*4}
    for N in (1, 4, 9, 20):
        assert erdos_gallai_threshold(N, 1) == 0
    with pytest.raises(InvalidArgumentError):
        erdos_gallai_threshold(0, 1)
    with pytest.raises(InvalidArgumentError):
        erdos_gallai_threshold(5, 0)
    with pytest.raises(InvalidArgumentError):
        erdos_gallai_threshold(4, 3)  # N < 2k-1


def test_dense_component_threshold_margin_sweep():
    # The dense-pair matching step relies on (5/9 - x^2) C(n,2) strictly
    # exceeding the matching threshold with N = (1-x)n and k = n/3, for all
    # 0 <= x < 1/3.  Sweep the rational grid x = i/n and record margins.
    for n in (9, 12, 15, 18, 21, 24, 30, 60, 90):
        k = n // 3
        for i in range(0, n // 3):
            x = Fraction(i, n)
            lhs = (Fraction(5, 9) - x * x) * comb(n, 2)
            N = int((1 - x) * n)
            rhs = erdos_gallai_threshold(N, k)
            assert lhs > rhs, f"margin failed at n={n}, x={x}"


def test_largest_component():
    K9 = complete_graph(9)
    cv, ce = largest_component(K9)
    assert cv == frozenset(range(1, 10))
    assert ce == K9.edge_set

    # K4 on {1..4} plus K3 on {5..7}
    edges = list(itertools.combinations(range(1, 5), 2)) + list(
        itertools.combinations(range(5, 8), 2)
    )
    cv, ce = largest_component(Graph(7, edges))
    assert cv == frozenset({1, 2, 3, 4})

    with pytest.raises(InvalidArgumentError):
        largest_component(Graph(4, []))


def test_largest_component_tiebreak():
    # two components of equal order: the lexicographically smaller one wins
    G = Graph(6, [(1, 2), (2, 3), (4, 5), (5, 6)])
    cv, _ = largest_component(G)
    assert cv == frozenset({1, 2, 3})
    # the old key sorted every vertex set; sparse graphs give many equal-size components
    rng = random.Random(23)
    for trial in range(300):
        n = rng.randint(2, 40)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        G = Graph(n, rng.sample(pairs, rng.randint(1, min(len(pairs), n // 2 + 1))))
        comps = connected_components(G)
        old = min(comps, key=lambda c: (-len(c[0]), tuple(sorted(c[0]))))
        assert largest_component(G) == old


def test_largest_component_dense_covers_two_thirds():
    rng = random.Random(17)
    n = 12
    need = 5 * comb(n, 2) // 9 + 1
    for trial in range(50):
        e = rng.randint(need, comb(n, 2))
        G = Graph(n, rng.sample(list(itertools.combinations(range(1, n + 1), 2)), e))
        cv, _ = largest_component(G)
        assert 3 * len(cv) > 2 * n


def test_graphmeet_complete():
    K9 = complete_graph(9)
    report = graphmeet_verify(K9, K9)
    assert report.all_verdicts()
    assert report.shared_edge == (1, 2)
    assert report.matchings[0].size == 3
    assert reverify_graphmeet(K9, K9, report) == []


def test_graphmeet_random_dense_pairs():
    rng = random.Random(2)
    n = 9
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for trial in range(100):
        e1 = rng.randint(21, 36)
        e2 = rng.randint(21, 36)
        G1 = Graph(n, rng.sample(pairs, e1))
        G2 = Graph(n, rng.sample(pairs, e2))
        report = graphmeet_verify(G1, G2)
        assert report.all_verdicts()
        assert reverify_graphmeet(G1, G2, report) == []


def test_graphmeet_precondition_rejects():
    # K6 + K3 has 18 edges <= 20 = (5/9) C(9,2)
    edges = list(itertools.combinations(range(1, 7), 2)) + list(
        itertools.combinations(range(7, 10), 2)
    )
    G = Graph(9, edges)
    assert len(G.edges) == 18
    with pytest.raises(PreconditionError):
        graphmeet_verify(G, G)
    report = graphmeet_verify(G, G, observe=True)
    assert not report.precondition_met
    # observing still yields evidence; here the K6 component covers exactly
    # 2n/3 vertices, so the strict cover and edge-count verdicts fail
    assert not any(report.verdict_cover)
    assert not any(report.verdict_edges)


def test_graphmeet_rejects_mismatched_vertex_sets():
    with pytest.raises(InvalidArgumentError):
        graphmeet_verify(complete_graph(9), complete_graph(12))


def test_graphmeet_deterministic_report():
    rng = random.Random(3)
    pairs = list(itertools.combinations(range(1, 10), 2))
    G1 = Graph(9, rng.sample(pairs, 25))
    G2 = Graph(9, rng.sample(pairs, 30))
    assert graphmeet_verify(G1, G2) == graphmeet_verify(G1, G2)


def test_reverify_graphmeet_does_not_trust_connected_components(monkeypatch):
    # a connected_components that reports a one-edge fragment as the only
    # component fools graphmeet_verify; the re-verifier must not agree
    from tightcycle import matching

    K9 = complete_graph(9)
    monkeypatch.setattr(matching, "connected_components",
                        lambda G: [(frozenset({1, 2}), frozenset({(1, 2)}))])
    report = graphmeet_verify(K9, K9)
    assert [len(cv) for cv in report.component_vertices] == [2, 2]
    problems = reverify_graphmeet(K9, K9, report)
    assert "G1: claimed component is not a component" in problems
    assert "G1: claimed component is not largest" in problems


def test_union_find_components_match_connected_components():
    from tightcycle.matching import _union_find_components, connected_components

    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(1, 12)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        G = Graph(n, rng.sample(pairs, rng.randint(0, len(pairs) // 2)))
        comps = connected_components(G)
        assert set(_union_find_components(G)) == set(comps)
        assert len(comps) == len(_union_find_components(G))


def _stored_verdicts(G1, G2):
    """The verdicts, alpha and beta as graphmeet_verify once stored them,
    worked out from the two graphs."""
    n = G1.n
    comps = [largest_component(G) for G in (G1, G2)]
    sizes = [max_matching(Graph(n, ce)).size for _, ce in comps]
    shared = comps[0][1] & comps[1][1]
    return {
        "verdict_cover": tuple(3 * len(cv) > 2 * n for cv, _ in comps),
        "verdict_edges": tuple(9 * len(ce) > 4 * comb(n, 2) for _, ce in comps),
        "verdict_matching": tuple(size >= n // 3 and n % 3 == 0 for size in sizes),
        "verdict_shared": bool(shared),
        "alpha": Fraction(n - len(comps[0][0]), n),
        "beta": Fraction(n - len(comps[1][0]), n),
    }


def test_graphmeet_verdicts_are_worked_out_from_the_evidence():
    assert [f.name for f in dataclasses.fields(GraphMeetReport)] == [
        "n", "precondition_met", "edge_counts", "component_vertices",
        "component_edges", "matchings", "shared_edge"]
    rng = random.Random(12)
    seen = {"dense": 0, "observed": 0, "n not divisible by 3": 0, "false verdict": 0}
    for n in (7, 8, 9, 10, 11, 12):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for _ in range(40):
            lo = min_degree_bound(n) if n % 3 == 0 and rng.random() < 0.5 else n - 1
            G1, G2 = (Graph(n, rng.sample(pairs, rng.randint(lo, len(pairs)))) for _ in range(2))
            report = graphmeet_verify(G1, G2, observe=True)
            stored = _stored_verdicts(G1, G2)
            assert {k: getattr(report, k) for k in stored} == stored
            seen["dense" if report.precondition_met else "observed"] += 1
            seen["n not divisible by 3"] += n % 3 != 0
            seen["false verdict"] += not report.all_verdicts()
    assert all(seen.values()), seen
