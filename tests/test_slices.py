import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from tightcycle import slices
from tightcycle.errors import InvalidArgumentError
from tightcycle.generators import random_3graph
from tightcycle.hypergraph import Hypergraph3, complete_3graph
from tightcycle.slices import (
    ClusterIndex,
    ReducedGraph,
    WeakSlice,
    build_reduced_graph,
    build_weak_slice,
    good_clusters,
    irregularity_witness,
    reduced_degree_check,
    relative_density,
    sub_polyad_density,
)


def tripartite_complete(clusters):
    """All crossing triples over three given clusters."""
    edges = [
        tuple(sorted((a, b, c)))
        for a in clusters[0]
        for b in clusters[1]
        for c in clusters[2]
    ]
    n = max(v for cl in clusters for v in cl)
    return Hypergraph3(n, edges)


def test_build_weak_slice_shapes():
    H = complete_3graph(12)
    S = build_weak_slice(H, 3, seed=1)
    assert S.t == 3 and S.m == 4 and S.deleted_vertices == ()
    H13 = complete_3graph(13)
    S13 = build_weak_slice(H13, 3, seed=1)
    assert S13.m == 4 and len(S13.deleted_vertices) == 1
    covered = set(S13.deleted_vertices) | {v for c in S13.clusters for v in c}
    assert covered == set(range(1, 14))


def test_build_weak_slice_deterministic():
    H = complete_3graph(20)
    assert build_weak_slice(H, 4, seed=9) == build_weak_slice(H, 4, seed=9)
    assert build_weak_slice(H, 4, seed=9) != build_weak_slice(H, 4, seed=10)


def test_build_weak_slice_rejects():
    H = complete_3graph(6)
    with pytest.raises(InvalidArgumentError):
        build_weak_slice(H, 2, seed=0)
    with pytest.raises(InvalidArgumentError):
        build_weak_slice(H, 7, seed=0)


def test_relative_density_extremes():
    clusters = ((1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12))
    S_host = tripartite_complete(clusters)
    S = WeakSlice(n=12, clusters=clusters, deleted_vertices=())
    assert relative_density(ClusterIndex(S_host, S), (0, 1, 2)) == 1
    empty = Hypergraph3(12, [])
    assert relative_density(ClusterIndex(empty, S), (0, 1, 2)) == 0


def test_relative_density_matches_exhaustive_count():
    clusters = ((1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12))
    S = WeakSlice(n=12, clusters=clusters, deleted_vertices=())
    rng = random.Random(3)
    H = random_3graph(12, 0.35, 44)
    got = relative_density(ClusterIndex(H, S), (0, 1, 2))
    count = sum(
        1
        for a in clusters[0]
        for b in clusters[1]
        for c in clusters[2]
        if (a, b, c) in H
    )
    assert got == Fraction(count, 64)


def weighted_degree(R, Y):
    """deg(Y; R): Y's density sum over C(t-1, 2), from the one-pass tallies."""
    return slices._cluster_tallies(R)[0][Y] / comb(R.t - 1, 2)


def zeta(R, Y):
    """Share of the triples containing Y that are labeled irregular."""
    return Fraction(slices._cluster_tallies(R)[2][Y], comb(R.t - 1, 2))


def test_relative_degree_weighted():
    def make(dval):
        ds = {X: dval for X in itertools.combinations(range(6), 3)}
        reg = {X: True for X in ds}
        return ReducedGraph(t=6, m=1, densities=ds, regular=reg, d_threshold=Fraction(0))

    assert weighted_degree(make(Fraction(1)), 0) == 1
    assert weighted_degree(make(Fraction(1, 2)), 3) == Fraction(1, 2)

    rng = random.Random(8)
    ds = {X: Fraction(rng.randint(0, 16), 16) for X in itertools.combinations(range(6), 3)}
    reg = {X: True for X in ds}
    R = ReducedGraph(t=6, m=1, densities=ds, regular=reg, d_threshold=Fraction(1, 8))
    for Y in range(6):
        direct = sum(d for X, d in ds.items() if Y in X)
        assert weighted_degree(R, Y) == direct / comb(5, 2)


def test_zeta_counts():
    triples = list(itertools.combinations(range(6), 3))
    ds = {X: Fraction(1, 2) for X in triples}

    all_regular = ReducedGraph(
        t=6, m=1, densities=ds, regular={X: True for X in triples}, d_threshold=Fraction(0)
    )
    assert zeta(all_regular, 0) == 0

    targeted = ReducedGraph(
        t=6, m=1, densities=ds,
        regular={X: 0 not in X for X in triples},
        d_threshold=Fraction(0),
    )
    assert zeta(targeted, 0) == 1

    three_bad = set(list(X for X in triples if 0 in X)[:3])
    R = ReducedGraph(
        t=6, m=1, densities=ds,
        regular={X: X not in three_bad for X in triples},
        d_threshold=Fraction(0),
    )
    assert zeta(R, 0) == Fraction(3, 10)


def test_reduced_degree_trivial_configurations():
    triples = list(itertools.combinations(range(5), 3))
    rng = random.Random(0)
    ds = {X: Fraction(rng.randint(0, 8), 8) for X in triples}
    zero_d = ReducedGraph(
        t=5, m=1, densities=ds, regular={X: True for X in triples}, d_threshold=Fraction(0)
    )
    assert all(rep.ok for rep in reduced_degree_check(zero_d))
    all_irregular = ReducedGraph(
        t=5, m=1, densities=ds, regular={X: False for X in triples}, d_threshold=Fraction(1, 4)
    )
    assert all(rep.ok for rep in reduced_degree_check(all_irregular))


def test_reduced_degree_random_configurations():
    rng = random.Random(123)
    for trial in range(300):
        t = rng.randint(4, 8)
        triples = list(itertools.combinations(range(t), 3))
        ds = {X: Fraction(rng.randint(0, 64), 64) for X in triples}
        reg = {X: rng.random() < 0.7 for X in triples}
        R = ReducedGraph(
            t=t, m=1, densities=ds, regular=reg,
            d_threshold=Fraction(rng.randint(0, 64), 64),
        )
        for rep in reduced_degree_check(R):
            assert rep.ok, (trial, rep)


def test_reduced_degree_check_matches_the_definitions():
    # Each cluster's lhs and rhs straight from the definitions, one scan of
    # the triples per quantity and cluster, against the one-pass tallies.
    rng = random.Random(2024)
    for trial in range(400):
        t = rng.randint(3, 9)
        triples = list(itertools.combinations(range(t), 3))
        dens = rng.choice(((1,), (4,), (64,), (97,), (3, 64, 97)))
        ds = {}
        for X in triples:
            q = rng.choice(dens)
            ds[X] = Fraction(rng.randint(0, q), q)
        reg = {X: rng.random() < rng.choice((0.0, 0.5, 0.9, 1.0)) for X in triples}
        d = rng.choice((Fraction(0), Fraction(1, 8), Fraction(rng.randint(0, 64), 64), Fraction(1)))
        R = ReducedGraph(t=t, m=1, densities=ds, regular=reg, d_threshold=d)
        pairs = comb(t - 1, 2)
        expected = []
        for Y in range(t):
            kept = sum(1 for X in triples if Y in X and reg[X] and ds[X] >= d)
            weighted = Fraction(sum(dv for X, dv in ds.items() if Y in X), pairs)
            irregular = Fraction(sum(1 for X in triples if Y in X and not reg[X]), pairs)
            lhs, rhs = Fraction(kept, pairs), weighted - d - irregular
            expected.append(slices.ClusterDegreeReport(Y, lhs, rhs, lhs >= rhs))
        assert reduced_degree_check(R) == expected, trial


def test_witness_never_found_on_uniform_hosts():
    clusters = ((1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12))
    S = WeakSlice(n=12, clusters=clusters, deleted_vertices=())
    full = tripartite_complete(clusters)
    assert irregularity_witness(ClusterIndex(full, S), (0, 1, 2), Fraction(1), 0.1, 200, seed=5) is None
    empty = Hypergraph3(12, [])
    assert irregularity_witness(ClusterIndex(empty, S), (0, 1, 2), Fraction(0), 0.1, 200, seed=5) is None


def test_witness_found_on_planted_halves():
    # crossing triples living entirely in fixed halves of each cluster:
    # global density 1/8 but the half-induced sub-polyad has density 1
    clusters = ((1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12))
    halves = ((1, 2), (5, 6), (9, 10))
    S = WeakSlice(n=12, clusters=clusters, deleted_vertices=())
    H = tripartite_complete(halves)
    H = Hypergraph3(12, H.edges)
    d = relative_density(ClusterIndex(H, S), (0, 1, 2))
    assert d == Fraction(8, 64)
    assert sub_polyad_density(ClusterIndex(H, S), (0, 1, 2), halves) == 1
    w = irregularity_witness(ClusterIndex(H, S), (0, 1, 2), d, 0.1, 400, seed=3)
    assert w is not None
    # the witness re-verifies from scratch
    again = sub_polyad_density(ClusterIndex(H, S), w.X, w.subsets)
    assert again == w.observed_density
    assert abs(float(again) - float(d)) > 0.1


def test_witness_deviation_is_compared_exactly():
    # The sub-polyad ((2, 3), (4, 5, 6), (8, 9)) has density 7/12, exactly
    # 1/4 from the reference 1/3, so it does not deviate by more than eps
    # 1/4, although float(7/12) - float(1/3) is 0.25000000000000006.
    H = Hypergraph3(9, [(1, 4, 7), (1, 6, 9), (2, 4, 9), (2, 5, 9), (2, 6, 8),
                        (3, 4, 8), (3, 4, 9), (3, 5, 8), (3, 5, 9)])
    S = WeakSlice(n=9, clusters=((1, 2, 3), (4, 5, 6), (7, 8, 9)), deleted_vertices=())
    index = ClusterIndex(H, S)
    assert sub_polyad_density(index, (0, 1, 2), ((2, 3), (4, 5, 6), (8, 9))) == Fraction(7, 12)
    assert irregularity_witness(index, (0, 1, 2), Fraction(1, 3), 0.25, 40, 0) is None


def test_good_clusters_trim_and_threshold():
    triples = list(itertools.combinations(range(7), 3))
    ds = {X: Fraction(1, 2) for X in triples}
    all_ok = ReducedGraph(
        t=7, m=1, densities=ds, regular={X: True for X in triples}, d_threshold=Fraction(0)
    )
    kept = good_clusters(all_ok, Fraction(1, 400))  # fewer than C(7,2)/10 irregular triples
    assert kept == (0, 1, 2, 3, 4, 5)  # trimmed from 7 to a multiple of 3

    # cluster 6 sits in many irregular triples and gets dropped first
    bad6 = ReducedGraph(
        t=7, m=1, densities=ds,
        regular={X: 6 not in X for X in triples},
        d_threshold=Fraction(0),
    )
    kept = good_clusters(bad6, Fraction(1, 36))  # fewer than C(7,2)/3
    assert 6 not in kept and len(kept) % 3 == 0

    none_allowed = good_clusters(bad6, 0)
    assert none_allowed == ()


def test_reduced_graph_json_colex_order():
    H = complete_3graph(8)
    S = build_weak_slice(H, 4, seed=2)
    R = build_reduced_graph(H, S, Fraction(1, 20), 0.25, 10, seed=2)
    payload = R.to_json_dict()
    xs = [tuple(item["X"]) for item in payload["triples"]]
    assert xs == sorted(xs, key=lambda X: tuple(reversed(X)))
    assert payload["triples"][0]["d"] == "1"


def mean_relative_degree(H, vertices):
    """Mean over the vertices of deg(v) / C(n-1, 2)."""
    return Fraction(sum(H.degrees[v] for v in vertices), len(vertices) * comb(H.n - 1, 2))


def test_relative_degree_vertex_and_inheritance():
    H = complete_3graph(10)
    assert mean_relative_degree(H, [1]) == 1
    assert mean_relative_degree(H, [1, 2, 3]) == 1

    # statistical degree inheritance: weighted reduced degree tracks the
    # mean relative degree of the cluster, seed-pinned
    total_gap = 0.0
    count = 0
    for i in range(100):
        rng = random.Random(i)
        p = rng.uniform(0.3, 0.9)
        H = random_3graph(60, p, 9000 + i)
        S = build_weak_slice(H, 6, seed=i)
        R = build_reduced_graph(H, S, Fraction(1, 20), 0.3, 1, seed=i)
        for Y in range(6):
            gap = abs(
                float(weighted_degree(R, Y))
                - float(mean_relative_degree(H, S.clusters[Y]))
            )
            total_gap += gap
            count += 1
    assert total_gap / count < 0.1


def test_build_reduced_graph_rejects_a_threshold_outside_the_unit_interval():
    H = complete_3graph(9)
    S = build_weak_slice(H, 3, seed=1)
    for d in (Fraction(0), Fraction(1)):
        assert build_reduced_graph(H, S, d, 0.25, 10, seed=1).d_threshold == d
    for d in (Fraction(-1, 20), Fraction(21, 20)):
        with pytest.raises(InvalidArgumentError):
            build_reduced_graph(H, S, d, 0.25, 10, seed=1)


def test_build_reduced_graph_calls_the_public_queries(monkeypatch):
    # The reduce layer has one path: every triple's density and label come
    # from the module-level queries, where tracers wrap them.
    H = random_3graph(24, 0.5, 9)
    S = build_weak_slice(H, 6, seed=2)
    expected = build_reduced_graph(H, S, Fraction(1, 20), 0.25, 40, seed=4)
    calls = {"relative_density": 0, "irregularity_witness": 0}
    for name in calls:
        original = getattr(slices, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(slices, name, counting)
    got = build_reduced_graph(H, S, Fraction(1, 20), 0.25, 40, seed=4)
    assert calls == {"relative_density": 20, "irregularity_witness": 20}
    assert got == expected
