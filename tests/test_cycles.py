import math
import random
from fractions import Fraction

import pytest

from tightcycle.cycles import (
    QUOTA_SCALES,
    brute_force_longest_cycle,
    longest_tight_cycle,
    matching_guided_cycle,
    validate_cycle,
)
from tightcycle.errors import InvalidArgumentError, SizeLimitError
from tightcycle.fractional import FractionalMatching
from tightcycle.generators import extremal, random_3graph
from tightcycle.hypergraph import Hypergraph3, complete_3graph
from tightcycle.slices import ReducedGraph, build_reduced_graph, build_weak_slice


def test_validate_basic():
    K5 = complete_3graph(5)
    assert validate_cycle(K5, (1, 2, 3, 4, 5)).valid

    missing = Hypergraph3(5, [e for e in K5.edges if e != (3, 4, 5)])
    rep = validate_cycle(missing, (1, 2, 3, 4, 5))
    assert not rep.valid and rep.reason == "missing-window" and rep.window == (3, 4, 5)

    dup = validate_cycle(K5, (1, 2, 3, 1))
    assert not dup.valid and dup.reason == "duplicate-vertex" and dup.vertex == 1


def test_validate_flags_degenerate_triangle():
    H = Hypergraph3(3, [(1, 2, 3)])
    rep = validate_cycle(H, (1, 2, 3))
    assert not rep.valid and rep.reason == "degenerate-length-3"
    assert validate_cycle(H, (1, 2)).reason == "too-short"
    assert validate_cycle(H, (1, 2, 3, 9)).reason == "vertex-out-of-range"


def test_longest_small_cases():
    assert longest_tight_cycle(complete_3graph(5)).length == 5
    assert longest_tight_cycle(Hypergraph3(3, [(1, 2, 3)])) is None
    assert longest_tight_cycle(extremal(9, 2).hypergraph).length == 6
    assert longest_tight_cycle(Hypergraph3(6, [])) is None


def test_longest_respects_budget():
    with pytest.raises(SizeLimitError):
        longest_tight_cycle(Hypergraph3(23, []))


def test_every_emitted_cycle_validates():
    for i in range(60):
        rng = random.Random(i)
        n = rng.randint(4, 9)
        H = random_3graph(n, rng.uniform(0.2, 0.9), 31 * i)
        cyc = longest_tight_cycle(H)
        if cyc is not None:
            assert validate_cycle(H, cyc.order).valid


def test_dp_matches_oracle_random():
    for i in range(150):
        rng = random.Random(5000 + i)
        n = rng.randint(4, 8)
        H = random_3graph(n, rng.uniform(0.15, 0.9), 5000 + i)
        dp = longest_tight_cycle(H)
        bf = brute_force_longest_cycle(H)
        assert (dp.length if dp else 0) == (bf.length if bf else 0)


def test_dp_matches_oracle_small_n_dense_sampling():
    # all-n<=6 regime, heavy sampling of edge subsets
    count = 0
    for i in range(10_000):
        rng = random.Random(i)
        n = rng.randint(4, 6)
        H = random_3graph(n, rng.uniform(0.0, 1.0), 77000 + i)
        dp = longest_tight_cycle(H)
        bf = brute_force_longest_cycle(H)
        assert (dp.length if dp else 0) == (bf.length if bf else 0)
        count += 1
    assert count == 10_000


def test_monotone_in_edges():
    rng = random.Random(77)
    for trial in range(40):
        n = rng.randint(5, 8)
        H = random_3graph(n, 0.4, trial)
        full = complete_3graph(n)
        missing = [e for e in full.edges if e not in H.edge_set]
        if not missing:
            continue
        extra = rng.sample(missing, min(3, len(missing)))
        H2 = Hypergraph3(n, list(H.edges) + extra)
        l1 = longest_tight_cycle(H)
        l2 = longest_tight_cycle(H2)
        assert (l2.length if l2 else 0) >= (l1.length if l1 else 0)


def test_extremal_cycle_law():
    for n in range(6, 13):
        for a in range(2, n // 3 + 1):
            cyc = longest_tight_cycle(extremal(n, a).hypergraph)
            assert cyc is not None and cyc.length == 3 * a


def _slice_and_reduced(H, t, seed):
    S = build_weak_slice(H, t, seed)
    R = build_reduced_graph(H, S, Fraction(1, 20), 0.25, 20, seed)
    return S, R


def _perfect_cluster_matching(R):
    """Unit weights on a perfect integral matching of the clusters 1..t."""
    weights = {}
    for base in range(1, R.t + 1, 3):
        weights[(base, base + 1, base + 2)] = Fraction(1)
    return FractionalMatching(n=R.t, weights=weights, total_weight=Fraction(R.t, 3))


def test_matching_guided_on_complete():
    H = complete_3graph(18)
    S, R = _slice_and_reduced(H, 6, seed=4)
    M = _perfect_cluster_matching(R)
    res = matching_guided_cycle(H, S, R, M, seed=1)
    assert res.success and res.cycle is not None
    assert res.cycle.length == 18  # full coverage on a complete host
    assert validate_cycle(H, res.cycle.order).valid
    assert res.coverage == {c: 3 for c in range(6)}


def test_matching_guided_deterministic():
    H = random_3graph(30, 0.85, 3)
    S, R = _slice_and_reduced(H, 6, seed=8)
    M = _perfect_cluster_matching(R)
    r1 = matching_guided_cycle(H, S, R, M, seed=5)
    r2 = matching_guided_cycle(H, S, R, M, seed=5)
    assert r1 == r2
    assert r1.success


def test_matching_guided_reads_support_keys_as_sets():
    H = complete_3graph(18)
    S, R = _slice_and_reduced(H, 6, seed=4)
    unsorted = FractionalMatching(6, {(3, 1, 2): Fraction(1), (4, 5, 6): Fraction(1)}, Fraction(2))
    res = matching_guided_cycle(H, S, R, unsorted, seed=4)
    assert res.success
    assert res == matching_guided_cycle(H, S, R, _perfect_cluster_matching(R), seed=4)


def test_matching_guided_rejects_disconnected_support():
    # reduced graph with exactly two disjoint thresholded triples
    t = 6
    import itertools

    ds = {}
    reg = {}
    for X in itertools.combinations(range(t), 3):
        keep = X in ((0, 1, 2), (3, 4, 5))
        ds[X] = Fraction(1) if keep else Fraction(0)
        reg[X] = True
    R = ReducedGraph(t=t, m=3, densities=ds, regular=reg, d_threshold=Fraction(1, 2))
    H = complete_3graph(18)
    S = build_weak_slice(H, 6, seed=0)
    M = _perfect_cluster_matching(R)
    with pytest.raises(InvalidArgumentError):
        matching_guided_cycle(H, S, R, M, seed=0)


def test_matching_guided_rejects_off_support():
    H = complete_3graph(18)
    S, R = _slice_and_reduced(H, 6, seed=4)
    bad = FractionalMatching(n=6, weights={(1, 2, 3): Fraction(1)}, total_weight=Fraction(1))
    import itertools

    hollow = ReducedGraph(
        t=6, m=3,
        densities={X: Fraction(0) for X in itertools.combinations(range(6), 3)},
        regular={X: True for X in itertools.combinations(range(6), 3)},
        d_threshold=Fraction(1, 2),
    )
    with pytest.raises(InvalidArgumentError):
        matching_guided_cycle(H, S, hollow, bad, seed=0)
    M = _perfect_cluster_matching(R)
    off_count = FractionalMatching(n=5, weights=M.weights, total_weight=M.total_weight)
    with pytest.raises(InvalidArgumentError):
        matching_guided_cycle(H, S, R, off_count, seed=0)


def test_failure_reports_longest_path():
    # a host with no edges crossing the slice cannot realize any plan
    H = complete_3graph(18)
    S, R = _slice_and_reduced(H, 6, seed=4)
    M = _perfect_cluster_matching(R)
    sparse_host = Hypergraph3(18, [])
    res = matching_guided_cycle(sparse_host, S, R, M, seed=0)
    assert not res.success and res.cycle is None
    assert len(res.longest_path) <= 2


def test_quota_scales_are_exact_tenths():
    # a target of 90 at scale 7/10 is 63 vertices; the float 0.7 gives 62
    assert [math.floor(90 * s) for s in QUOTA_SCALES] == [90, 81, 72, 63, 54, 45, 36]
    assert [float(s) for s in QUOTA_SCALES] == [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4]
