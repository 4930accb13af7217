"""The bitset reduce layer against the counters it replaced.

Two oracles stand in for former counting cores of `slices`.  The
permutation scan counts, for every polyad and every witness sample, the
edges of H in all six vertex orders, and compares deviations in floats, so
its corpus keeps away from the eps boundaries.  The edge-list counter
buckets the edges by cluster triple as lists and counts a sample with three
set lookups per edge; it compares in integers, so it is the oracle for
wide polyads (m >= 5, more than 64 bits), complete and empty hosts and
reference densities exactly eps away from 0 or 1.  Densities, sub-polyad
densities, witnesses and whole reduced graphs must equal the oracles'
exactly, and the canonical pipeline reports of the pinned seeds must keep
the digests they had under the permutation scan.
"""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from tightcycle import slices
from tightcycle.generators import derive_seed, extremal, random_3graph
from tightcycle.hypergraph import Hypergraph3, complete_3graph
from tightcycle.pipeline import run_pipeline
from tightcycle.slices import (
    ClusterIndex,
    IrregularityWitness,
    ReducedGraph,
    build_reduced_graph,
    build_weak_slice,
    irregularity_witness,
    relative_density,
    sub_polyad_density,
)


def oracle_counts(H, parts):
    """(edges of H with one vertex in each part, product of the part sizes)."""
    ai, aj, ak = (set(p) for p in parts)
    num = 0
    for e in H.edges:
        for x, y, z in itertools.permutations(e):
            if x in ai and y in aj and z in ak:
                num += 1
                break
    return num, len(ai) * len(aj) * len(ak)


def oracle_density(H, parts):
    num, den = oracle_counts(H, parts)
    return Fraction(num, den) if den else Fraction(0)


def oracle_witness(H, S, xs, d, eps, samples, seed):
    rng = random.Random(seed)
    parts = [list(S.clusters[c]) for c in xs]
    full_support = S.m ** 3
    for _ in range(samples):
        subs = []
        for part in parts:
            size = rng.randint(1, len(part))
            subs.append(tuple(sorted(rng.sample(part, size))))
        if len(subs[0]) * len(subs[1]) * len(subs[2]) <= eps * full_support:
            continue
        num, den = oracle_counts(H, subs)
        if den == 0 or den <= eps * full_support:
            continue
        dq = Fraction(num, den)
        if abs(float(dq) - float(d)) > eps:
            return IrregularityWitness(
                X=xs, subsets=tuple(subs), observed_density=dq,
                reference_density=d, eps=eps,
            )
    return None


def oracle_reduced_graph(H, S, d_threshold, eps, samples, seed):
    densities, regular = {}, {}
    for idx, X in enumerate(itertools.combinations(range(S.t), 3)):
        dv = oracle_density(H, [S.clusters[c] for c in X])
        densities[X] = dv
        w = oracle_witness(H, S, X, dv, eps, samples, derive_seed(seed, idx))
        regular[X] = w is None
    return ReducedGraph(
        t=S.t, m=S.m, densities=densities, regular=regular, d_threshold=d_threshold
    )


def list_buckets(H, S):
    """The edges of H by sorted cluster triple, each edge in cluster order;
    edges touching a deleted vertex or meeting a cluster twice are dropped."""
    where = S.cluster_lookup()
    buckets = {}
    for e in H.edges:
        try:
            (i, a), (j, b), (k, c) = sorted((where[v], v) for v in e)
        except KeyError:
            continue
        if i != j and j != k:
            buckets.setdefault((i, j, k), []).append((a, b, c))
    return buckets


def list_sub_count(bucket, subsets):
    A, B, C = (set(sub) for sub in subsets)
    num = sum(1 for a, b, c in bucket if a in A and b in B and c in C)
    return num, len(A) * len(B) * len(C)


def list_witness(buckets, S, xs, d, eps, samples, seed):
    """The edge-list witness search, with its exact integer comparisons."""
    dn, dd = Fraction(d).as_integer_ratio()
    en, ed = Fraction(eps).as_integer_ratio()
    bucket = buckets.get(xs, ())
    rng = random.Random(seed)
    parts = [list(S.clusters[c]) for c in xs]
    full_support = S.m ** 3
    for _ in range(samples):
        subs = []
        for part in parts:
            size = rng.randint(1, len(part))
            subs.append(tuple(sorted(rng.sample(part, size))))
        if len(subs[0]) * len(subs[1]) * len(subs[2]) * ed <= en * full_support:
            continue
        num, den = list_sub_count(bucket, subs)
        if abs(num * dd - dn * den) * ed > en * den * dd:
            return IrregularityWitness(
                X=xs, subsets=tuple(subs), observed_density=Fraction(num, den),
                reference_density=d, eps=Fraction(eps),
            )
    return None


def list_reduced_graph(H, S, d_threshold, eps, samples, seed):
    buckets = list_buckets(H, S)
    densities, regular = {}, {}
    for idx, X in enumerate(itertools.combinations(range(S.t), 3)):
        dv = densities[X] = Fraction(len(buckets.get(X, ())), S.m ** 3)
        w = list_witness(buckets, S, X, dv, eps, samples, derive_seed(seed, idx))
        regular[X] = w is None
    return ReducedGraph(
        t=S.t, m=S.m, densities=densities, regular=regular, d_threshold=d_threshold
    )


def planted(n, seed):
    """Dense on the low half of the vertices, sparse elsewhere."""
    rng = random.Random(seed)
    half = n // 2
    return Hypergraph3(n, [
        e for e in itertools.combinations(range(1, n + 1), 3)
        if rng.random() < (0.9 if e[2] <= half else 0.1)
    ])


def _corpus():
    shapes = [(12, 3, 0.35), (13, 3, 0.5), (17, 4, 0.3), (20, 5, 0.6),
              (22, 5, 0.2), (23, 6, 0.8), (26, 6, 0.45)]
    out = []
    for i, (n, t, p) in enumerate(shapes):
        H = random_3graph(n, p, 500 + i)
        out.append((f"random-n{n}-t{t}", H, build_weak_slice(H, t, seed=i)))
    for i, (n, t) in enumerate([(19, 4), (25, 6)]):
        H = planted(n, 700 + i)
        out.append((f"planted-n{n}-t{t}", H, build_weak_slice(H, t, seed=40 + i)))
    return out


CORPUS = _corpus()
IDS = [name for name, _, _ in CORPUS]


def test_corpus_covers_remainders_and_same_cluster_edges():
    assert any(S.deleted_vertices for _, _, S in CORPUS)
    for _, H, S in CORPUS:
        where = S.cluster_lookup()
        assert any(
            len({where[v] for v in e}) < 3 for e in H.edges if all(v in where for v in e)
        )


@pytest.mark.parametrize("name,H,S", CORPUS, ids=IDS)
def test_relative_density_matches_oracle(name, H, S):
    for X in itertools.combinations(range(S.t), 3):
        expected = oracle_density(H, [S.clusters[c] for c in X])
        assert relative_density(ClusterIndex(H, S), reversed(X)) == expected


@pytest.mark.parametrize("name,H,S", CORPUS, ids=IDS)
def test_sub_polyad_density_matches_oracle(name, H, S):
    rng = random.Random(name)
    for X in itertools.combinations(range(S.t), 3):
        for _ in range(4):
            subsets = [
                rng.sample(S.clusters[c], rng.randint(0, len(S.clusters[c]))) for c in X
            ]
            got = sub_polyad_density(ClusterIndex(H, S), X, subsets)
            assert got == oracle_density(H, subsets)


def test_irregularity_witness_matches_oracle():
    outcomes = set()
    for name, H, S in CORPUS:
        for idx, X in enumerate(itertools.combinations(range(S.t), 3)):
            dv = oracle_density(H, [S.clusters[c] for c in X])
            for d, eps in ((dv, 0.1), (Fraction(1, 2), 0.3)):
                seed = derive_seed(len(name), idx)
                got = irregularity_witness(ClusterIndex(H, S), X, d, eps, 12, seed)
                assert got == oracle_witness(H, S, X, d, eps, 12, seed), (name, X, d)
                outcomes.add(got is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("name,H,S", CORPUS, ids=IDS)
def test_build_reduced_graph_matches_oracle(name, H, S):
    got = build_reduced_graph(H, S, Fraction(1, 20), 0.2, 10, seed=len(name))
    expected = oracle_reduced_graph(H, S, Fraction(1, 20), 0.2, 10, seed=len(name))
    assert got == expected
    assert got.to_json_dict() == expected.to_json_dict()


def _wide_corpus():
    hosts = [
        ("random-n31-t3-m10", random_3graph(31, 0.4, 9), 3),
        ("random-n37-t6-m6", random_3graph(37, 0.85, 8), 6),
        ("planted-n30-t5-m6", planted(30, 702), 5),
        ("complete-n13-t4", complete_3graph(13), 4),
        ("empty-n12-t3", Hypergraph3(12, []), 3),
        # m 23: sample's set-rejection branch for k <= 5, its pool otherwise
        ("random-n70-t3-m23", random_3graph(70, 0.05, 10), 3),
        # t 11: polyad keys (i*t + j)*t + k beyond a single decimal digit
        ("random-n35-t11-m3", random_3graph(35, 0.5, 11), 11),
    ]
    return [(name, H, build_weak_slice(H, t, seed=i)) for i, (name, H, t) in enumerate(hosts)]


WIDE = _wide_corpus()
WIDE_IDS = [name for name, _, _ in WIDE]
EPSES = (Fraction(1, 10), Fraction(1, 4), Fraction(3, 10))


def test_wide_corpus_covers_wide_constant_and_mixed_polyads():
    assert max(S.m for _, _, S in WIDE) ** 3 > 64
    full = {(1 << S.m ** 3) - 1 for _, _, S in WIDE}
    polyads = [p for _, H, S in WIDE for p in ClusterIndex(H, S).polyads.values()]
    assert any(p in full for p in polyads) and any(p not in full for p in polyads)
    assert any(not ClusterIndex(H, S).polyads for _, H, S in WIDE)


@pytest.mark.parametrize("name,H,S", WIDE, ids=WIDE_IDS)
def test_wide_densities_match_the_list_oracle(name, H, S):
    index, buckets = ClusterIndex(H, S), list_buckets(H, S)
    rng = random.Random(name)
    for X in itertools.combinations(range(S.t), 3):
        assert relative_density(index, X) == Fraction(len(buckets.get(X, ())), S.m ** 3)
        for _ in range(6):
            # with repeats: a subset is read as a set
            subsets = [rng.choices(S.clusters[c], k=rng.randint(0, S.m + 2)) for c in X]
            num, den = list_sub_count(buckets.get(X, ()), subsets)
            expected = Fraction(num, den) if den else Fraction(0)
            assert sub_polyad_density(index, X, subsets) == expected


@pytest.mark.parametrize("name,H,S", WIDE, ids=WIDE_IDS)
def test_wide_witnesses_match_the_list_oracle(name, H, S):
    index, buckets = ClusterIndex(H, S), list_buckets(H, S)
    for idx, X in enumerate(itertools.combinations(range(S.t), 3)):
        dv = relative_density(index, X)
        for eps in EPSES:
            # d exactly eps away from 0 and from 1, and just past those
            for d in (dv, eps, 1 - eps, eps + Fraction(1, 1000), 1 - eps - Fraction(1, 1000),
                      Fraction(1, 2)):
                seed = derive_seed(idx, len(name))
                got = irregularity_witness(index, X, d, eps, 30, seed)
                assert got == list_witness(buckets, S, X, d, eps, 30, seed), (X, d, eps)


@pytest.mark.parametrize("name,H,S", WIDE, ids=WIDE_IDS)
def test_wide_reduced_graph_matches_the_list_oracle(name, H, S):
    for eps in EPSES:
        got = build_reduced_graph(H, S, Fraction(1, 20), eps, 20, seed=len(name))
        assert got == list_reduced_graph(H, S, Fraction(1, 20), eps, 20, seed=len(name))


@pytest.mark.parametrize("m", [*range(1, 101), 170])
def test_drawn_positions_match_the_stdlib(m):
    # 1..21 always take sample's pool, 22..85 take its set rejection for
    # k <= 5, 86.. also for 6 <= k <= 21; 170 is the cluster size of the
    # 1,020-vertex host in test_guided_search_depth.py
    for seed in range(200):
        rng, mirror = random.Random(seed), random.Random(seed)
        for _ in range(3):
            expected = rng.sample(range(m), rng.randint(1, m))
            assert slices._draw_positions(mirror.getrandbits, m) == expected, seed
        assert mirror.getstate() == rng.getstate()


def test_constant_polyads_draw_nothing(monkeypatch):
    H = complete_3graph(13)
    S = build_weak_slice(H, 4, seed=3)
    complete, empty = ClusterIndex(H, S), ClusterIndex(Hypergraph3(13, []), S)
    eps = Fraction(3, 10)
    # a deviating constant polyad is still searched, with the oracle's draws
    expected = list_witness(list_buckets(H, S), S, (0, 1, 2), Fraction(1, 2), eps, 40, 9)
    assert expected is not None
    assert irregularity_witness(complete, (0, 1, 2), Fraction(1, 2), eps, 40, 9) == expected

    def no_draws(seed):
        raise AssertionError("a constant polyad within eps of d drew a sample")

    monkeypatch.setattr(slices.random, "Random", no_draws)
    for X in itertools.combinations(range(S.t), 3):
        assert irregularity_witness(complete, X, Fraction(1), eps, 40, 9) is None
        assert irregularity_witness(complete, X, 1 - eps, eps, 40, 9) is None
        assert irregularity_witness(empty, X, Fraction(0), eps, 40, 9) is None
        assert irregularity_witness(empty, X, eps, eps, 40, 9) is None
    with pytest.raises(AssertionError):
        irregularity_witness(complete, (0, 1, 2), Fraction(1, 2), eps, 40, 9)


# SHA-256 of run_pipeline(...).canonical_json(), recorded with the oracle
# counting core; (host, t, samples, seed) as in test_pipeline.py and the
# pipeline determinism criterion, plus a host with n mod t != 0 on which
# three of the 84 cluster triples are labeled irregular.
PINNED = [
    (lambda: complete_3graph(30), 6, 40, 7,
     "4e6ad57095e9ab765e9fa0a5cc5fdc95c83900c16fdf55149bd7af1657667372"),
    (lambda: extremal(30, 6).hypergraph, 6, 40, 11,
     "dac43fb518e537c6e429459801275618087e661a0ca9866005d18a957c313d0c"),
    (lambda: random_3graph(60, 0.8, 42), 6, 40, 11,
     "fd0a760eacb7147f34a53c2f65c9d5b46d19420749286c247e8d7cc0707a2488"),
    (lambda: complete_3graph(12), 13, 10, 0,
     "81ff3371d6460b8b49a738b5e3bd292d1e0892b418d3c512bfa87fbe86f1a412"),
    (lambda: random_3graph(40, 0.5, 3), 9, 40, 5,
     "add10d6aaad347ae998ff45bd83d5fe5cd04eb191be216f4364124c34b9d77e9"),
]


@pytest.mark.parametrize("make,t,samples,seed,digest", PINNED,
                         ids=[f"t{p[1]}-seed{p[3]}-{i}" for i, p in enumerate(PINNED)])
def test_pipeline_canonical_digest_pinned(make, t, samples, seed, digest):
    report = run_pipeline(make(), t, Fraction(1, 20), 0.25, samples, seed=seed)
    assert hashlib.sha256(report.canonical_json().encode()).hexdigest() == digest
