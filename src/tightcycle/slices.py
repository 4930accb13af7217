"""Cluster partitions, relative densities, reduced graphs, and the degree
inheritance inequality.

A weak slice is a seeded random equipartition of the vertex set into t
clusters of equal size m (after deleting the n mod t remainder), with
complete bipartite pair graphs between clusters.  It stands in for a
genuine regular partition at desk scale.  A ClusterIndex stores, in one
pass over H, each cluster triple's polyad as an int bitset over its m^3
crossing triples; the pass keys the polyads by one int per cluster triple
and turns the keys into sorted triples once at the end.  The per-triple
queries read the index: relative_density gives exact rational densities
(a popcount over m^3), sub_polyad_density and the witness search count a
sub-polyad with one mask, one AND and one popcount, and
irregularity_witness gives "regular" labels from a sampled search for
deviating induced sub-polyads, which is one-sided evidence only.  The
search draws positions straight from random.Random.getrandbits with the
algorithms of CPython's randint and sample, so it draws exactly what
rng.sample(range(m), rng.randint(1, m)) would; the tests hold the two
equal draw for draw.  An empty or complete polyad, whose every sub-polyad
has density 0 or 1, is searched only when that density deviates from the
reference by more than eps.  eps is an exact rational and every comparison
with it is made in integers.  build_reduced_graph builds one index and calls
relative_density and irregularity_witness for every triple; there is no
other reduce path.  One pass over the triples tallies each cluster's counts
for reduced_degree_check, which checks deg(Y; R_d) >= deg(Y; R) - d -
zeta(Y) for every cluster Y: a counting fact that must hold for every
density/label configuration, however adversarial.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, lcm, log
from typing import Iterable, Sequence

from .errors import InvalidArgumentError
from .generators import derive_seed
from .hypergraph import Hypergraph3

Triple = tuple[int, int, int]  # sorted triple of 0-based cluster ids


@dataclass(frozen=True)
class WeakSlice:
    """Equipartition of [1, n] minus a deleted remainder into t clusters,
    with complete bipartite pair graphs between clusters."""

    n: int
    clusters: tuple[tuple[int, ...], ...]
    deleted_vertices: tuple[int, ...]

    @property
    def t(self) -> int:
        return len(self.clusters)

    @property
    def m(self) -> int:
        return len(self.clusters[0]) if self.clusters else 0

    def cluster_lookup(self) -> dict[int, int]:
        """vertex -> cluster id; deleted vertices are absent."""
        out: dict[int, int] = {}
        for cid, cl in enumerate(self.clusters):
            for v in cl:
                out[v] = cid
        return out

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "m": self.m,
            "clusters": [list(c) for c in self.clusters],
            "deleted": list(self.deleted_vertices),
        }


def _check_t(t: int) -> None:
    if t < 3:
        raise InvalidArgumentError(f"need t >= 3, got {t}")


def build_weak_slice(H: Hypergraph3, t: int, seed: int) -> WeakSlice:
    """Seeded uniform equipartition with complete pair graphs."""
    _check_t(t)
    if t > H.n:
        raise InvalidArgumentError(f"t={t} exceeds n={H.n}")
    rng = random.Random(seed)
    order = list(range(1, H.n + 1))
    rng.shuffle(order)
    r = H.n % t
    deleted = tuple(sorted(order[:r]))
    rest = order[r:]
    m = len(rest) // t
    clusters = tuple(tuple(sorted(rest[i * m : (i + 1) * m])) for i in range(t))
    return WeakSlice(n=H.n, clusters=clusters, deleted_vertices=deleted)


def _check_triple(S: WeakSlice, X: Iterable[int]) -> Triple:
    xs = tuple(sorted(X))
    if len(xs) != 3 or len(set(xs)) != 3:
        raise InvalidArgumentError(f"X must be 3 distinct clusters, got {xs}")
    if xs[0] < 0 or xs[-1] >= S.t:
        raise InvalidArgumentError(f"cluster ids {xs} not inside [0, {S.t - 1}]")
    return xs  # type: ignore[return-value]


def _check_d(d_threshold) -> None:
    """A density threshold or reference density: d in [0, 1]."""
    if not 0 <= d_threshold <= 1:
        raise InvalidArgumentError(f"d must be in [0,1], got {d_threshold}")


def _check_eps(eps) -> Fraction:
    """eps in (0, 1), returned as an exact rational."""
    if not 0 < eps < 1:  # also rejects nan and inf
        raise InvalidArgumentError(f"eps must be in (0,1), got {eps}")
    return Fraction(eps)


def _check_search(eps, samples: int) -> Fraction:
    """eps in (0, 1) and at least one sample; returns eps as an exact rational."""
    eps = _check_eps(eps)
    if samples < 1:
        raise InvalidArgumentError(f"samples must be >= 1, got {samples}")
    return eps


class ClusterIndex:
    """The polyads of H over a slice S, built in one pass over H; every
    per-triple query below reads it.

    Vertex v of cluster c at position p has slot c*m + p.  The polyad of a
    sorted cluster triple is one int: the edge whose vertices sit at
    positions pa, pb, pc of its three clusters (in cluster order) sets bit
    (pa*m + pb)*m + pc.  Edges touching a deleted vertex or meeting a cluster
    twice belong to no triple and are dropped.  The pass keys the polyads
    by the int (i*t + j)*t + k and turns each key present into the triple
    (i, j, k) once, at the end.
    """

    __slots__ = ("S", "slot", "polyads")

    def __init__(self, H: Hypergraph3, S: WeakSlice):
        m = S.m
        if any(len(cl) != m for cl in S.clusters):
            raise InvalidArgumentError("the clusters of a slice must all have size m")
        slot = [-1] * (max(H.n, S.n) + 1)
        for cid, cl in enumerate(S.clusters):
            for p, v in enumerate(cl):
                slot[v] = cid * m + p
        t = S.t
        split = [divmod(s, m) for s in range(t * m)]  # slot -> (cluster, position)
        polyads: dict[int, int] = {}  # keyed by (i*t + j)*t + k while building
        for a, b, c in H.edges:
            sa, sb, sc = slot[a], slot[b], slot[c]
            if sa > sb:
                sa, sb = sb, sa
            if sb > sc:
                sb, sc = sc, sb
                if sa > sb:
                    sa, sb = sb, sa
            if sa < 0:
                continue
            (i, pa), (j, pb), (k, pc) = split[sa], split[sb], split[sc]
            if i != j and j != k:
                key = (i * t + j) * t + k
                polyads[key] = polyads.get(key, 0) | 1 << ((pa * m + pb) * m + pc)
        self.S = S
        self.slot = slot
        self.polyads = {
            (key // (t * t), key // t % t, key % t): polyad for key, polyad in polyads.items()
        }


def _sub_count(polyad: int, m: int, P: Sequence[int], Q: Sequence[int],
               R: Sequence[int]) -> tuple[int, int]:
    """Edges of a polyad inside the positions P x Q x R of its clusters (each
    without repeats), and the number of crossing triples those positions span."""
    c = sum(1 << z for z in R)
    bc = sum(c << y * m for y in Q)
    abc = sum(bc << x * m * m for x in P)
    return (polyad & abc).bit_count(), len(P) * len(Q) * len(R)


def _draw_positions(getrandbits, m: int) -> list[int]:
    """The positions rng.sample(range(m), rng.randint(1, m)) returns, drawn
    from rng.getrandbits exactly as CPython's random.Random draws them.

    randint(1, m) is 1 + _randbelow(m), and _randbelow(n) redraws
    getrandbits(n.bit_length()) until the value is below n.  sample takes k
    positions by swapping through a pool of range(m) when m is at most its
    set size, 21 plus 4 ** ceil(log(3k, 4)) when k > 5, and otherwise redraws
    each position until it is new.
    """
    bits = m.bit_length()
    k = getrandbits(bits)
    while k >= m:
        k = getrandbits(bits)
    k += 1
    setsize = 21
    if k > 5 and m > setsize:  # at m <= 21 the pool is taken whatever k is
        setsize += 4 ** ceil(log(k * 3, 4))
    if m > setsize:
        out: list[int] = []
        chosen: set[int] = set()
        for _ in range(k):
            j = getrandbits(bits)
            while j >= m or j in chosen:
                j = getrandbits(bits)
            chosen.add(j)
            out.append(j)
        return out
    pool = list(range(m))
    out = []
    for n in range(m, m - k, -1):
        bits = n.bit_length()
        j = getrandbits(bits)
        while j >= n:
            j = getrandbits(bits)
        out.append(pool[j])
        pool[j] = pool[n - 1]
    return out


def relative_density(index: ClusterIndex, X: Iterable[int]) -> Fraction:
    """Fraction of the m^3 crossing triples over X that are edges of H.

    Always an exact rational; an empty polyad has density 0 by convention.
    """
    S = index.S
    xs = _check_triple(S, X)
    den = S.m ** 3
    return Fraction(index.polyads.get(xs, 0).bit_count(), den) if den else Fraction(0)


def sub_polyad_density(
    index: ClusterIndex,
    X: Iterable[int],
    subsets: Sequence[Sequence[int]],
) -> Fraction:
    """Density of the sub-polyad induced by one vertex subset per cluster of X."""
    S = index.S
    xs = _check_triple(S, X)
    if len(subsets) != 3:
        raise InvalidArgumentError(f"need one subset per cluster of X, got {len(subsets)}")
    positions = []
    for cid, sub in zip(xs, subsets):
        vs = set(sub)
        if not vs <= set(S.clusters[cid]):
            raise InvalidArgumentError(f"subset {sub} not inside cluster {cid}")
        positions.append([index.slot[v] - cid * S.m for v in vs])
    num, den = _sub_count(index.polyads.get(xs, 0), S.m, *positions)
    return Fraction(num, den) if den else Fraction(0)


@dataclass(frozen=True)
class IrregularityWitness:
    """A re-verifiable deviation: an induced sub-polyad whose density differs
    from the reference by more than eps while supporting enough triples."""

    X: Triple
    subsets: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    observed_density: Fraction
    reference_density: Fraction | float
    eps: Fraction


def irregularity_witness(
    index: ClusterIndex,
    X: Iterable[int],
    d,
    eps: Fraction,
    samples: int,
    seed: int,
) -> IrregularityWitness | None:
    """Sampled search for a witness that the polyad over X is not eps-regular.

    Makes `samples` draws of a vertex-subset-induced sub-polyad Q, each
    subset of a uniformly random size from 1 to m, and returns the first
    drawn Q with |K_3(Q)| > eps * |K_3(polyad)| whose density deviates from
    d by more than eps.  A draw that fails the support test is skipped
    uncounted, and it has still consumed its randomness: at eps 1/4 and
    small m most draws are skipped, so far fewer than `samples` sub-polyads
    are tested.  Both tests are exact.  Returning None is NOT a proof of
    regularity, only absence of sampled evidence.
    """
    S = index.S
    xs = _check_triple(S, X)
    _check_d(d)
    eps = _check_search(eps, samples)
    # the support and deviation tests are cross-multiplied over positive
    # denominators, in integers, so no rounding can make or skip a witness
    dn, dd = Fraction(d).as_integer_ratio()
    en, ed = eps.as_integer_ratio()
    m = S.m
    full_support = m ** 3
    polyad = index.polyads.get(xs, 0)
    complete = (1 << full_support) - 1
    if polyad in (0, complete):
        # every sub-polyad then has the same density, 0 or 1, so when that is
        # within eps of d no draw can give a witness
        delta = int(polyad == complete)
        if abs(delta * dd - dn) * ed <= en * dd:
            return None
    getrandbits = random.Random(seed).getrandbits
    for _ in range(samples):
        # sampling positions draws exactly as sampling the cluster would
        P = _draw_positions(getrandbits, m)
        Q = _draw_positions(getrandbits, m)
        R = _draw_positions(getrandbits, m)
        if len(P) * len(Q) * len(R) * ed <= en * full_support:
            continue
        num, den = _sub_count(polyad, m, P, Q, R)
        if abs(num * dd - dn * den) * ed > en * den * dd:
            return IrregularityWitness(
                X=xs,
                subsets=tuple(tuple(sorted(S.clusters[cid][p] for p in ps))
                              for cid, ps in zip(xs, (P, Q, R))),
                observed_density=Fraction(num, den),
                reference_density=d,
                eps=eps,
            )
    return None


@dataclass(frozen=True)
class ReducedGraph:
    """Weighted reduced 3-graph on clusters plus regularity labels.

    densities maps every 3-set of clusters to its relative density; the
    thresholded reduced graph keeps the triples that are labeled regular
    and have density at least d_threshold.
    """

    t: int
    m: int
    densities: dict[Triple, Fraction]
    regular: dict[Triple, bool]
    d_threshold: Fraction

    def __post_init__(self):
        _check_t(self.t)
        expected = set(itertools.combinations(range(self.t), 3))
        if set(self.densities) != expected or set(self.regular) != expected:
            raise InvalidArgumentError("densities/regular must cover all cluster triples")
        for X, dv in self.densities.items():
            if not 0 <= dv <= 1:
                raise InvalidArgumentError(f"density {dv} at {X} outside [0,1]")

    def thresholded_edges(self) -> list[Triple]:
        return [
            X
            for X in sorted(self.densities)
            if self.regular[X] and self.densities[X] >= self.d_threshold
        ]

    def to_json_dict(self) -> dict:
        # colex order: sort by reversed triple
        triples = sorted(self.densities, key=lambda X: tuple(reversed(X)))
        return {
            "t": self.t,
            "m": self.m,
            "d_threshold": str(self.d_threshold),
            "triples": [
                {
                    "X": list(X),
                    "d": str(self.densities[X]),
                    "regular": self.regular[X],
                }
                for X in triples
            ],
        }


@dataclass(frozen=True)
class ClusterDegreeReport:
    cluster: int
    lhs: Fraction  # relative degree in the thresholded reduced graph
    rhs: Fraction  # weighted relative degree - d - zeta
    ok: bool


def _cluster_tallies(R: ReducedGraph) -> tuple[list[Fraction], list[int], list[int]]:
    """Per cluster, in one pass over the triples containing it: the density
    sum, the edges of the thresholded reduced graph and the irregular triples.
    The sums are kept as integers over the densities' common denominator."""
    scale = lcm(*(dv.denominator for dv in R.densities.values()))
    weight, kept, irregular = [0] * R.t, [0] * R.t, [0] * R.t
    for X, dv in R.densities.items():
        w = dv.numerator * (scale // dv.denominator)
        ok = R.regular[X]
        edge = ok and dv >= R.d_threshold
        for Y in X:
            weight[Y] += w
            kept[Y] += edge
            irregular[Y] += not ok
    return [Fraction(w, scale) for w in weight], kept, irregular


def reduced_degree_check(R: ReducedGraph) -> list[ClusterDegreeReport]:
    """Per-cluster check of deg(Y; R_d) >= deg(Y; R) - d - zeta(Y).

    This is a counting identity over the stored densities and labels; it
    must hold for every configuration, which is exactly what the verifier
    campaigns assert.
    """
    weight, kept, irregular = _cluster_tallies(R)
    pairs = comb(R.t - 1, 2)
    out = []
    for Y in range(R.t):
        lhs = Fraction(kept[Y], pairs)
        rhs = (weight[Y] - irregular[Y]) / pairs - R.d_threshold
        out.append(ClusterDegreeReport(cluster=Y, lhs=lhs, rhs=rhs, ok=lhs >= rhs))
    return out


def build_reduced_graph(
    H: Hypergraph3,
    S: WeakSlice,
    d_threshold: Fraction,
    eps: Fraction,
    samples: int,
    seed: int,
) -> ReducedGraph:
    """Measure all triple densities and label regularity by witness search,
    through relative_density and irregularity_witness on one ClusterIndex.

    A triple is labeled regular iff no deviating sub-polyad was found in
    `samples` draws against its own measured density (one-sided evidence).
    """
    _check_d(d_threshold)
    eps = _check_search(eps, samples)
    index = ClusterIndex(H, S)
    densities: dict[Triple, Fraction] = {}
    regular: dict[Triple, bool] = {}
    for idx, X in enumerate(itertools.combinations(range(S.t), 3)):
        dv = densities[X] = relative_density(index, X)
        w = irregularity_witness(index, X, dv, eps, samples, derive_seed(seed, idx))
        regular[X] = w is None
    return ReducedGraph(
        t=S.t, m=S.m, densities=densities, regular=regular, d_threshold=d_threshold
    )


def good_clusters(R: ReducedGraph, eps) -> tuple[int, ...]:
    """Clusters in fewer than 2 sqrt(eps) C(t,2) irregular triples (compared
    squared, in integers), trimmed largest-id-first to a multiple of 3."""
    en, ed = _check_eps(eps).as_integer_ratio()
    cap = 4 * en * comb(R.t, 2) ** 2
    irregular = _cluster_tallies(R)[2]
    kept = [Y for Y in range(R.t) if irregular[Y] ** 2 * ed < cap]
    while len(kept) % 3 != 0:
        kept.pop()  # kept is ascending, so this removes the largest id
    return tuple(kept)
