"""Tight-cycle validation, exact longest tight cycle, and a matching-guided
heuristic builder.

A tight cycle is a cyclic sequence of distinct vertices in which every
window of three consecutive vertices is an edge.  Length equals vertex
count.  Cycles shorter than 4 are rejected: a lone edge would otherwise be
a degenerate 3-cycle, which is flagged distinctly by the validator.

The exact solver is a bitmask DP over states (visited set, last two
vertices), with the smallest cycle vertex pinned as the start to kill
rotational symmetry.  Closing the cycle needs the second vertex of the
sequence, which the DP does not carry in its key; instead each state holds
the bitmask of second vertices realizable for it, which closure intersects
with the completions of the seam pair.  A state (mask, a, b) is one int,
mask << 10 | a << 5 | b (bit v-1 of mask for vertex v), and the completions
of a pair are a list lookup comp[a][b], so a transition builds no tuple;
int keys also take about 30 % less memory than tuple keys.  The passes, their
order and the cycle returned are those of the earlier tuple-keyed DP.  Memory
is the price: the budget is n <= 22, and dense instances get slow well
before that.

The heuristic mirrors the reduced-graph pipeline: it first plans a closed
cluster walk that visits each cluster according to the fractional matching
weights (windows constrained to thresholded reduced-graph triples), then
instantiates the plan with distinct vertices by seeded backtracking.  No
success guarantee is claimed; failures report the longest tight path found.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidArgumentError, InvariantViolation, SizeLimitError
from .fractional import FractionalMatching
from .generators import derive_seed
from .hypergraph import Hypergraph3
from .slices import ReducedGraph, Triple, WeakSlice
from .tight import tight_components

# A DP state (mask, a, b) is packed as mask << 10 | a << 5 | b, so its two
# vertex fields are 5 bits wide; that holds because DP_MAX_N = 22 < 32.
DP_MAX_N = 22
MIN_CYCLE_LENGTH = 4

# Matching-guided heuristic: step budgets of the cluster-walk planner and of
# the vertex backtracking per restart, the scales (exact tenths) tried,
# largest first, on the per-cluster targets, and the seeded restarts per scale.
PLAN_BUDGET = 200_000
VERTEX_BUDGET = 400_000
QUOTA_SCALES = tuple(Fraction(k, 10) for k in range(10, 3, -1))
RESTARTS = 8


@dataclass(frozen=True)
class TightCycle:
    order: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.order)

    def to_json_dict(self, coverage: dict[int, int] | None = None) -> dict:
        out = {"length": self.length, "order": list(self.order), "valid": True}
        if coverage is not None:
            out["coverage"] = {str(k): v for k, v in sorted(coverage.items())}
        return out


@dataclass(frozen=True)
class CycleValidation:
    valid: bool
    reason: str | None = None
    window: tuple[int, int, int] | None = None
    vertex: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "valid": self.valid,
            "reason": self.reason,
            "window": list(self.window) if self.window else None,
            "vertex": self.vertex,
        }


def validate_cycle(H: Hypergraph3, seq) -> CycleValidation:
    """Check the tight-cycle invariants, reporting the first failure."""
    order = tuple(seq)
    if len(order) == 3:
        return CycleValidation(False, reason="degenerate-length-3")
    if len(order) < MIN_CYCLE_LENGTH:
        return CycleValidation(False, reason="too-short")
    seen: set[int] = set()
    for v in order:
        if not 1 <= v <= H.n:
            return CycleValidation(False, reason="vertex-out-of-range", vertex=v)
        if v in seen:
            return CycleValidation(False, reason="duplicate-vertex", vertex=v)
        seen.add(v)
    ell = len(order)
    for i in range(ell):
        w = (order[i], order[(i + 1) % ell], order[(i + 2) % ell])
        if w not in H:
            return CycleValidation(False, reason="missing-window", window=w)
    return CycleValidation(True)


def _bits(x: int):
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def _completions(H: Hypergraph3) -> list[list[int]]:
    """comp[a][b] == comp[b][a]: bitmask of the c with {a, b, c} an edge
    (bit v-1 for vertex v), over rows and columns 0..n."""
    comp = [[0] * (H.n + 1) for _ in range(H.n + 1)]
    for a, b, c in H.edges:
        comp[a][b] = comp[b][a] = comp[a][b] | 1 << (c - 1)
        comp[a][c] = comp[c][a] = comp[a][c] | 1 << (b - 1)
        comp[b][c] = comp[c][b] = comp[b][c] | 1 << (a - 1)
    return comp


def longest_tight_cycle(H: Hypergraph3) -> TightCycle | None:
    """Exact maximum-length tight cycle, or None when no cycle of length >= 4
    exists.  Refuses n > 22; use the matching-guided heuristic beyond that."""
    n = H.n
    if n > DP_MAX_N:
        raise SizeLimitError(
            f"exact cycle DP budget is n <= {DP_MAX_N}; got n = {n}. "
            "Use matching_guided_cycle for larger instances."
        )
    if not H.edges:
        return None
    comp = _completions(H)

    best_len = 0
    best_state: tuple[int, int, int] | None = None  # s, key, q
    best_levels: list[dict[int, int]] | None = None

    for s in range(1, n + 1):
        if n - s + 1 <= best_len or n - s + 1 < MIN_CYCLE_LENGTH:
            break
        sbit = 1 << (s - 1)
        allowed = ((1 << n) - 1) & ~(sbit - 1)  # vertices >= s
        comp_s = comp[s]
        level: dict[int, int] = {}
        for q in range(s + 1, n + 1):
            if comp_s[q] & allowed:
                level[(sbit | 1 << (q - 1)) << 10 | s << 5 | q] = 1 << (q - 1)
        levels: list[dict[int, int]] = [{}, {}, level]  # index by path length
        ell = 2
        found_here = False
        while level:
            nxt: dict[int, int] = {}
            get = nxt.get
            closing = ell >= MIN_CYCLE_LENGTH and ell > best_len
            for key, qm in level.items():
                b = key & 31
                cab = comp[key >> 5 & 31][b]
                if closing and cab & sbit:
                    qs = qm & comp_s[b]
                    if qs:
                        best_len = ell
                        best_state = (s, key, qs & -qs)
                        best_levels = levels
                        found_here = True
                        closing = False
                # A completion c, low = bit c-1, leads to (mask | low, b, c):
                # base packs mask and the new a = b; low.bit_length() == c.
                ext = cab & allowed & ~(key >> 10)
                if ext:
                    base = key & ~1023 | b << 5
                    while ext:
                        low = ext & -ext
                        k = base | low << 10 | low.bit_length()
                        nxt[k] = get(k, 0) | qm
                        ext ^= low
            levels.append(nxt)
            level = nxt
            ell += 1
        if found_here and best_len == n:
            break

    if best_state is None:
        return None
    assert best_levels is not None
    s, key, qbit = best_state
    mask, a, b = key >> 10, key >> 5 & 31, key & 31
    rev = [b, a]
    lvl = best_len
    while lvl > 2:
        prev_mask = mask & ~(1 << (b - 1))
        prev = best_levels[lvl - 1]
        cands = comp[a][b] & prev_mask & ~(1 << (a - 1))
        for x in _bits(cands):
            qm = prev.get(prev_mask << 10 | (x + 1) << 5 | a)
            if qm is not None and qm & qbit:
                rev.append(x + 1)
                mask, a, b = prev_mask, x + 1, a
                break
        else:
            raise InvariantViolation("cycle reconstruction lost the trail", witness=best_state)
        lvl -= 1
    rev.reverse()  # the lvl == 3 step appended s itself, completing the order
    cycle = TightCycle(tuple(rev))
    check = validate_cycle(H, cycle.order)
    if not check.valid:
        raise InvariantViolation(f"DP produced an invalid cycle: {check}", witness=cycle.order)
    return cycle


def brute_force_longest_cycle(H: Hypergraph3) -> TightCycle | None:
    """Oracle: enumerate tight paths (start pinned at the minimum vertex) and
    record the longest closable one.  Exponential; intended for n <= 9."""
    n = H.n
    best: tuple[int, tuple[int, ...]] | None = None

    def dfs(seq: list[int], used: set[int]):
        nonlocal best
        ell = len(seq)
        if ell >= MIN_CYCLE_LENGTH:
            if (seq[-2], seq[-1], seq[0]) in H and (seq[-1], seq[0], seq[1]) in H:
                if best is None or ell > best[0]:
                    best = (ell, tuple(seq))
        for v in range(seq[0] + 1, n + 1):
            if v in used:
                continue
            if ell >= 2 and (seq[-2], seq[-1], v) not in H:
                continue
            seq.append(v)
            used.add(v)
            dfs(seq, used)
            seq.pop()
            used.remove(v)

    for start in range(1, n - MIN_CYCLE_LENGTH + 2):
        dfs([start], {start})
    if best is None:
        return None
    cycle = TightCycle(best[1])
    check = validate_cycle(H, cycle.order)
    if not check.valid:
        raise InvariantViolation(f"oracle produced an invalid cycle: {check}")
    return cycle


# ---------------------------------------------------------------------------
# Matching-guided heuristic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CycleSearchResult:
    cycle: TightCycle | None
    coverage: dict[int, int]
    targets: dict[int, int]
    scale_used: float | None
    longest_path: tuple[int, ...]
    detail: str

    @property
    def success(self) -> bool:
        return self.cycle is not None


def _plan_cluster_walk(
    rd_triples: frozenset[Triple], quotas: dict[int, int], budget: int
) -> tuple[int, ...] | None:
    """Search for a cyclic cluster sequence hitting each quota exactly, with
    every cyclic window a thresholded reduced-graph triple.  Ties prefer the
    cluster with the most remaining visits (least used relative to quota)."""
    active = sorted(c for c, q in quotas.items() if q > 0)
    total = sum(quotas[c] for c in active)
    if total < MIN_CYCLE_LENGTH or not active:
        return None
    remaining = dict(quotas)
    start = active[0]
    seq = [start]
    remaining[start] -= 1
    steps = 0

    def window_ok(x: int, y: int, z: int) -> bool:
        if x == y or y == z or x == z:
            return False
        return tuple(sorted((x, y, z))) in rd_triples

    def dfs() -> bool:
        nonlocal steps
        steps += 1
        if steps > budget:
            return False
        if len(seq) == total:
            return window_ok(seq[-2], seq[-1], seq[0]) and window_ok(seq[-1], seq[0], seq[1])
        cands = [
            c
            for c in active
            if remaining[c] > 0
            and (len(seq) < 2 or window_ok(seq[-2], seq[-1], c))
        ]
        cands.sort(key=lambda c: (-remaining[c], c))
        for c in cands:
            seq.append(c)
            remaining[c] -= 1
            if dfs():
                return True
            seq.pop()
            remaining[c] += 1
        return False

    if dfs():
        return tuple(seq)
    return None


def _instantiate_plan(
    H: Hypergraph3,
    clusters: tuple[tuple[int, ...], ...],
    plan: tuple[int, ...],
    rng: random.Random,
    budget: int,
) -> tuple[tuple[int, ...] | None, tuple[int, ...]]:
    """Assign distinct vertices to a cyclic cluster plan by backtracking.

    Returns (cycle order or None, longest tight path prefix reached).
    """
    L = len(plan)
    pools: dict[int, list[int]] = {}
    for c in set(plan):
        pool = list(clusters[c])
        rng.shuffle(pool)
        pools[c] = pool
    choice: list[int] = []
    used: set[int] = set()
    best_prefix: tuple[int, ...] = ()
    steps = 0

    def ok(a: int, b: int, c: int) -> bool:
        return (a, b, c) in H

    def dfs(pos: int) -> bool:
        nonlocal steps, best_prefix
        if pos == L:
            return True
        for v in pools[plan[pos]]:
            steps += 1
            if steps > budget:
                return False
            if v in used:
                continue
            if pos >= 2 and not ok(choice[pos - 2], choice[pos - 1], v):
                continue
            if pos == L - 1:
                if not ok(choice[pos - 1], v, choice[0]):
                    continue
                if not ok(v, choice[0], choice[1]):
                    continue
            choice.append(v)
            used.add(v)
            if len(choice) > len(best_prefix):
                best_prefix = tuple(choice)
            if dfs(pos + 1):
                return True
            choice.pop()
            used.remove(v)
            if steps > budget:
                return False
        return False

    if dfs(0):
        return tuple(choice), best_prefix
    return None, best_prefix


def matching_guided_cycle(
    H: Hypergraph3,
    S: WeakSlice,
    R: ReducedGraph,
    M: FractionalMatching,
    seed: int,
) -> CycleSearchResult:
    """Grow a long tight cycle guided by a fractional matching on the reduced
    graph.

    M lives on the reduced graph viewed as a 3-graph whose vertices are the
    clusters numbered 1..t; its support must consist of thresholded triples
    and be tightly connected among them.  The per-cluster target is the
    combined matching weight of triples containing the cluster times the
    cluster size.  Each quota scale gets RESTARTS vertex searches, seeded
    from `seed`.  The returned cycle (if any) is validator-checked before
    being returned; failures carry the longest tight path found.
    """
    if M.n != R.t:
        raise InvalidArgumentError(f"matching is on {M.n} vertices, not the {R.t} clusters")
    rd = frozenset(R.thresholded_edges())
    rd_view = Hypergraph3(R.t, [tuple(c + 1 for c in X) for X in sorted(rd)])

    support = sorted(M.weights)
    if not support:
        raise InvalidArgumentError("matching has empty support")
    for e in support:
        X = tuple(sorted(c - 1 for c in e))
        if X not in rd:
            raise InvalidArgumentError(f"support triple {e} is not a thresholded triple")
    labeling = tight_components(rd_view)
    labels = {labeling.labels[e] for e in support}
    if len(labels) != 1:
        raise InvalidArgumentError(
            f"matching support spans {len(labels)} tight components of the reduced graph"
        )

    m = S.m
    loads = M.vertex_loads()
    targets = {c - 1: min(m, round(load * m)) for c, load in loads.items() if load > 0}

    lookup = S.cluster_lookup()

    def coverage(vertices) -> dict[int, int]:
        return dict(Counter(lookup[v] for v in vertices))

    longest: tuple[int, ...] = ()
    for si, scale in enumerate(QUOTA_SCALES):
        quotas = {c: min(m, math.floor(q * scale)) for c, q in targets.items()}
        quotas = {c: q for c, q in quotas.items() if q > 0}
        if sum(quotas.values()) < MIN_CYCLE_LENGTH:
            continue
        plan = _plan_cluster_walk(rd, quotas, PLAN_BUDGET)
        if plan is None:
            continue
        for restart in range(RESTARTS):
            rng = random.Random(derive_seed(seed, si, restart))
            order, prefix = _instantiate_plan(H, S.clusters, plan, rng, VERTEX_BUDGET)
            if len(prefix) > len(longest):
                longest = prefix
            if order is not None:
                cycle = TightCycle(order)
                check = validate_cycle(H, cycle.order)
                if not check.valid:
                    raise InvariantViolation(
                        f"heuristic produced an invalid cycle: {check}", witness=order
                    )
                return CycleSearchResult(
                    cycle=cycle,
                    coverage=coverage(order),
                    targets=targets,
                    scale_used=float(scale),
                    longest_path=prefix,
                    detail=f"cycle of length {cycle.length} at quota scale {float(scale)}",
                )
    return CycleSearchResult(
        cycle=None,
        coverage=coverage(longest),
        targets=targets,
        scale_used=None,
        longest_path=longest,
        detail=f"no cycle closed; longest tight path has {len(longest)} vertices",
    )
