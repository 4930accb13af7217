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
mask << 10 | a << 5 | b (bit v-1 of mask for vertex v); int keys take about
30 % less memory than tuple keys.  For each start s the host's pair table
H.completions (read only after the size and no-edge checks), masked to the
vertices >= s, is laid out flat and indexed by the key's 10-bit (a, b)
field, key & 1023.  The completions c of a state's last pair are listed by
two tables indexed by the low and the high half of that bitmask, each entry
a tuple of ints bit(c) << 10 | c in ascending c, so a successor key is one
OR and a transition builds no tuple.  A new successor state shares its
parent's int of second vertices, and an old one is written back only when
the parent adds a bit to it.  Since c ascends, states are inserted in the
order of the earlier tuple-keyed DP, and the passes, their order and the
cycle returned are its own.  Memory is the price: the budget is n <= 22,
and dense instances get slow well before that.

The heuristic mirrors the reduced-graph pipeline: it plans a closed cluster
walk that visits each cluster according to the fractional matching weights
(windows constrained to thresholded reduced-graph triples) in at most
PLAN_BUDGET steps, then instantiates it with distinct vertices by seeded
backtracking, in at most VERTEX_BUDGET steps per restart.  Both searches are
loops over an explicit stack of untried candidates, so a plan's length is
not bounded by Python's recursion limit.  No success guarantee is claimed;
failures report the longest tight path found.
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
# vertex fields are 5 bits wide; that holds because DP_MAX_N = 22 < 32.  The
# 10-bit (a, b) field also indexes the DP's flat pair table, and the
# successor tables list c in ascending order, so states are created in the
# order of the earlier DP; a new state shares its parent's int of second
# vertices.
DP_MAX_N = 22
MIN_CYCLE_LENGTH = 4

# Matching-guided heuristic: the two step budgets, the scales (exact tenths,
# largest first) tried on the per-cluster targets, and the restarts per scale.
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


def _checked(H: Hypergraph3, order: tuple[int, ...], producer: str) -> TightCycle:
    """The cycle `order`, once validate_cycle has passed it on H."""
    check = validate_cycle(H, order)
    if not check.valid:
        raise InvariantViolation(f"{producer} produced an invalid cycle: {check}", witness=order)
    return TightCycle(order)


def _successor_table(lo: int, hi: int) -> list[tuple[int, ...]]:
    """Entry x lists, for each set bit i of x in ascending order, the vertex
    c = lo + i + 1 as the int 1 << (c - 1) << 10 | c: its mask bit already in
    a packed key's mask field, and c itself in the key's last field."""
    table = [()]
    for i in range(lo, hi):
        t = 1 << i << 10 | i + 1
        table += [row + (t,) for row in table]
    return table


def longest_tight_cycle(H: Hypergraph3) -> TightCycle | None:
    """Exact maximum-length tight cycle, or None when no cycle of length >= 4
    exists.  Refuses n > 22; use the matching-guided heuristic beyond that."""
    n = H.n
    if n > DP_MAX_N:
        raise SizeLimitError(
            f"exact cycle DP budget is n <= {DP_MAX_N}; got n = {n}. "
            "Use matching_guided_cycle (tcl pipeline) for larger instances."
        )
    if not H.edges:
        return None
    comp = H.completions
    # The vertices of a bitmask x over 1..n, ascending, are those of
    # low[x & half] followed by those of high[x >> h].
    h = (n + 1) // 2
    half = (1 << h) - 1
    low, high = _successor_table(0, h), _successor_table(h, n)

    best_len = 0
    best_state: tuple[int, int, int] | None = None  # s, key, q
    best_levels: list[dict[int, int]] | None = None

    for s in range(1, n + 1):
        if n - s + 1 <= best_len or n - s + 1 < MIN_CYCLE_LENGTH:
            break
        sbit = 1 << (s - 1)
        allowed = ((1 << n) - 1) & ~(sbit - 1)  # vertices >= s
        # flat[a << 5 | b] is comp[a][b] & allowed: indexed by key & 1023
        flat = [0] * 1024
        for a in range(1, n + 1):
            row = comp[a]
            for b in range(1, n + 1):
                flat[a << 5 | b] = row[b] & allowed
        comp_s = comp[s]
        level: dict[int, int] = {}
        for q in range(s + 1, n + 1):
            if flat[s << 5 | q]:
                level[(sbit | 1 << (q - 1)) << 10 | s << 5 | q] = 1 << (q - 1)
        levels: list[dict[int, int]] = [{}, {}, level]  # index by path length
        ell = 2
        while level:
            nxt: dict[int, int] = {}
            setdefault = nxt.setdefault
            closing = ell >= MIN_CYCLE_LENGTH and ell > best_len
            for key, qm in level.items():
                cab = flat[key & 1023]
                if closing and cab & sbit:
                    qs = qm & comp_s[key & 31]
                    if qs:
                        best_len = ell
                        best_state = (s, key, qs & -qs)
                        best_levels = levels
                        closing = False
                # A completion c leads to (mask | bit c-1, b, c): base packs
                # mask and the new a = b, and t packs bit c-1 and c.  A new
                # state shares qm; an old one is written only if qm adds a bit.
                ext = cab & ~(key >> 10)
                if ext:
                    base = key & ~1023 | (key & 31) << 5
                    for t in low[ext & half] + high[ext >> h]:
                        k = base | t
                        v = setdefault(k, qm)
                        w = v | qm
                        if w != v:
                            nxt[k] = w
            levels.append(nxt)
            level = nxt
            ell += 1

    if best_state is None:
        return None
    s, key, qbit = best_state
    mask, a, b = key >> 10, key >> 5 & 31, key & 31
    rev = [b, a]
    lvl = best_len
    while lvl > 2:
        prev_mask = mask & ~(1 << (b - 1))
        prev = best_levels[lvl - 1]
        cands = comp[a][b] & prev_mask & ~(1 << (a - 1))
        for t in low[cands & half] + high[cands >> h]:
            x = t & 31
            qm = prev.get(prev_mask << 10 | x << 5 | a)
            if qm is not None and qm & qbit:
                rev.append(x)
                mask, a, b = prev_mask, x, a
                break
        else:
            raise InvariantViolation("cycle reconstruction lost the trail", witness=best_state)
        lvl -= 1
    rev.reverse()  # the lvl == 3 step appended s itself, completing the order
    return _checked(H, tuple(rev), "DP")


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
    del dfs  # dfs refers to itself: free its closure, and with it H, now
    if best is None:
        return None
    return _checked(H, best[1], "oracle")


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
    rd_triples: frozenset[Triple], quotas: dict[int, int]
) -> tuple[int, ...] | None:
    """Search for a cyclic cluster sequence hitting each quota exactly, with
    every cyclic window a thresholded reduced-graph triple.  Ties prefer the
    cluster with the most remaining visits (least used relative to quota)."""
    active = sorted(quotas)
    total = sum(quotas.values())
    remaining = dict(quotas)
    seq = [active[0]]
    remaining[active[0]] -= 1
    steps = 0

    def window_ok(x: int, y: int, z: int) -> bool:
        return tuple(sorted((x, y, z))) in rd_triples

    # Depth-first: untried[i] holds the candidates not yet tried after the
    # first i + 1 clusters of seq.  Each sequence entered is one step.
    untried = []
    while True:
        steps += 1
        if steps > PLAN_BUDGET:
            return None
        if len(seq) == total and window_ok(seq[-2], seq[-1], seq[0]) and window_ok(seq[-1], seq[0], seq[1]):
            return tuple(seq)
        # none once len(seq) == total; most remaining visits first, and the
        # stable sort keeps ties in the ascending order of active
        cands = [c for c in active if remaining[c] > 0 and (len(seq) < 2 or window_ok(seq[-2], seq[-1], c))]
        cands.sort(key=remaining.__getitem__, reverse=True)
        untried.append(iter(cands))
        while (c := next(untried[-1], None)) is None:
            untried.pop()
            if not untried:
                return None
            remaining[seq.pop()] += 1
        seq.append(c)
        remaining[c] -= 1


def _instantiate_plan(
    H: Hypergraph3,
    clusters: tuple[tuple[int, ...], ...],
    plan: tuple[int, ...],
    rng: random.Random,
) -> tuple[tuple[int, ...] | None, tuple[int, ...]]:
    """Assign distinct vertices to a cyclic cluster plan by backtracking.

    Returns (cycle order or None, longest tight path prefix reached).
    """
    last = len(plan) - 1
    pools: dict[int, list[int]] = {}
    for c in set(plan):
        pool = list(clusters[c])
        rng.shuffle(pool)
        pools[c] = pool
    choice: list[int] = []
    used: set[int] = set()
    best_prefix: tuple[int, ...] = ()
    steps = 0
    # Depth-first: it holds the untried vertices of position pos's pool, and
    # untried those of the positions before it.
    untried = []
    pos = 0
    it = iter(pools[plan[0]])
    while True:
        for v in it:
            steps += 1
            if steps > VERTEX_BUDGET:
                return None, best_prefix
            if v in used:
                continue
            if pos >= 2 and (choice[pos - 2], choice[pos - 1], v) not in H:
                continue
            if pos == last:
                if (choice[pos - 1], v, choice[0]) in H and (v, choice[0], choice[1]) in H:
                    order = (*choice, v)
                    return order, order
                continue
            choice.append(v)
            used.add(v)
            if len(choice) > len(best_prefix):
                best_prefix = tuple(choice)
            untried.append(it)
            pos += 1
            it = iter(pools[plan[pos]])
            break
        else:
            if not pos:
                return None, best_prefix
            pos -= 1
            it = untried.pop()
            used.remove(choice.pop())


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
    thresholded = R.thresholded_edges()  # sorted
    rd = frozenset(thresholded)
    rd_view = Hypergraph3(R.t, [tuple(c + 1 for c in X) for X in thresholded])

    # a key names a set of three clusters, as in Hypergraph3.__contains__
    support = sorted(tuple(sorted(e)) for e in M.weights)
    if not support:
        raise InvalidArgumentError("matching has empty support")
    for e in support:
        if tuple(c - 1 for c in e) not in rd:
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
        quotas = {c: math.floor(q * scale) for c, q in targets.items() if q * scale >= 1}
        if sum(quotas.values()) < MIN_CYCLE_LENGTH:
            continue
        plan = _plan_cluster_walk(rd, quotas)
        if plan is None:
            continue
        for restart in range(RESTARTS):
            rng = random.Random(derive_seed(seed, si, restart))
            order, prefix = _instantiate_plan(H, S.clusters, plan, rng)
            if len(prefix) > len(longest):
                longest = prefix
            if order is not None:
                cycle = _checked(H, order, "heuristic")
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
