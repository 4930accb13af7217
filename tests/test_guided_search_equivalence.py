"""The guided cycle search's two loops against the recursive searches they
replaced.

`_recursive_plan_cluster_walk` and `_recursive_instantiate_plan` are the
earlier `cycles._plan_cluster_walk` and `cycles._instantiate_plan`, kept
here verbatim as oracles; they read this module's PLAN_BUDGET and
VERTEX_BUDGET, which each case sets to the value it gives the library's.
On a fixed seeded corpus the loops must return what the recursions return:
the same plan, and the same (cycle order, longest prefix) pair from the same
shuffled pools, at every budget from 1 step up to the default.
"""

from __future__ import annotations

import itertools
import random

import pytest

from tightcycle import cycles
from tightcycle.generators import random_3graph
from tightcycle.hypergraph import Hypergraph3
from tightcycle.slices import Triple

PLAN_BUDGET = cycles.PLAN_BUDGET
VERTEX_BUDGET = cycles.VERTEX_BUDGET


def _recursive_plan_cluster_walk(
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

    def dfs() -> bool:
        nonlocal steps
        steps += 1
        if steps > PLAN_BUDGET:
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

    found = dfs()
    del dfs  # dfs refers to itself: free its closure now, not at a later collection
    return tuple(seq) if found else None


def _recursive_instantiate_plan(
    H: Hypergraph3,
    clusters: tuple[tuple[int, ...], ...],
    plan: tuple[int, ...],
    rng: random.Random,
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

    def dfs(pos: int) -> bool:
        nonlocal steps, best_prefix
        if pos == L:
            return True
        for v in pools[plan[pos]]:
            steps += 1
            if steps > VERTEX_BUDGET:
                return False
            if v in used:
                continue
            if pos >= 2 and (choice[pos - 2], choice[pos - 1], v) not in H:
                continue
            if pos == L - 1:
                if (choice[pos - 1], v, choice[0]) not in H:
                    continue
                if (v, choice[0], choice[1]) not in H:
                    continue
            choice.append(v)
            used.add(v)
            if len(choice) > len(best_prefix):
                best_prefix = tuple(choice)
            if dfs(pos + 1):
                return True
            choice.pop()
            used.remove(v)
        return False

    found = dfs(0)
    del dfs  # dfs refers to itself: free its closure, and with it H, now
    return (tuple(choice) if found else None), best_prefix


BUDGETS = (1, 5, 50, 500, None)  # None: the library's default
CASES = 1000


def _case(i: int):
    """Case i: reduced triples, quotas and budgets for the planner, and a
    host, its clusters, a plan and budgets for the instantiation."""
    rng = random.Random(i)
    t = rng.randint(3, 8)
    keep = rng.choice((0.3, 0.6, 0.9, 1.0))
    rd = frozenset(X for X in itertools.combinations(range(t), 3) if rng.random() < keep)
    active = rng.sample(range(t), rng.randint(3, t))
    quotas = {c: rng.randint(1, 4) for c in active}
    m = rng.randint(1, 4)
    clusters = tuple(tuple(range(c * m + 1, c * m + m + 1)) for c in range(t))
    H = random_3graph(t * m, rng.choice((0.2, 0.5, 0.9, 1.0)), rng.randrange(2**32))
    budgets = (rng.choice(BUDGETS), rng.choice(BUDGETS))
    # a plan for the instantiation when the planner finds none: any sequence
    fallback = tuple(rng.choice(active) for _ in range(sum(quotas.values())))
    return rd, quotas, H, clusters, fallback, budgets, rng.randrange(2**32)


def _set_budgets(monkeypatch, plan_budget, vertex_budget):
    for name, value in (("PLAN_BUDGET", plan_budget), ("VERTEX_BUDGET", vertex_budget)):
        value = getattr(cycles, name) if value is None else value
        monkeypatch.setattr(cycles, name, value)
        monkeypatch.setitem(globals(), name, value)


def test_loops_match_the_recursive_searches(monkeypatch):
    outcomes = {"plans": 0, "cycles": 0, "prefix-only": 0}
    for i in range(CASES):
        rd, quotas, H, clusters, fallback, budgets, seed = _case(i)
        with monkeypatch.context() as mp:
            _set_budgets(mp, *budgets)
            plan = cycles._plan_cluster_walk(rd, quotas)
            assert plan == _recursive_plan_cluster_walk(rd, quotas), i
            outcomes["plans"] += plan is not None
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            got = cycles._instantiate_plan(H, clusters, plan or fallback, rng)
            assert got == _recursive_instantiate_plan(H, clusters, plan or fallback, oracle_rng), i
            assert rng.getstate() == oracle_rng.getstate(), i
            outcomes["cycles" if got[0] is not None else "prefix-only"] += 1
    # the corpus reaches every outcome often: found plans, closed cycles and
    # searches that end with a prefix only
    assert min(outcomes.values()) >= CASES // 10, outcomes


@pytest.mark.parametrize("budget", [1, 3, 4, 5])
def test_budgets_count_the_same_steps(monkeypatch, budget):
    # On complete inputs neither search backtracks: the planner enters 4
    # sequences and the instantiation tries 4 vertices, so a budget of 4 is
    # the least that succeeds.
    rd = frozenset(itertools.combinations(range(4), 3))
    quotas = {c: 1 for c in range(4)}
    H = random_3graph(8, 1.0, 0)
    clusters = ((1, 2), (3, 4), (5, 6), (7, 8))
    _set_budgets(monkeypatch, budget, budget)
    plan = cycles._plan_cluster_walk(rd, quotas)
    assert plan == _recursive_plan_cluster_walk(rd, quotas)
    assert (plan is not None) == (budget >= 4)
    order, prefix = cycles._instantiate_plan(H, clusters, (0, 1, 2, 3), random.Random(budget))
    assert (order, prefix) == _recursive_instantiate_plan(H, clusters, (0, 1, 2, 3), random.Random(budget))
    assert (order is not None) == (budget >= 4) and len(prefix) == min(budget, 4)
