"""The packed-key cycle DP against the tuple-keyed DP it replaced.

`_tuple_dp` is the earlier `cycles.longest_tight_cycle`, kept here as the
oracle: states are `(mask, a, b)` tuples and completions live in a dict
keyed by sorted pairs.  The current DP makes the same passes in the same
order on one int per state, and its successor tables list each state's
completions in the same ascending order, so on every host it must return
the very same `TightCycle` (or None), not merely one of the same length:
the first closing state, its smallest realizable second vertex and the
smallest-vertex reconstruction must all agree.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from tightcycle.cycles import (
    DP_MAX_N,
    MIN_CYCLE_LENGTH,
    TightCycle,
    longest_tight_cycle,
    validate_cycle,
)
from tightcycle.errors import InvariantViolation, SizeLimitError
from tightcycle.generators import extremal
from tightcycle.hypergraph import Hypergraph3


def _pair_completions(H: Hypergraph3) -> dict[tuple[int, int], int]:
    """pair (a<b) -> bitmask of c with {a,b,c} an edge (bit v-1 for vertex v)."""
    comp: dict[tuple[int, int], int] = {}
    for a, b, c in H.edges:
        for pair, third in (((a, b), c), ((a, c), b), ((b, c), a)):
            comp[pair] = comp.get(pair, 0) | 1 << (third - 1)
    return comp


def _bits(x: int):
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def _tuple_dp(H: Hypergraph3) -> TightCycle | None:
    n = H.n
    if n > DP_MAX_N:
        raise SizeLimitError(
            f"exact cycle DP budget is n <= {DP_MAX_N}; got n = {n}. "
            "Use matching_guided_cycle for larger instances."
        )
    comp = _pair_completions(H)
    if not comp:
        return None

    best_len = 0
    best_state: tuple[int, int, int, int, int] | None = None  # s, mask, a, b, q
    best_levels: list[dict] | None = None

    for s in range(1, n + 1):
        if n - s + 1 <= best_len or n - s + 1 < MIN_CYCLE_LENGTH:
            break
        sbit = 1 << (s - 1)
        allowed = ((1 << n) - 1) & ~(sbit - 1)  # vertices >= s
        level: dict[tuple[int, int, int], int] = {}
        for q in range(s + 1, n + 1):
            if comp.get((s, q), 0) & allowed:
                level[(sbit | (1 << (q - 1)), s, q)] = 1 << (q - 1)
        levels = [dict(), dict(), level]  # index by path length
        ell = 2
        found_here = False
        while level:
            nxt: dict[tuple[int, int, int], int] = {}
            for (mask, a, b), qm in level.items():
                pa, pb = (a, b) if a < b else (b, a)
                if ell >= MIN_CYCLE_LENGTH and ell > best_len:
                    cmask = comp.get((pa, pb), 0)
                    if cmask & sbit:
                        seam = (s, b) if s < b else (b, s)
                        qs = qm & comp.get(seam, 0)
                        if qs:
                            best_len = ell
                            best_state = (s, mask, a, b, qs & -qs)
                            best_levels = levels
                            found_here = True
                ext = comp.get((pa, pb), 0) & ~mask & allowed
                for c in _bits(ext):
                    key = (mask | (1 << c), b, c + 1)
                    nxt[key] = nxt.get(key, 0) | qm
            levels.append(nxt)
            level = nxt
            ell += 1
        if found_here and best_len == n:
            break

    if best_state is None:
        return None
    assert best_levels is not None
    s, mask, a, b, qbit = best_state
    rev = [b, a]
    lvl = best_len
    while lvl > 2:
        pa, pb = (a, b) if a < b else (b, a)
        prev_mask = mask & ~(1 << (b - 1))
        cands = comp.get((pa, pb), 0) & prev_mask & ~(1 << (a - 1))
        for x in _bits(cands):
            key = (prev_mask, x + 1, a)
            qm = best_levels[lvl - 1].get(key)
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


def _assert_same(H: Hypergraph3) -> TightCycle | None:
    got = longest_tight_cycle(H)
    assert got == _tuple_dp(H), H
    return got


def _random_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int, int]]:
    return [t for t in itertools.combinations(range(1, n + 1), 3) if rng.random() < p]


def _density(n: int, rng: random.Random) -> float:
    # Dense hosts above 12 vertices cost the DP seconds each; the extremal
    # hosts below cover dense DPs on up to 16 vertices.
    return rng.uniform(0.1, 0.9) if n <= 12 else rng.uniform(0.1, 0.25)


def test_random_hosts():
    rng = random.Random(20260901)
    found = 0
    for _ in range(40):
        n = rng.randint(4, 16)
        if _assert_same(Hypergraph3(n, _random_edges(n, _density(n, rng), rng))) is not None:
            found += 1
    assert found >= 15  # the corpus exercises closing and reconstruction


def test_hosts_with_a_planted_hamiltonian_cycle():
    rng = random.Random(20260902)
    for _ in range(30):
        n = rng.randint(4, 16)
        order = list(range(1, n + 1))
        rng.shuffle(order)
        edges = set(_random_edges(n, _density(n, rng) - 0.1, rng))
        for i in range(n):
            edges.add(tuple(sorted((order[i], order[(i + 1) % n], order[(i + 2) % n]))))
        assert _assert_same(Hypergraph3(n, sorted(edges))).length == n


# The oracle's cycles on extremal(n, a) for n = 15 and 16, recorded from
# _tuple_dp, which alone takes about 8 s on these nine hosts.  They use only
# vertices up to 3a, so they are the same for both n.
ORACLE_EXTREMAL_CYCLES = {
    1: None,
    2: (1, 3, 4, 2, 5, 6),
    3: (1, 4, 7, 3, 6, 5, 2, 8, 9),
    4: (1, 5, 10, 4, 9, 8, 3, 7, 6, 2, 11, 12),
    5: (1, 6, 13, 5, 12, 11, 4, 10, 9, 3, 8, 7, 2, 14, 15),
}


@pytest.mark.parametrize("n", range(3, 17))
def test_extremal_hosts(n):
    for a in range(1, n // 3 + 1):
        H = extremal(n, a).hypergraph
        if n <= 14:
            cycle = _assert_same(H)
        else:
            cycle = longest_tight_cycle(H)
            expected = ORACLE_EXTREMAL_CYCLES[a]
            assert cycle == (expected and TightCycle(expected))
        if a == 1:
            assert cycle is None
        else:
            assert cycle.length == 3 * a


def test_edge_cases():
    assert _assert_same(Hypergraph3(0, [])) is None
    assert _assert_same(Hypergraph3(9, [])) is None
    assert _assert_same(Hypergraph3(5, [(1, 3, 5)])) is None
    with pytest.raises(SizeLimitError):
        longest_tight_cycle(Hypergraph3(DP_MAX_N + 1, []))


@pytest.mark.parametrize("n", range(17, DP_MAX_N + 1))
def test_sparse_hosts_above_sixteen_vertices(n):
    # Sparse noise plus a tight cycle planted through vertex n, so the cycle
    # uses vertices from the high half of the successor tables, up to n = 22,
    # the largest n the DP takes.
    rng = random.Random(20260903 + n)
    edges = set(_random_edges(n, 0.06, rng))
    planted = rng.sample(range(1, n), n - 1 - rng.randint(0, 6)) + [n]
    ell = len(planted)
    for i in range(ell):
        edges.add(tuple(sorted((planted[i], planted[(i + 1) % ell], planted[(i + 2) % ell]))))
    cycle = _assert_same(Hypergraph3(n, sorted(edges)))
    assert cycle.length >= ell and n in cycle.order


TRIPLES = list(itertools.combinations(range(1, 9), 3))


@given(st.integers(4, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(st.sampled_from([t for t in TRIPLES if t[2] <= n]), max_size=30),
    )
))
@settings(max_examples=300, deadline=None)
def test_small_edge_sets(case):
    n, edges = case
    _assert_same(Hypergraph3(n, edges))
