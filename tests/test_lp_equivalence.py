"""The integer-preserving simplex against the rational simplex it replaced.

`_fraction_simplex` is the earlier `lp.solve_matching_lp`, a revised Bland
simplex over `fractions.Fraction`, kept here as the oracle; it differs from
that code only in the two counters it fills in `stats`.  On a fixed seeded
corpus the integer solver must return an `LPResult` equal to the oracle's:
the same value, weights, dual and pivot count.  Equal pivot counts and
equal optima on every host are the evidence that the integer form takes
the same pivots.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from typing import Sequence

import pytest

from tightcycle.errors import InvariantViolation
from tightcycle.generators import (
    extremal,
    min_degree_bound,
    random_3graph,
    random_min_degree_3graph,
)
from tightcycle.lp import LPResult, solve_matching_lp
from tightcycle.tight import tight_components

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _fraction_simplex(n: int, columns: Sequence[tuple[int, ...]], stats: Counter) -> LPResult:
    m = len(columns)
    binv = [[_ONE if i == r else _ZERO for i in range(n)] for r in range(n)]
    xb = [_ONE] * n
    basis = list(range(m, m + n))  # slack of row r
    iterations = 0

    while True:
        # simplex multipliers y = c_B B^-1 (edge cost 1, slack cost 0)
        y = [_ZERO] * n
        for r in range(n):
            if basis[r] < m:
                row = binv[r]
                for i in range(n):
                    if row[i]:
                        y[i] += row[i]

        enter = -1
        for j in range(m):
            rc = _ONE
            for v in columns[j]:
                rc -= y[v - 1]
            if rc > 0:
                enter = j
                break
        if enter < 0:
            for i in range(n):
                if y[i] < 0:  # slack reduced cost is -y_i
                    enter = m + i
                    stats["slack_entering"] += 1
                    break
        if enter < 0:
            weights: dict[tuple[int, ...], Fraction] = {}
            value = _ZERO
            for r in range(n):
                if basis[r] < m and xb[r]:
                    weights[tuple(columns[basis[r]])] = xb[r]
                    value += xb[r]
            return LPResult(value=value, weights=weights, dual=tuple(y), iterations=iterations)

        if enter < m:
            rows = [v - 1 for v in columns[enter]]
            d = [sum(binv[r][i] for i in rows) for r in range(n)]
        else:
            i = enter - m
            d = [binv[r][i] for r in range(n)]

        leave = -1
        best: Fraction | None = None
        for r in range(n):
            if d[r] > 0:
                ratio = xb[r] / d[r]
                stats["ratio_ties"] += best is not None and ratio == best
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best = ratio
                    leave = r
        if leave < 0:
            raise InvariantViolation(
                "matching LP reported unbounded; objective is bounded by n/3",
                witness=(n, enter),
            )

        piv = d[leave]
        brow = binv[leave]
        if piv != 1:
            binv[leave] = brow = [x / piv for x in brow]
        theta = xb[leave] / piv
        xb[leave] = theta
        for r in range(n):
            if r != leave and d[r]:
                coef = d[r]
                row = binv[r]
                for i in range(n):
                    if brow[i]:
                        row[i] -= coef * brow[i]
                xb[r] -= coef * theta
        basis[leave] = enter
        iterations += 1


def _largest_tight_component(H) -> list[tuple[int, int, int]]:
    lab = tight_components(H)
    cid = max(range(lab.component_count), key=lambda c: lab.component_sizes[c])
    return [e for e in H.edges if lab.labels[e] == cid]


def _corpus() -> list[tuple[str, int, list[tuple[int, ...]]]]:
    cases: list[tuple[str, int, list[tuple[int, ...]]]] = [
        ("empty", 4, []),
        ("single-edge", 3, [(1, 2, 3)]),
        # the smallest host whose Bland path enters a slack (y_i < 0)
        ("slack-entering", 5, [(1, 2, 3), (2, 4, 5), (3, 4, 5)]),
        ("random-6-0.2-133", 6, list(random_3graph(6, 0.2, 133).edges)),
        # vertices 3, 5, 6 and 9 lie in no column: the integer solver drops their rows
        ("isolated-vertices", 9, [(2, 4, 7), (4, 7, 8), (2, 7, 8), (1, 4, 8)]),
        ("spread-19-0.5-7", 19,
         [(2 * a, 2 * b, 2 * c) for a, b, c in random_3graph(9, 0.5, 7).edges]),
    ]
    for n, a in ((9, 2), (12, 3), (15, 4), (21, 4), (24, 6)):
        cases.append((f"extremal-{n}-{a}", n, list(extremal(n, a).hypergraph.edges)))
    for n, seed in ((9, 3), (12, 5), (15, 8)):
        H = random_min_degree_3graph(n, min_degree_bound(n), seed)
        cases.append((f"conditioned-{n}-{seed}", n, _largest_tight_component(H)))
    rng = random.Random(20261018)
    for n in range(6, 31):
        p = round(rng.uniform(0.1, 0.9), 2)
        seed = rng.randrange(10**6)
        cases.append((f"random-{n}-{p}-{seed}", n, list(random_3graph(n, p, seed).edges)))
    # any column order is admissible; Bland's rule follows the given one
    for n, p, seed in ((10, 0.3, 1), (14, 0.5, 2)):
        cols = list(random_3graph(n, p, seed).edges)
        random.Random(seed).shuffle(cols)
        cases.append((f"shuffled-{n}-{p}-{seed}", n, cols))
    return cases


CORPUS = _corpus()


@pytest.mark.parametrize("n,columns", [c[1:] for c in CORPUS], ids=[c[0] for c in CORPUS])
def test_integer_simplex_equals_fraction_simplex(n, columns):
    assert solve_matching_lp(n, columns) == _fraction_simplex(n, columns, Counter())


def test_sparse_host_allocates_only_touched_rows():
    """Two edges on 3000 vertices: a dense basis inverse would hold 9e6
    entries (over 70 MB); the solver keeps the six touched rows."""
    import tracemalloc

    n = 3000
    tracemalloc.start()
    try:
        result = solve_matching_lp(n, [(1, 2, 3), (n - 2, n - 1, n)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert result.value == 2 and result.iterations == 2
    assert result.dual == tuple(Fraction(int(v in (1, n - 2)), 1) for v in range(1, n + 1))


def test_corpus_reaches_ratio_ties_and_slack_pivots():
    """The two branches a wrong integer port would most easily get wrong
    are both taken by the oracle on two corpus hosts: Bland's tie-break
    in the ratio test, and a slack entering the basis."""
    hosts = {name: (n, columns) for name, n, columns in CORPUS}
    for name in ("slack-entering", "random-6-0.2-133"):
        stats: Counter = Counter()
        _fraction_simplex(*hosts[name], stats)
        assert stats["ratio_ties"] > 0 and stats["slack_entering"] > 0, name
