"""Exact simplex for the fractional-matching polytope of a 3-graph.

The program is

    maximize    sum_e w_e
    subject to  sum_{e : v in e} w_e <= 1     (one row per vertex)
                w_e >= 0,

solved by the revised primal simplex in integer-preserving form (Edmonds
1967; Bareiss 1968).  The basis inverse is kept as an integer matrix A
over a positive integer det, B^-1 = A/det, and the basic values and the
simplex multipliers as det*x_B and det*y.  A pivot on entering column
D = A a and leaving row l keeps row l, turns every other row r into
(D_l A_r - D_r A_l) / det, and sets det = D_l.  det is det(B) itself and
A is the adjugate of the 0/1 basis B, so every such division is exact;
det stays positive because it starts at 1 and the ratio test pivots only
on D_l > 0.  Every sign test and ratio comparison is therefore the one
the rational simplex would make, and the optimum is built as exact
Fractions at the end.

Columns have exactly three unit entries, so pricing a column costs three
additions given the multipliers, and the basis-inverse column of an
entering edge is the sum of three columns of A.  Bland's smallest-index
rule (edges in canonical order, then slacks) guarantees termination and
makes the pivot sequence, hence the returned optimum, deterministic.

Only the rows of vertices that some column touches are kept.  The row of
an untouched vertex never changes: its slack stays basic with value 1, its
multiplier stays 0, and its entry of every entering column is 0.  So the
basis inverse is t x t for the t touched vertices, kept in increasing
order so that Bland's rule sees the variables in the same order, and each
untouched vertex gets a zero dual.

The all-slack basis is feasible (b = 1 >= 0), so no phase one is needed,
and the optimum is bounded above by n/3.  This is the package's only LP
solver and it has no size cap: every optimum, at every n, is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InvariantViolation


@dataclass(frozen=True)
class LPResult:
    value: Fraction
    weights: dict[tuple[int, ...], Fraction]  # nonzero edge weights only
    dual: tuple[Fraction, ...]  # one multiplier per vertex, >= 0 at optimum
    iterations: int


def solve_matching_lp(n: int, columns: Sequence[tuple[int, ...]]) -> LPResult:
    """Solve the matching LP exactly.

    `columns` lists the admissible edges as sorted vertex triples over
    [1, n]; the variable order is the given column order followed by the
    slack variables of the touched vertices, in increasing order.
    """
    m = len(columns)
    # by vertex; a list reads faster than a dict, and marking vertices in it
    # finds the touched ones, in increasing order, faster than a set
    row_of = [-1] * (n + 1)
    for a, b, c in columns:
        row_of[a] = row_of[b] = row_of[c] = 0
    touched = [v for v in range(1, n + 1) if row_of[v] == 0]
    n_rows = len(touched)
    for r, v in enumerate(touched):
        row_of[v] = r
    rows_of = [(row_of[a], row_of[b], row_of[c]) for a, b, c in columns]
    A = [[0] * r + [1] + [0] * (n_rows - r - 1) for r in range(n_rows)]  # det * B^-1
    X = [1] * n_rows  # det * x_B
    ys = [0] * n_rows  # det * y, where y = c_B B^-1 (edge cost 1, slack cost 0)
    det = 1
    basis = list(range(m, m + n_rows))  # slack of row r
    iterations = 0

    while True:
        # Bland: the first edge with reduced cost 1 - y.a > 0, else the
        # first slack with reduced cost -y_i > 0; rc is det * reduced cost
        enter = -1
        for j, (a, b, c) in enumerate(rows_of):
            rc = det - ys[a] - ys[b] - ys[c]
            if rc > 0:
                enter = j
                break
        if enter < 0:
            for i in range(n_rows):
                if ys[i] < 0:
                    enter = m + i
                    rc = -ys[i]
                    break
        if enter < 0:
            weights: dict[tuple[int, ...], Fraction] = {}
            total = 0
            for r in range(n_rows):
                if basis[r] < m and X[r]:
                    weights[tuple(columns[basis[r]])] = Fraction(X[r], det)
                    total += X[r]
            dual = [Fraction(0)] * n
            for v, s in zip(touched, ys):
                dual[v - 1] = Fraction(s, det)
            return LPResult(
                value=Fraction(total, det),
                weights=weights,
                dual=tuple(dual),
                iterations=iterations,
            )

        if enter < m:
            a, b, c = rows_of[enter]
            D = [row[a] + row[b] + row[c] for row in A]
        else:
            i = enter - m
            D = [row[i] for row in A]

        # ratio test X_r / D_r over D_r > 0, cross-multiplied; ties go to
        # the smallest basic variable
        leave = -1
        for r in range(n_rows):
            if D[r] > 0:
                if leave < 0:
                    leave = r
                    continue
                lhs = X[r] * D[leave]
                rhs = X[leave] * D[r]
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave = r
        if leave < 0:
            raise InvariantViolation(
                "matching LP reported unbounded; objective is bounded by n/3",
                witness=(n, enter),
            )

        piv = D[leave]
        prow = A[leave]
        px = X[leave]
        # y moves by (reduced cost / d_l) times row l of B^-1
        ys = [(piv * s + rc * p) // det for s, p in zip(ys, prow)]
        for r in range(n_rows):
            if r == leave:
                continue
            dr = D[r]
            if dr:
                A[r] = [(piv * x - dr * p) // det for x, p in zip(A[r], prow)]
                X[r] = (piv * X[r] - dr * px) // det
            elif piv != det:
                A[r] = [piv * x // det for x in A[r]]
                X[r] = piv * X[r] // det
        det = piv
        basis[leave] = enter
        iterations += 1

