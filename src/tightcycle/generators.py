"""Instance generation: the tight extremal family, random 3-graphs, and a
degree-conditioned rejection sampler.

The extremal family on parameters (n, a) takes A = {1..a}, B = {a+1..n}
and keeps every triple that intersects A.  Its minimum vertex degree is
C(n-1,2) - C(|B|-1,2) and no tight cycle in it can be longer than 3a,
because every three consecutive cycle vertices must include a vertex of A.
All samplers are pure functions of their seed.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import GenerationError, InvalidArgumentError, InvariantViolation
from .hypergraph import Hypergraph3


def derive_seed(master: int, *indices: int) -> int:
    """Stable arithmetic seed derivation (no reliance on hash())."""
    x = master & 0x7FFFFFFFFFFFFFFF
    for i in indices:
        x = (x * 6364136223846793005 + i + 1442695040888963407) & 0x7FFFFFFFFFFFFFFF
    return x


@dataclass(frozen=True)
class ExtremalInstance:
    hypergraph: Hypergraph3
    a_side: tuple[int, ...]
    b_side: tuple[int, ...]
    predicted_min_degree: int
    cycle_upper_bound: int  # 3|A|


def extremal(n: int, a: int) -> ExtremalInstance:
    """The extremal instance with |A| = a on n vertices.

    The recomputed minimum degree is asserted against the closed formula;
    a mismatch would be an implementation bug.
    """
    if not 1 <= a <= n:
        raise InvalidArgumentError(f"need 1 <= a <= n, got a={a}, n={n}")
    a_side = tuple(range(1, a + 1))
    b_side = tuple(range(a + 1, n + 1))
    edges = [
        t
        for t in itertools.combinations(range(1, n + 1), 3)
        if t[0] <= a  # sorted triples meet A iff their smallest vertex does
    ]
    H = Hypergraph3(n, edges)
    b = n - a
    predicted = comb(n - 1, 2) - (comb(b - 1, 2) if b >= 1 else 0)
    actual = H.min_degree(1)
    if actual != predicted:
        raise InvariantViolation(
            f"extremal({n},{a}): min degree {actual} != predicted {predicted}"
        )
    return ExtremalInstance(
        hypergraph=H,
        a_side=a_side,
        b_side=b_side,
        predicted_min_degree=predicted,
        cycle_upper_bound=3 * a,
    )


def extremal_from_eta(n: int, eta: Fraction | float | str) -> ExtremalInstance:
    """Thin wrapper choosing a = floor(((1-eta)n - 1)/3), in exact arithmetic.
    A string eta ("0.56", "14/25", "1e400") is read exactly, and errors
    quote eta as given, never the a derived from it."""
    try:
        x = Fraction(eta)
    except (ValueError, ZeroDivisionError, OverflowError):  # "abc", nan, 1/0, inf
        raise InvalidArgumentError(f"eta must be a finite rational or decimal, got {eta}")
    a = math.floor(((1 - x) * n - 1) / 3)
    if not 1 <= a <= n:
        raise InvalidArgumentError(
            f"eta = {eta} gives no extremal instance on n = {n} vertices: "
            "it needs 1 <= floor(((1 - eta)n - 1)/3) <= n"
        )
    return extremal(n, a)


def random_3graph(n: int, p: float, seed: int) -> Hypergraph3:
    """Include each triple independently with probability p (seed-determined)."""
    if not 0 <= p <= 1:
        raise InvalidArgumentError(f"p must be in [0,1], got {p}")
    rng = random.Random(seed)
    edges = [t for t in itertools.combinations(range(1, n + 1), 3) if rng.random() < p]
    return Hypergraph3(n, edges)


def random_min_degree_3graph(
    n: int,
    delta_target: int,
    seed: int,
    max_attempts: int = 1000,
    p: float | None = None,
) -> Hypergraph3:
    """Rejection-sample a random 3-graph with min vertex degree >= delta_target.

    Near-threshold targets can reject a lot; after max_attempts the sampler
    raises GenerationError carrying the best minimum degree it saw.
    """
    if max_attempts < 1:
        raise InvalidArgumentError(f"max_attempts must be >= 1, got {max_attempts}")
    if delta_target < 0:
        raise InvalidArgumentError(f"delta_target must be >= 0, got {delta_target}")
    if n >= 1 and delta_target > comb(n - 1, 2):
        raise InvalidArgumentError(
            f"delta_target {delta_target} exceeds C({n - 1},2) = {comb(n - 1, 2)}"
        )
    if p is None:
        p = min(0.98, delta_target / comb(n - 1, 2) + 0.1) if n >= 3 else 1.0
    best = -1
    for attempt in range(max_attempts):
        H = random_3graph(n, p, derive_seed(seed, attempt))
        delta = H.min_degree(1)
        if delta >= delta_target:
            return H
        best = max(best, delta)
    raise GenerationError(
        f"no instance with min degree >= {delta_target} in {max_attempts} attempts "
        f"(best seen: {best})",
        best_delta=best,
        attempts=max_attempts,
    )


def min_degree_bound(n: int) -> int:
    """Smallest integer strictly above (5/9)C(n,2)."""
    return 5 * comb(n, 2) // 9 + 1


def provenance_comment(kind: str, **params) -> str:
    parts = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
    return f"# generator: {kind} {parts}"
