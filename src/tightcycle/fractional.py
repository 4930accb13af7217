"""Fractional matchings over 3-graphs: exact LP optima, perfect-matching
decisions with infeasibility certificates, and the degree-conditioned
construction of a tightly-connected perfect fractional matching.

A fractional matching assigns each edge a weight in [0,1] with every
vertex loaded at most 1; it is perfect when the total weight is exactly
n/3, which forces every vertex load to equal 1.  Perfection is therefore
the feasibility of {A w = 1, w >= 0} over the restricted edge set, and
when it fails there is a vector a with a.1 > 0 and sum_{v in e} a_v <= 0
for every admissible edge.  We recover such a vector from the optimal
dual y of the maximization LP as a = 1 - 3y and re-verify it in exact
arithmetic before returning it.  Every optimum comes from the exact
simplex in `lp`, at every n, so no result here carries a tolerance.  A
component id refers to the labeling that tight_components keeps on H.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Iterable, Union

from .errors import InvalidArgumentError, InvariantViolation, PreconditionError
from .generators import min_degree_bound
from .hypergraph import Edge3, Hypergraph3
from .lp import solve_matching_lp
# perfbench/spans.py traces max_matching and component_star here
from .matching import largest_component, max_matching  # noqa: F401
from .tight import _star_edges, component_star, tight_components  # noqa: F401


@dataclass(frozen=True)
class FractionalMatching:
    """Nonzero edge weights of a fractional matching on n vertices."""

    n: int
    weights: dict[Edge3, Fraction]
    total_weight: Fraction
    support_component: int | None = None

    @property
    def perfect(self) -> bool:
        return 3 * self.total_weight == self.n

    def vertex_loads(self) -> dict[int, Fraction]:
        loads: dict[int, Fraction] = {v: Fraction(0) for v in range(1, self.n + 1)}
        for e, w in self.weights.items():
            for v in e:
                loads[v] += w
        return loads

    def validate(self, H: Hypergraph3) -> None:
        """Exact feasibility check against the host hypergraph.

        Raises InvariantViolation on the first broken constraint; intended
        to run on everything this module returns.
        """
        if self.n != H.n:
            raise InvariantViolation(f"matching over n={self.n} but host has n={H.n}")
        total = Fraction(0)
        for e, w in self.weights.items():
            if e not in H.edge_set:
                raise InvariantViolation(f"weighted edge {e} is not an edge", witness=e)
            if not 0 <= w <= 1:
                raise InvariantViolation(f"weight {w} outside [0,1]", witness=e)
            total += w
        if total != self.total_weight:
            raise InvariantViolation(f"total weight {self.total_weight} != {total}")
        for v, load in self.vertex_loads().items():
            if load > 1:
                raise InvariantViolation(f"vertex {v} overloaded: {load}", witness=v)
        if self.support_component is not None:
            labels = tight_components(H).labels
            for e in self.weights:
                if labels[e] != self.support_component:
                    raise InvariantViolation(
                        f"support edge {e} outside component {self.support_component}",
                        witness=e,
                    )

    def to_json_dict(self) -> dict:
        return {
            "total_weight": str(self.total_weight),
            "edges": [
                {"e": list(e), "w": str(w)}
                for e, w in sorted(self.weights.items())
            ],
            "component": self.support_component,
            "perfect": self.perfect,
        }


@dataclass(frozen=True)
class FarkasCertificate:
    """Vector witnessing that no perfect fractional matching exists.

    Requirements: sum(a) > 0 and sum_{v in e} a_v <= 0 for every edge e of
    the restricted hypergraph.  Both are homogeneous, so positive rational
    rescalings of a valid certificate stay valid.
    """

    a: tuple[Fraction, ...]

    def validate(self, edges: Iterable[Edge3]) -> None:
        # both checks run on the integer vector scale * a, a positive rescaling
        scale = lcm(*(x.denominator for x in self.a))
        a = [x.numerator * (scale // x.denominator) for x in self.a]
        if sum(a) <= 0:
            raise InvariantViolation(f"certificate has a.1 = {Fraction(sum(a), scale)} <= 0")
        for e in edges:
            s = a[e[0] - 1] + a[e[1] - 1] + a[e[2] - 1]
            if s > 0:
                raise InvariantViolation(
                    f"certificate violated on edge {e}: {Fraction(s, scale)} > 0", witness=e
                )

    def to_json_dict(self) -> dict:
        return {"a": [str(x) for x in self.a]}


def _optimum(
    H: Hypergraph3, restrict_to: int | None
) -> tuple[FractionalMatching, tuple[Fraction, ...], list[Edge3]]:
    """Solve the LP over H's edges, or over one tight component's, and
    return the optimum as a matching with the LP's dual and the admissible
    edges."""
    edges = list(H.edges)
    if restrict_to is not None:
        lab = tight_components(H)
        if not 0 <= restrict_to < lab.component_count:
            raise InvalidArgumentError(
                f"component id {restrict_to} out of range 0..{lab.component_count - 1}"
            )
        edges = [e for e in edges if lab.labels[e] == restrict_to]
    res = solve_matching_lp(H.n, edges)
    fm = FractionalMatching(
        n=H.n,
        weights=res.weights,
        total_weight=res.value,
        support_component=restrict_to,
    )
    return fm, res.dual, edges


def max_fractional_matching(H: Hypergraph3, restrict_to: int | None = None) -> FractionalMatching:
    """Maximum-total-weight fractional matching, optionally restricted to one
    tight component, as exact rationals at every n."""
    fm, _, _ = _optimum(H, restrict_to)
    fm.validate(H)
    return fm


def perfect_or_certificate(H: Hypergraph3, restrict_to: int) -> Union[FractionalMatching, FarkasCertificate]:
    """Decide perfect fractional matchability within one tight component.

    Returns exactly one of: a perfect fractional matching (total weight
    equal to n/3, support inside the component), or a certificate that none
    exists.  Both outcomes are re-verified in exact arithmetic.
    """
    fm, dual, edges = _optimum(H, restrict_to)
    if fm.perfect:
        fm.validate(H)
        return fm
    cert = FarkasCertificate(tuple(1 - 3 * y for y in dual))
    cert.validate(edges)
    return cert


@dataclass(frozen=True)
class FracmatchResult:
    """Output of the degree-conditioned construction: the selected tight
    component as a spanning edge set, plus its perfect fractional matching."""

    subgraph_edges: frozenset[Edge3]
    component: int
    subgraph_min_degree: int
    matching: FractionalMatching


def tight_perfect_fractional_matching(H: Hypergraph3) -> FracmatchResult:
    """Build a tightly-connected perfect fractional matching in H.

    Preconditions: 3 | n and min vertex degree strictly above (5/9)C(n,2).
    The construction collects, for each vertex u, the edges formed by the
    largest link-graph component of u with u added back; verifies these all
    land in one tight component H'; checks min degree of H' against
    (4/9)C(n,2); and solves the restricted LP, which must come out perfect.
    Any failed internal step raises InvariantViolation with a witness since
    the preconditions make failure impossible.
    """
    n = H.n
    if n % 3 != 0:
        raise PreconditionError(f"need 3 | n, got n={n}")
    delta = H.min_degree(1) if n >= 1 else 0
    if delta < min_degree_bound(n):
        raise PreconditionError(
            f"need min degree > (5/9)C({n},2) = {5 * comb(n, 2)}/9, got {delta}"
        )

    labeling = tight_components(H)
    star_label: int | None = None
    for u in range(1, n + 1):
        _, cu_edges = largest_component(H.link_graph(u))
        for e in _star_edges(u, cu_edges):
            lbl = labeling.labels[e]
            if star_label is None:
                star_label = lbl
            elif lbl != star_label:
                raise InvariantViolation(
                    "link-component stars span two tight components",
                    witness=(u, e, star_label, lbl),
                )
    assert star_label is not None  # delta > 0, so every vertex has a star

    sub_edges = frozenset(e for e in H.edges if labeling.labels[e] == star_label)
    sub = Hypergraph3(n, sub_edges)
    delta_sub = sub.min_degree(1)
    if 9 * delta_sub < 4 * comb(n, 2):
        raise InvariantViolation(
            f"selected component has min degree {delta_sub} < (4/9)C({n},2)",
            witness=star_label,
        )

    outcome = perfect_or_certificate(H, star_label)
    if isinstance(outcome, FarkasCertificate):
        raise InvariantViolation(
            "degree condition holds but the LP produced a certificate",
            witness=outcome,
        )
    return FracmatchResult(
        subgraph_edges=sub_edges,
        component=star_label,
        subgraph_min_degree=delta_sub,
        matching=outcome,
    )
