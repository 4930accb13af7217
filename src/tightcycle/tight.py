"""Tight components and link-component stars.

Two edges of a 3-graph are tightly adjacent when they share exactly two
vertices; tight components are the classes of the transitive closure of
that relation.  The labeling is a union-find over vertex pairs: each edge
joins its three pairs, so edges sharing a pair fall into one class without
the quadratic edge-adjacency blowup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InvalidArgumentError
from .hypergraph import Edge3, Hypergraph3


@dataclass(frozen=True)
class TightComponentLabeling:
    """Total labeling of E(H) by 0-based tight-component ids."""

    labels: dict[Edge3, int]
    component_count: int
    component_sizes: tuple[int, ...]


def tight_components(H: Hypergraph3) -> TightComponentLabeling:
    """Label every edge with its tight component.

    Ids are assigned by the first edge of each class in canonical edge order,
    so the labeling is deterministic; `labels` lists the edges in that order.
    The labeling is kept on H, like its degrees; later calls return it.
    """
    if H._tight_labeling is not None:
        return H._tight_labeling
    n1 = H.n + 1
    edges = H.edges
    # Pair (a, b), a < b, has id a*n1 + b; an edge joins its three pairs.
    # The parent map holds only the pairs present, so its size follows e,
    # not n^2.
    parent = {x: x for a, b, c in edges for x in (a * n1 + b, a * n1 + c, b * n1 + c)}
    for a, b, c in edges:
        x = a * n1 + b
        for y in (a * n1 + c, b * n1 + c):
            while parent[x] != x:  # path halving
                parent[x] = x = parent[parent[x]]
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            parent[y] = x
    root_to_id: dict[int, int] = {}
    labels: dict[Edge3, int] = {}
    sizes: list[int] = []
    for e in edges:
        x = e[0] * n1 + e[1]
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        cid = root_to_id.get(x)
        if cid is None:
            cid = root_to_id[x] = len(sizes)
            sizes.append(0)
        labels[e] = cid
        sizes[cid] += 1
    H._tight_labeling = TightComponentLabeling(labels, len(sizes), tuple(sizes))
    return H._tight_labeling


def component_star(
    H: Hypergraph3,
    u: int,
    component: tuple[Iterable[int], Iterable[tuple[int, int]]],
) -> frozenset[Edge3]:
    """Edges of H obtained by adding u back to each edge of a link component.

    `component` is a (vertex set, edge set) pair and must be exactly one of
    the connected components of H's link graph of u.
    """
    from .matching import connected_components

    link = H.link_graph(u)  # raises InvalidArgumentError for u outside [1, n]
    cv = frozenset(component[0])
    ce = frozenset(tuple(sorted(p)) for p in component[1])
    for vs, es in connected_components(link):
        if vs == cv and es == ce:
            break
    else:
        raise InvalidArgumentError(f"not a connected component of the link graph of {u}")
    return _star_edges(u, ce)


def _star_edges(u: int, pairs: Iterable[tuple[int, int]]) -> frozenset[Edge3]:
    """The triples formed by adding u to each link-graph edge in `pairs`."""
    return frozenset(tuple(sorted((u,) + p)) for p in pairs)
