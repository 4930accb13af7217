"""Tight components and link-component stars.

Two edges of a 3-graph are tightly adjacent when they share exactly two
vertices; tight components are the classes of the transitive closure of
that relation.  Edges sharing a pair fall into one class, so the labeling
joins vertex pairs rather than edges, without the quadratic edge-adjacency
blowup.  It takes one of two routes, chosen by `Hypergraph3._may_cover(2)`:

- on a dense host, whose (n+1)^2 pair table `H.completions` is O(e), a
  search over the pairs on that table, which enters each pair once;
- on a sparse host, a union-find over the pairs present, each edge joining
  its three pairs, whose memory follows e however large n is.

Both number the classes alike, so they give equal labelings.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
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
    if H._tight_labeling is None:
        labels, sizes = (_pair_search if H._may_cover(2) else _union_find)(H)
        H._tight_labeling = TightComponentLabeling(labels, len(sizes), tuple(sizes))
    return H._tight_labeling


def _pair_search(H: Hypergraph3) -> tuple[dict[Edge3, int], list[int]]:
    """(labels, sizes) by a search over the vertex pairs on H.completions.

    The edges ascend, so they run in blocks by their first two vertices a < b:
    pair (a, b) heads the edges abc with c > b, one per bit of comp[a][b] above
    bit b-1.  Visiting the pairs in that order, the first head of a class not
    yet reached heads the class's first edge and starts a search, which gives
    the class the next id.  From pair {x, y} the search reaches {x, c} and
    {y, c} for each c in comp[x][y]; `todo[x]` holds a bit for each y with
    {x, y} not yet reached, so each pair is entered once.
    """
    n1 = H.n + 1
    comp = H.completions
    bit = [0] + [1 << v for v in range(H.n)]
    todo = [(1 << H.n) - 1] * n1
    cid_of = [[-1] * n1 for _ in range(n1)]  # cid_of[x][y]: the id of pair {x, y}
    sizes: list[int] = []
    block_ids: list[int] = []
    block_sizes: list[int] = []
    for a in range(1, n1):
        row = comp[a]
        for b in range(a + 1, n1):
            block = (row[b] >> b).bit_count()
            if not block:
                continue
            cid = cid_of[a][b]
            if cid < 0:
                cid = len(sizes)
                sizes.append(0)
                todo[a] ^= bit[b]
                todo[b] ^= bit[a]
                cid_of[a][b] = cid_of[b][a] = cid
                stack = [(a, b)]
                while stack:
                    x, y = stack.pop()
                    both = comp[x][y]
                    for u in (x, y):
                        new = both & todo[u]
                        todo[u] ^= new
                        ids = cid_of[u]
                        while new:
                            low = new & -new
                            new ^= low
                            c = low.bit_length()
                            todo[c] ^= bit[u]
                            ids[c] = cid_of[c][u] = cid
                            stack.append((u, c))
            sizes[cid] += block
            block_ids.append(cid)
            block_sizes.append(block)
    labels = dict(zip(H.edges, chain.from_iterable(map(repeat, block_ids, block_sizes))))
    return labels, sizes


def _union_find(H: Hypergraph3) -> tuple[dict[Edge3, int], list[int]]:
    """(labels, sizes) by a union-find over the vertex pairs present."""
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
    return labels, sizes


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
