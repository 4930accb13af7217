"""Tight walks, tight components, and link-component stars.

Two edges of a 3-graph are tightly adjacent when they share exactly two
vertices; tight components are the classes of the transitive closure of
that relation.  The labeling is computed by union-find over edges grouped
by their contained pairs, which avoids the quadratic edge-adjacency blowup.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .errors import InvalidArgumentError
from .hypergraph import Edge3, Hypergraph3


class UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))
        self.size = [1] * size

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return ra


@dataclass(frozen=True)
class TightComponentLabeling:
    """Total labeling of E(H) by 0-based tight-component ids."""

    labels: dict[Edge3, int]
    component_count: int
    component_sizes: tuple[int, ...]


def tight_components(H: Hypergraph3) -> TightComponentLabeling:
    """Label every edge with its tight component.

    Ids are assigned by the first edge of each class in canonical edge order,
    so the labeling is deterministic.
    """
    m = len(H.edges)
    index = {e: i for i, e in enumerate(H.edges)}
    uf = UnionFind(m)
    for group in H.pair_index.values():
        first = index[group[0]]
        for other in group[1:]:
            uf.union(first, index[other])
    root_to_id: dict[int, int] = {}
    labels: dict[Edge3, int] = {}
    sizes: list[int] = []
    for i, e in enumerate(H.edges):
        r = uf.find(i)
        if r not in root_to_id:
            root_to_id[r] = len(sizes)
            sizes.append(0)
        cid = root_to_id[r]
        labels[e] = cid
        sizes[cid] += 1
    return TightComponentLabeling(labels, len(sizes), tuple(sizes))


def is_tightly_connected(H: Hypergraph3) -> bool:
    """True iff H has exactly one tight component.

    An empty edge set yields False; callers that need to distinguish the
    empty case should inspect tight_components(H).component_count == 0.
    """
    return tight_components(H).component_count == 1


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

    if not 1 <= u <= H.n:
        raise InvalidArgumentError(f"vertex {u} not inside [1, {H.n}]")
    cv = frozenset(component[0])
    ce = frozenset(tuple(sorted(p)) for p in component[1])
    link = H.link_graph(u)
    for vs, es in connected_components(link):
        if vs == cv and es == ce:
            break
    else:
        raise InvalidArgumentError(f"not a connected component of the link graph of {u}")
    return _star_edges(u, ce)


def _star_edges(u: int, pairs: Iterable[tuple[int, int]]) -> frozenset[Edge3]:
    """The triples formed by adding u to each link-graph edge in `pairs`."""
    return frozenset(tuple(sorted((u,) + p)) for p in pairs)


def tight_walk(H: Hypergraph3, start: Edge3, goal: Edge3) -> list[Edge3] | None:
    """A shortest tight walk from start to goal as a list of edges, or None.

    Consecutive edges of the returned walk share exactly two vertices.  This
    is the witness-producing companion of tight_components: two edges are in
    the same component iff a walk exists.
    """
    start = tuple(sorted(start))  # type: ignore[assignment]
    goal = tuple(sorted(goal))  # type: ignore[assignment]
    if start not in H.edge_set or goal not in H.edge_set:
        raise InvalidArgumentError("walk endpoints must be edges of H")
    if start == goal:
        return [start]
    pidx = H.pair_index
    parent: dict[Edge3, Edge3] = {start: start}
    queue = deque([start])
    while queue:
        e = queue.popleft()
        a, b, c = e
        for pair in ((a, b), (a, c), (b, c)):
            for nxt in pidx[pair]:
                if nxt not in parent:
                    parent[nxt] = e
                    if nxt == goal:
                        walk = [nxt]
                        while walk[-1] != start:
                            walk.append(parent[walk[-1]])
                        walk.reverse()
                        return walk
                    queue.append(nxt)
    return None


def naive_tight_components(H: Hypergraph3) -> TightComponentLabeling:
    """Quadratic pairwise-BFS labeling; test oracle for tight_components."""
    edges = list(H.edges)
    m = len(edges)
    adj: list[list[int]] = [[] for _ in range(m)]
    for i in range(m):
        si = set(edges[i])
        for j in range(i + 1, m):
            if len(si & set(edges[j])) == 2:
                adj[i].append(j)
                adj[j].append(i)
    labels: dict[Edge3, int] = {}
    sizes: list[int] = []
    seen = [False] * m
    for i in range(m):
        if seen[i]:
            continue
        cid = len(sizes)
        sizes.append(0)
        queue = deque([i])
        seen[i] = True
        while queue:
            k = queue.popleft()
            labels[edges[k]] = cid
            sizes[cid] += 1
            for j in adj[k]:
                if not seen[j]:
                    seen[j] = True
                    queue.append(j)
    return TightComponentLabeling(labels, len(sizes), tuple(sizes))
