"""The pair-id union-find against the edge union-find it replaced.

`_edge_union_find` is the earlier `tight.tight_components`, kept here as the
oracle: a union-find over edge indices that joins the edges of each
`pair_groups` group.  On a seeded corpus the current labeling must be `==`
to it and to `naive_tight_components`, a quadratic pairwise BFS, with the
same dict order (canonical edge order), so every caller sees the same
component ids.  `test_tight.py` imports `naive_tight_components` and
`pair_groups` from here.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

from tightcycle.generators import extremal
from tightcycle.hypergraph import Edge3, Hypergraph3
from tightcycle.tight import TightComponentLabeling, tight_components


class _UnionFind:
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


def pair_groups(H: Hypergraph3) -> dict[tuple[int, int], list[Edge3]]:
    """Each pair that lies in an edge -> the edges containing it, in
    canonical edge order."""
    groups: dict[tuple[int, int], list[Edge3]] = {}
    for e in H.edges:
        a, b, c = e
        for pair in ((a, b), (a, c), (b, c)):
            groups.setdefault(pair, []).append(e)
    return groups


def _edge_union_find(H: Hypergraph3) -> TightComponentLabeling:
    m = len(H.edges)
    index = {e: i for i, e in enumerate(H.edges)}
    uf = _UnionFind(m)
    for group in pair_groups(H).values():
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


def _assert_same(H: Hypergraph3, naive: bool = True) -> TightComponentLabeling:
    got = tight_components(H)
    old = _edge_union_find(H)
    assert got == old
    assert list(got.labels) == list(old.labels) == list(H.edges)
    if naive:
        assert got == naive_tight_components(H)
    return got


def _random_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int, int]]:
    return [t for t in itertools.combinations(range(1, n + 1), 3) if rng.random() < p]


def test_random_hosts():
    rng = random.Random(20260911)
    counts = set()
    for _ in range(120):
        n = rng.randint(0, 14)
        p = rng.choice((0.01, 0.03, 0.06, 0.1, 0.2, 0.5))
        counts.add(_assert_same(Hypergraph3(n, _random_edges(n, p, rng))).component_count)
    assert max(counts) >= 4  # many-component labelings occur


def test_sparse_hosts_on_many_vertices():
    # Few edges over many vertices: the parent map holds only the pairs
    # present, so n up to 10^6 costs nothing beyond the edges.
    rng = random.Random(20260912)
    for n in (200, 5_000, 10**6):
        for m in (1, 10, 60):
            edges = set()
            while len(edges) < m:
                edges.add(tuple(sorted(rng.sample(range(1, n + 1), 3))))
            _assert_same(Hypergraph3(n, edges))
        # chains and stars of tightly adjacent edges among the first vertices
        chain = [(i, i + 1, i + 2) for i in range(1, 40)]
        _assert_same(Hypergraph3(n, chain + [(1, 2, v) for v in range(50, 80)]))


def test_dense_and_extremal_hosts():
    rng = random.Random(20260913)
    for n, a in ((9, 2), (12, 3), (15, 4)):
        _assert_same(extremal(n, a).hypergraph)
    for n in (30, 45):
        _assert_same(Hypergraph3(n, _random_edges(n, 0.3, rng)), naive=False)
