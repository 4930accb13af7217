"""Graph matchings, component extraction, and the dense-pair meet verifier.

max_matching is a maximum-cardinality blossom search (general graphs; link
graphs are arbitrary).  graphmeet_verify checks, constructively, the four
facts that hold for the largest components of two graphs on a common vertex
set once both are denser than 5/9: each covers more than 2n/3 vertices,
each keeps more than (4/9)C(n,2) edges, each contains a matching of size
n/3, and the two components share an edge.  Its report holds the evidence
only; the four verdicts are worked out from it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import InvalidArgumentError, PreconditionError
from .generators import min_degree_bound
from .hypergraph import Edge2, Graph


@dataclass(frozen=True)
class GraphMatching:
    """A set of pairwise-disjoint edges of a host graph."""

    pairs: tuple[Edge2, ...]

    @property
    def size(self) -> int:
        return len(self.pairs)

    def validate(self, G: Graph) -> None:
        seen: set[int] = set()
        for p in self.pairs:
            if p not in G.edge_set:
                raise InvalidArgumentError(f"matching pair {p} is not an edge")
            if p[0] in seen or p[1] in seen:
                raise InvalidArgumentError(f"matching pair {p} reuses a vertex")
            seen.update(p)


def _find_augmenting_path(n, adj, match, root):
    """One blossom phase: grow an alternating tree from `root`, contracting
    odd cycles via the `base` array; augments `match` in place on success."""
    p = [0] * (n + 1)
    base = list(range(n + 1))
    used = [False] * (n + 1)
    used[root] = True
    queue = deque([root])

    def lca(a, b):
        mark = [False] * (n + 1)
        while True:
            a = base[a]
            mark[a] = True
            if match[a] == 0:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if mark[b]:
                return b
            b = p[match[b]]

    def mark_path(v, b, child, blossom):
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != 0 and p[match[to]] != 0):
                cur = lca(v, to)
                blossom = [False] * (n + 1)
                mark_path(v, cur, to, blossom)
                mark_path(to, cur, v, blossom)
                for i in range(1, n + 1):
                    if blossom[base[i]]:
                        base[i] = cur
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
            elif p[to] == 0:
                p[to] = v
                if match[to] == 0:
                    while to != 0:
                        pv = p[to]
                        ppv = match[pv]
                        match[to] = pv
                        match[pv] = to
                        to = ppv
                    return True
                used[match[to]] = True
                queue.append(match[to])
    return False


def max_matching(G: Graph) -> GraphMatching:
    """A maximum-cardinality matching of G (deterministic for fixed input)."""
    n = G.n
    adj = G.adjacency
    match = [0] * (n + 1)
    for v in range(1, n + 1):
        if match[v] == 0:
            _find_augmenting_path(n, adj, match, v)
    # v ascends and each pair is (smaller, larger), so the pairs come sorted
    pairs = tuple((v, match[v]) for v in range(1, n + 1) if 0 < v < match[v])
    return GraphMatching(pairs)


def erdos_gallai_threshold(N: int, k: int) -> int:
    """Edge count above which every graph on N vertices has a matching of size k.

    Returns max{C(2k-1, 2), C(k-1, 2) + (k-1)(N-k+1)}; the guarantee is for
    e(G) strictly above the returned value.
    """
    if k < 1 or N < 2 * k - 1:  # so N >= 1 too
        raise InvalidArgumentError(f"threshold needs k >= 1 and N >= 2k-1, got N={N}, k={k}")
    return max(comb(2 * k - 1, 2), comb(k - 1, 2) + (k - 1) * (N - k + 1))


def erdos_gallai_thresholds(N: int) -> dict[int, int]:
    """k -> erdos_gallai_threshold(N, k) for every k >= 1 with N >= 2k-1."""
    return {k: erdos_gallai_threshold(N, k) for k in range(1, (N + 1) // 2 + 1)}


def connected_components(G: Graph) -> list[tuple[frozenset[int], frozenset[Edge2]]]:
    """All connected components as (vertex set, edge set) pairs.

    Singletons are included.  Components are listed by smallest contained
    vertex, so the output is deterministic.
    """
    adj = G.adjacency
    seen: set[int] = set()
    out: list[tuple[frozenset[int], frozenset[Edge2]]] = []
    for v in range(1, G.n + 1):
        if v in seen:
            continue
        queue = deque([v])
        seen.add(v)
        vs: set[int] = {v}
        es: list[Edge2] = []
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if x < y:
                    es.append((x, y))
                if y not in seen:
                    seen.add(y)
                    vs.add(y)
                    queue.append(y)
        out.append((frozenset(vs), frozenset(es)))
    return out


def largest_component(G: Graph) -> tuple[frozenset[int], frozenset[Edge2]]:
    """The component with the most vertices; ties go to the lexicographically
    smallest vertex set.  Raises on an edgeless graph."""
    if not G.edges:
        raise InvalidArgumentError("no component: graph has no edges")
    # Components are disjoint and listed by smallest vertex, so the first of
    # the largest, which `min` keeps, has the smallest vertex set.
    return min(connected_components(G), key=lambda c: -len(c[0]))


@dataclass(frozen=True)
class GraphMeetReport:
    """Constructive evidence for the four dense-pair component facts.

    The verdicts, and alpha and beta (the uncovered-vertex proportions
    1 - v(C_i)/n), are worked out from the evidence fields.
    """

    n: int
    precondition_met: bool
    edge_counts: tuple[int, int]
    component_vertices: tuple[frozenset[int], frozenset[int]]
    component_edges: tuple[frozenset[Edge2], frozenset[Edge2]]
    matchings: tuple[GraphMatching, GraphMatching]
    shared_edge: Edge2 | None

    @property
    def verdict_cover(self) -> tuple[bool, ...]:
        return tuple(3 * len(cv) > 2 * self.n for cv in self.component_vertices)

    @property
    def verdict_edges(self) -> tuple[bool, ...]:
        return tuple(9 * len(ce) > 4 * comb(self.n, 2) for ce in self.component_edges)

    @property
    def verdict_matching(self) -> tuple[bool, ...]:
        # graphmeet_verify truncates a matching to n/3 edges when 3 | n
        return tuple(self.n % 3 == 0 and m.size == self.n // 3 for m in self.matchings)

    @property
    def verdict_shared(self) -> bool:
        return self.shared_edge is not None

    @property
    def alpha(self) -> Fraction:
        return Fraction(self.n - len(self.component_vertices[0]), self.n)

    @property
    def beta(self) -> Fraction:
        return Fraction(self.n - len(self.component_vertices[1]), self.n)

    def all_verdicts(self) -> bool:
        return (
            all(self.verdict_cover)
            and all(self.verdict_edges)
            and all(self.verdict_matching)
            and self.verdict_shared
        )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "precondition_met": self.precondition_met,
            "edge_counts": list(self.edge_counts),
            "component_sizes": [len(v) for v in self.component_vertices],
            "component_edge_counts": [len(e) for e in self.component_edges],
            "matching_sizes": [m.size for m in self.matchings],
            "shared_edge": list(self.shared_edge) if self.shared_edge else None,
            "alpha": str(self.alpha),
            "beta": str(self.beta),
            "verdicts": {
                "cover": list(self.verdict_cover),
                "edges": list(self.verdict_edges),
                "matching": list(self.verdict_matching),
                "shared": self.verdict_shared,
            },
            "all_true": self.all_verdicts(),
        }


def graphmeet_verify(G1: Graph, G2: Graph, observe: bool = False) -> GraphMeetReport:
    """Check the four largest-component facts for a pair of dense graphs.

    Preconditions: common vertex count n with 3 | n, and both edge counts
    strictly above (5/9)C(n,2).  With observe=True a failed precondition is
    recorded in the report instead of raising, for tightness exploration.
    """
    if G1.n != G2.n:
        raise InvalidArgumentError(f"vertex counts differ: {G1.n} vs {G2.n}")
    n = G1.n
    bound = min_degree_bound(n)
    pre = n % 3 == 0 and len(G1.edges) >= bound and len(G2.edges) >= bound
    if not pre and not observe:
        raise PreconditionError(
            f"need 3 | n and e(G_i) > (5/9)C({n},2); got e = "
            f"{len(G1.edges)}, {len(G2.edges)}"
        )

    comps = [largest_component(G) for G in (G1, G2)]
    matchings = [max_matching(Graph(n, ce)) for _, ce in comps]
    if n % 3 == 0:  # a matching of n/3 edges is the evidence
        matchings = [GraphMatching(mm.pairs[: n // 3]) for mm in matchings]
    return GraphMeetReport(
        n=n,
        precondition_met=pre,
        edge_counts=(len(G1.edges), len(G2.edges)),
        component_vertices=(comps[0][0], comps[1][0]),
        component_edges=(comps[0][1], comps[1][1]),
        matchings=(matchings[0], matchings[1]),
        shared_edge=min(comps[0][1] & comps[1][1], default=None),
    )


def _union_find_components(G: Graph) -> list[tuple[frozenset[int], frozenset[Edge2]]]:
    """Components by union-find over the edge list; shares no code with
    connected_components, so it can re-check what that function found."""
    root = list(range(G.n + 1))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for a, b in G.edges:
        root[find(a)] = find(b)
    groups: dict[int, tuple[set[int], set[Edge2]]] = {}
    for v in range(1, G.n + 1):
        groups.setdefault(find(v), (set(), set()))[0].add(v)
    for e in G.edges:
        groups[find(e[0])][1].add(e)
    return [(frozenset(vs), frozenset(es)) for vs, es in groups.values()]


def reverify_graphmeet(G1: Graph, G2: Graph, report: GraphMeetReport) -> list[str]:
    """Independently re-check the evidence in a GraphMeetReport.

    Returns a list of discrepancy strings (empty when everything holds).
    Components are recomputed by union-find, not by the verifier's
    connected_components.
    """
    problems: list[str] = []
    for i, G in enumerate((G1, G2)):
        cv, ce = report.component_vertices[i], report.component_edges[i]
        # evidence edges must live in G and inside the claimed vertex set
        for e in ce:
            if e not in G.edge_set:
                problems.append(f"G{i+1}: component edge {e} not in graph")
            if e[0] not in cv or e[1] not in cv:
                problems.append(f"G{i+1}: component edge {e} leaves vertex set")
        # connectivity and maximality via recomputation
        comps = _union_find_components(G)
        if (cv, ce) not in comps:
            problems.append(f"G{i+1}: claimed component is not a component")
        if any(len(c[0]) > len(cv) for c in comps):
            problems.append(f"G{i+1}: claimed component is not largest")
        mm = report.matchings[i]
        try:
            mm.validate(G)
        except InvalidArgumentError as exc:
            problems.append(f"G{i+1}: {exc}")
        if report.verdict_matching[i] and any(p not in ce for p in mm.pairs):
            problems.append(f"G{i+1}: matching leaves the component")
    if report.verdict_shared:
        se = report.shared_edge
        if se not in report.component_edges[0] or se not in report.component_edges[1]:
            problems.append("shared edge evidence invalid")
    return problems
