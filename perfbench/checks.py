"""Output checkers.  Each one recomputes what it needs from the benchmark's
own edge lists, or tests a property the method guarantees; none compares
against a stored copy of an earlier output.  A failed check raises
CheckFailed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import comb

from inputs import vertex_degrees


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


class HostFacts:
    """Independently computed facts about one host, used by the checkers."""

    def __init__(self, n: int, edges):
        self.n = n
        self.edges = sorted(tuple(sorted(e)) for e in edges)
        self.edge_set = frozenset(self.edges)
        self.degrees = vertex_degrees(n, self.edges)
        pair_count: dict[tuple[int, int], int] = {}
        for a, b, c in self.edges:
            for p in ((a, b), (a, c), (b, c)):
                pair_count[p] = pair_count.get(p, 0) + 1
        self.pair_count = pair_count
        self.labels = self._tight_labels()
        self.component_count = max(self.labels, default=-1) + 1
        sizes = [0] * self.component_count
        for c in self.labels:
            sizes[c] += 1
        self.component_sizes = sizes

    def _tight_labels(self) -> list[int]:
        """Tight-component id of each edge (in sorted edge order), numbered by
        the first edge of each class; a union-find over shared pairs."""
        parent = list(range(len(self.edges)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        first_with_pair: dict[tuple[int, int], int] = {}
        for i, (a, b, c) in enumerate(self.edges):
            for p in ((a, b), (a, c), (b, c)):
                j = first_with_pair.setdefault(p, i)
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
        ids: dict[int, int] = {}
        return [ids.setdefault(find(i), len(ids)) for i in range(len(self.edges))]

    def min_degree_1(self) -> int:
        return min(self.degrees[1:])

    def min_degree_2(self) -> int:
        return min(self.pair_count.get(p, 0) for p in combinations(range(1, self.n + 1), 2))

    def largest_component(self) -> int:
        """Id of the tight component with the most edges (smallest id on ties)."""
        return max(range(self.component_count), key=lambda c: (self.component_sizes[c], -c))

    def component_edges(self, cid: int) -> list[tuple[int, int, int]]:
        return [e for e, c in zip(self.edges, self.labels) if c == cid]

    def label_of(self) -> dict[tuple[int, int, int], int]:
        return dict(zip(self.edges, self.labels))

    def link_pairs(self, v: int) -> set[tuple[int, int]]:
        return {tuple(u for u in e if u != v) for e in self.edges if v in e}

    def dense(self) -> bool:
        """Minimum vertex degree above (5/9)C(n,2)."""
        return 9 * self.min_degree_1() > 5 * comb(self.n, 2)


def check_cycle(facts: HostFacts, order, length: int | None = None) -> None:
    """Distinct in-range vertices, at least 4 of them, every cyclic window an edge."""
    order = list(order)
    require(len(order) >= 4, f"cycle of {len(order)} vertices")
    require(len(set(order)) == len(order), "cycle repeats a vertex")
    require(all(1 <= v <= facts.n for v in order), "cycle vertex out of range")
    ell = len(order)
    for i in range(ell):
        w = tuple(sorted((order[i], order[(i + 1) % ell], order[(i + 2) % ell])))
        require(w in facts.edge_set, f"cycle window {w} is not an edge")
    if length is not None:
        require(ell == length, f"cycle has {ell} vertices, expected {length}")


def check_perfect(facts: HostFacts, weights: dict, total) -> None:
    """Every vertex load exactly 1, total n/3, support inside one tight component."""
    require(bool(weights), "empty support")
    loads = [Fraction(0)] * (facts.n + 1)
    label = facts.label_of()
    comps = set()
    for e, w in weights.items():
        require(isinstance(w, Fraction), f"weight {w!r} is not a Fraction")
        require(0 < w <= 1, f"weight {w} outside (0, 1]")
        e = tuple(sorted(e))
        require(e in facts.edge_set, f"support edge {e} is not an edge")
        comps.add(label[e])
        for v in e:
            loads[v] += w
    require(all(x == 1 for x in loads[1:]), "some vertex load differs from 1")
    require(sum(weights.values()) == Fraction(facts.n, 3) == total, "total weight is not n/3")
    require(len(comps) == 1, f"support spans {len(comps)} tight components")


def check_certificate(a, edges, expected_sum=None) -> None:
    """a.1 > 0 and a(e) <= 0 on every edge; with expected_sum, a.1 must equal it."""
    require(all(isinstance(x, Fraction) for x in a), "certificate entry is not a Fraction")
    require(sum(a) > 0, f"certificate has a.1 = {sum(a)}")
    for e in edges:
        require(a[e[0] - 1] + a[e[1] - 1] + a[e[2] - 1] <= 0, f"certificate violated on {e}")
    if expected_sum is not None:
        require(sum(a) == expected_sum, f"a.1 = {sum(a)}, expected {expected_sum}")


def check_info(facts: HostFacts, text: str) -> None:
    info = json.loads(text)
    want = {
        "n": facts.n,
        "edges": len(facts.edges),
        "min_degree_1": facts.min_degree_1(),
        "min_degree_2": facts.min_degree_2(),
        "density": str(Fraction(len(facts.edges), comb(facts.n, 3))),
        "tight_components": facts.component_count,
        "tightly_connected": facts.component_count == 1,
    }
    for key, value in want.items():
        require(info.get(key) == value, f"info {key} = {info.get(key)!r}, expected {value!r}")


def check_components(facts: HostFacts, text: str) -> None:
    out = json.loads(text)
    require(out["component_count"] == facts.component_count, "component count differs")
    require(out["component_sizes"] == facts.component_sizes, "component sizes differ")
    labels = out["labels"]
    require(len(labels) == len(facts.edges), "labeling does not cover every edge")
    for row, e, c in zip(labels, facts.edges, facts.labels):
        require(tuple(row["e"]) == e and row["c"] == c, f"edge {e}: label {row} differs from {c}")


def parse_2g(text: str) -> tuple[int, set[tuple[int, int]]]:
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    require(bool(lines) and len(lines[0]) == 2 and lines[0][0] == "2", "bad .2g header")
    pairs = set()
    for parts in lines[1:]:
        require(len(parts) == 2, f"bad .2g edge line {parts}")
        pairs.add(tuple(sorted(int(x) for x in parts)))
    return int(lines[0][1]), pairs


def check_link(facts: HostFacts, v: int, text: str) -> set[tuple[int, int]]:
    n, pairs = parse_2g(text)
    require(n == facts.n, f"link graph over {n} vertices")
    require(pairs == facts.link_pairs(v), f"link pairs of {v} differ")
    return pairs


def check_match(facts: HostFacts, link_pairs: set, text: str) -> None:
    """A valid matching of the link graph; on hosts with minimum degree above
    (5/9)C(n,2) its size is at least n/3 (the dense-link lemma)."""
    out = json.loads(text)
    pairs = [tuple(p) for p in out["pairs"]]
    require(out["size"] == len(pairs), "matching size differs from its pair count")
    used = set()
    for p in pairs:
        require(tuple(sorted(p)) in link_pairs, f"matching pair {p} is not a link edge")
        require(not used & set(p), f"matching pair {p} reuses a vertex")
        used.update(p)
    if facts.dense():
        require(3 * len(pairs) >= facts.n, f"matching of size {len(pairs)} < n/3 on a dense host")


def check_pipeline(facts: HostFacts, report, t: int) -> None:
    """Every stage ok, input facts and triple count as computed here, a valid cycle."""
    require(report.ok, f"pipeline failed at stage {report.failed_stage()}")
    stages = {s.name: s.detail for s in report.stages}
    inp = stages["input"]
    require(
        (inp["n"], inp["edges"], inp["min_degree"])
        == (facts.n, len(facts.edges), facts.min_degree_1()),
        "input stage facts differ",
    )
    require(stages["reduce"]["triples"] == comb(t, 3), "reduce stage triple count differs")
    cyc = stages["cycle"]
    check_cycle(facts, cyc["order"])
    require(cyc["length"] == len(cyc["order"]), "cycle length differs from its order")
