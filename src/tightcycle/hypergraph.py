"""Core 3-uniform hypergraph and graph types, degrees, link graphs, text I/O.

Vertices are dense 1-based integers.  Edges are stored as ascending tuples
and the edge set is hashed, so membership tests are O(1).  Both types are
immutable by convention after construction and safe to share across workers.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import IO, Iterable

from .errors import InvalidArgumentError, ParseError

Edge3 = tuple[int, int, int]
Edge2 = tuple[int, int]


class Hypergraph3:
    """A 3-uniform hypergraph on vertex set {1, ..., n}."""

    def __init__(self, n: int, edges: Iterable[Iterable[int]]):
        if n < 0:
            raise InvalidArgumentError(f"vertex count must be >= 0, got {n}")
        self.n = n
        canon: list[Edge3] = []
        seen: set[Edge3] = set()
        for raw in edges:
            e = tuple(sorted(raw))
            if len(e) != 3 or e[0] == e[1] or e[1] == e[2]:
                raise InvalidArgumentError(f"edge {tuple(raw)} is not 3 distinct vertices")
            if e[0] < 1 or e[2] > n:
                raise InvalidArgumentError(f"edge {e} not inside [1, {n}]")
            if e in seen:
                raise InvalidArgumentError(f"duplicate edge {e}")
            seen.add(e)
            canon.append(e)  # type: ignore[arg-type]
        canon.sort()
        self.edges: tuple[Edge3, ...] = tuple(canon)
        self.edge_set: frozenset[Edge3] = frozenset(canon)
        self._pair_index: dict[Edge2, tuple[Edge3, ...]] | None = None
        self._degrees: tuple[int, ...] | None = None

    # -- basic counts -------------------------------------------------

    def num_edges(self) -> int:
        return len(self.edges)

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def __contains__(self, e) -> bool:
        return tuple(sorted(e)) in self.edge_set

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hypergraph3)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph3(n={self.n}, e={len(self.edges)})"

    # -- degrees ------------------------------------------------------

    @property
    def pair_index(self) -> dict[Edge2, tuple[Edge3, ...]]:
        """Map from each 2-subset that occurs in an edge to the edges containing it."""
        if self._pair_index is None:
            idx: dict[Edge2, list[Edge3]] = {}
            for e in self.edges:
                a, b, c = e
                idx.setdefault((a, b), []).append(e)
                idx.setdefault((a, c), []).append(e)
                idx.setdefault((b, c), []).append(e)
            self._pair_index = {p: tuple(v) for p, v in idx.items()}
        return self._pair_index

    @property
    def degrees(self) -> tuple[int, ...]:
        """Vertex degrees indexed by vertex; entry 0 is an unused 0."""
        if self._degrees is None:
            degs = [0] * (self.n + 1)
            for e in self.edges:
                for v in e:
                    degs[v] += 1
            self._degrees = tuple(degs)
        return self._degrees

    def degree(self, S: Iterable[int]) -> int:
        """Number of edges containing the 1- or 2-element vertex set S."""
        s = tuple(sorted(set(S)))
        if len(s) not in (1, 2):
            raise InvalidArgumentError(f"degree is defined for |S| in {{1,2}}, got {s}")
        if s[0] < 1 or s[-1] > self.n:
            raise InvalidArgumentError(f"S={s} not inside [1, {self.n}]")
        if len(s) == 2:
            return len(self.pair_index.get((s[0], s[1]), ()))
        return self.degrees[s[0]]

    def min_degree(self, s: int = 1) -> int:
        """Minimum of degree() over all s-subsets of the vertex set."""
        if s not in (1, 2):
            raise InvalidArgumentError(f"s must be 1 or 2, got {s}")
        if self.n < s:
            raise InvalidArgumentError(f"n={self.n} < s={s}")
        if s == 1:
            return min(self.degrees[1:])
        pidx = self.pair_index
        return min(
            len(pidx.get(p, ()))
            for p in itertools.combinations(range(1, self.n + 1), 2)
        )

    def link_graph(self, v: int) -> "Graph":
        """Link graph of v on the full vertex set (v itself stays, isolated)."""
        if not 1 <= v <= self.n:
            raise InvalidArgumentError(f"vertex {v} not inside [1, {self.n}]")
        pairs = []
        for e in self.edges:
            if v in e:
                rest = tuple(u for u in e if u != v)
                pairs.append(rest)
        return Graph(self.n, pairs)


class Graph:
    """A simple graph on vertex set {1, ..., n}."""

    def __init__(self, n: int, edges: Iterable[Iterable[int]]):
        if n < 0:
            raise InvalidArgumentError(f"vertex count must be >= 0, got {n}")
        self.n = n
        canon: list[Edge2] = []
        seen: set[Edge2] = set()
        for raw in edges:
            e = tuple(sorted(raw))
            if len(e) != 2 or e[0] == e[1]:
                raise InvalidArgumentError(f"edge {tuple(raw)} is not 2 distinct vertices")
            if e[0] < 1 or e[1] > n:
                raise InvalidArgumentError(f"edge {e} not inside [1, {n}]")
            if e in seen:
                raise InvalidArgumentError(f"duplicate edge {e}")
            seen.add(e)
            canon.append(e)  # type: ignore[arg-type]
        canon.sort()
        self.edges: tuple[Edge2, ...] = tuple(canon)
        self.edge_set: frozenset[Edge2] = frozenset(canon)
        self._adj: dict[int, tuple[int, ...]] | None = None

    def num_edges(self) -> int:
        return len(self.edges)

    def vertices(self) -> range:
        return range(1, self.n + 1)

    @property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        if self._adj is None:
            adj: dict[int, list[int]] = {v: [] for v in range(1, self.n + 1)}
            for u, w in self.edges:
                adj[u].append(w)
                adj[w].append(u)
            self._adj = {v: tuple(sorted(ns)) for v, ns in adj.items()}
        return self._adj

    def degree(self, v: int) -> int:
        if not 1 <= v <= self.n:
            raise InvalidArgumentError(f"vertex {v} not inside [1, {self.n}]")
        return len(self.adjacency[v])

    def __contains__(self, e) -> bool:
        return tuple(sorted(e)) in self.edge_set

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, e={len(self.edges)})"


def complete_3graph(n: int) -> Hypergraph3:
    return Hypergraph3(n, itertools.combinations(range(1, n + 1), 3))


def complete_graph(n: int) -> Graph:
    return Graph(n, itertools.combinations(range(1, n + 1), 2))


def density(H: Hypergraph3):
    """Edge density e(H) / C(n, 3) as a Fraction (0 on fewer than 3 vertices)."""
    from fractions import Fraction

    total = comb(H.n, 3)
    if total == 0:
        return Fraction(0)
    return Fraction(len(H.edges), total)


# ---------------------------------------------------------------------------
# Text formats.  ".3g": header "3 <n>", one edge per line, '#' starts a
# comment line, blank lines ignored.  ".2g" is the same with header "2 <n>".
# ---------------------------------------------------------------------------


def _parse_lines(text: str, arity: int) -> tuple[int, list[tuple[int, ...]]]:
    n = None
    edges: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != str(arity):
                raise ParseError(f"expected header '{arity} <n>', got {line!r}", lineno)
            try:
                n = int(parts[1])
            except ValueError:
                raise ParseError(f"vertex count {parts[1]!r} is not an integer", lineno)
            if n < 0:
                raise ParseError(f"vertex count must be >= 0, got {n}", lineno)
            continue
        if len(parts) != arity:
            raise ParseError(f"expected {arity} vertices, got {len(parts)}", lineno)
        try:
            vs = tuple(sorted(int(p) for p in parts))
        except ValueError:
            raise ParseError(f"non-integer vertex in {line!r}", lineno)
        if len(set(vs)) != arity:
            raise ParseError(f"repeated vertex in edge {vs}", lineno)
        if vs[0] < 1 or vs[-1] > n:
            raise ParseError(f"edge {vs} not inside [1, {n}]", lineno)
        if vs in seen:
            raise ParseError(f"duplicate edge {vs}", lineno)
        seen.add(vs)
        edges.append(vs)
    if n is None:
        raise ParseError("missing header line", None)
    return n, edges


def _read_text(source: str | IO[str]) -> str:
    if isinstance(source, str):
        return source
    return source.read()


def read_hypergraph(source: str | IO[str]) -> Hypergraph3:
    """Parse a ".3g" document from a string or text stream."""
    n, edges = _parse_lines(_read_text(source), 3)
    return Hypergraph3(n, edges)


def write_hypergraph(H: Hypergraph3, stream: IO[str] | None = None) -> str:
    """Serialize H canonically (header plus ascending edges); returns the text."""
    lines = [f"3 {H.n}"]
    lines.extend(f"{a} {b} {c}" for a, b, c in H.edges)
    text = "\n".join(lines) + "\n"
    if stream is not None:
        stream.write(text)
    return text


def read_graph(source: str | IO[str]) -> Graph:
    """Parse a ".2g" document from a string or text stream."""
    n, edges = _parse_lines(_read_text(source), 2)
    return Graph(n, edges)


def write_graph(G: Graph, stream: IO[str] | None = None) -> str:
    lines = [f"2 {G.n}"]
    lines.extend(f"{a} {b}" for a, b in G.edges)
    text = "\n".join(lines) + "\n"
    if stream is not None:
        stream.write(text)
    return text
