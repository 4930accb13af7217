"""Core 3-uniform hypergraph and graph types, degrees, link graphs, text I/O.

Vertices are dense 1-based integers.  Edges are stored as ascending tuples
and the edge set is hashed, so membership tests are O(1).  Both types are
immutable by convention after construction and safe to share across workers.

Edges are checked in one place, `_canonical_edges`, which both constructors
call: arity, distinct vertices, range [1, n] and duplicates.  The text
readers check only the header and the tokens of each line and feed the
edges to the constructor, so a file obeys the same rules as an edge list.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import IO, Iterable

from .errors import InvalidArgumentError, ParseError

Edge3 = tuple[int, int, int]
Edge2 = tuple[int, int]


def _canonical_edges(n: int, edges: Iterable[Iterable[int]], k: int) -> tuple[tuple, frozenset]:
    """Check a vertex count and k-edges; return the sorted edges and their set.

    Edges are consumed in order and the first bad one raises, so a caller
    that feeds edges lazily knows which one failed.
    """
    if n < 0:
        raise InvalidArgumentError(f"vertex count must be >= 0, got {n}")
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[int, ...]] = []
    for raw in edges:
        e = tuple(sorted(raw))
        if len(e) != k or e[0] == e[1] or e[-2] == e[-1]:
            raise InvalidArgumentError(f"edge {tuple(raw)} is not {k} distinct vertices")
        if e[0] < 1 or e[-1] > n:
            raise InvalidArgumentError(f"edge {e} not inside [1, {n}]")
        if e in seen:
            raise InvalidArgumentError(f"duplicate edge {e}")
        seen.add(e)
        out.append(e)
    out.sort()  # input order, so an already sorted edge list sorts in one pass
    return tuple(out), frozenset(seen)


class Hypergraph3:
    """A 3-uniform hypergraph on vertex set {1, ..., n}."""

    def __init__(self, n: int, edges: Iterable[Iterable[int]]):
        self.edges, self.edge_set = _canonical_edges(n, edges, 3)
        self.n = n
        self._pair_index: dict[Edge2, tuple[Edge3, ...]] | None = None
        self._degrees: tuple[int, ...] | None = None
        self._tight_labeling = None  # kept by tight.tight_components

    # -- basic counts -------------------------------------------------

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
        # An edge covers 3 vertices and 3 pairs: with too few edges some
        # vertex or pair has degree 0, found without listing them all.
        if s == 1:
            return 0 if 3 * len(self.edges) < self.n else min(self.degrees[1:])
        pidx = self.pair_index
        return 0 if len(pidx) < comb(self.n, 2) else min(map(len, pidx.values()))

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
        self.edges, self.edge_set = _canonical_edges(n, edges, 2)
        self.n = n
        self._adj: dict[int, tuple[int, ...]] | None = None

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


def _read(source: str | IO[str], cls, k: int):
    """Parse a ".3g" (k = 3) or ".2g" (k = 2) document into cls(n, edges).

    Only the header and the tokens of each line are checked here; the edges
    go lazily into the constructor, whose errors become a ParseError on the
    line of the edge it was checking.
    """
    text = source if isinstance(source, str) else source.read()
    lines = enumerate(text.splitlines(), start=1)
    n = None
    for lineno, raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2 or parts[0] != str(k):
            raise ParseError(f"expected header '{k} <n>', got {line!r}", lineno)
        try:
            n = int(parts[1])
        except ValueError:
            raise ParseError(f"vertex count {parts[1]!r} is not an integer", lineno)
        break
    if n is None:
        raise ParseError("missing header line", None)
    current = lineno

    def edges():
        nonlocal current
        for current, raw in lines:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != k:
                raise ParseError(f"expected {k} vertices, got {len(parts)}", current)
            try:
                e = tuple(map(int, parts))
            except ValueError:
                raise ParseError(f"non-integer vertex in {line!r}", current)
            yield e

    try:
        return cls(n, edges())
    except InvalidArgumentError as exc:
        raise ParseError(str(exc), current) from None


def _write(k: int, n: int, edges: Iterable[tuple[int, ...]], stream: IO[str] | None) -> str:
    """Header "k n", then one edge per line; also written to stream if given."""
    row = " ".join(["%s"] * k)
    lines = [f"{k} {n}"]
    lines.extend(row % e for e in edges)
    text = "\n".join(lines) + "\n"
    if stream is not None:
        stream.write(text)
    return text


def read_hypergraph(source: str | IO[str]) -> Hypergraph3:
    """Parse a ".3g" document from a string or text stream."""
    return _read(source, Hypergraph3, 3)


def write_hypergraph(H: Hypergraph3, stream: IO[str] | None = None) -> str:
    """Serialize H canonically (header plus ascending edges); returns the text."""
    return _write(3, H.n, H.edges, stream)


def read_graph(source: str | IO[str]) -> Graph:
    """Parse a ".2g" document from a string or text stream."""
    return _read(source, Graph, 2)


def write_graph(G: Graph, stream: IO[str] | None = None) -> str:
    return _write(2, G.n, G.edges, stream)
