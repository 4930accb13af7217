"""Core 3-uniform hypergraph and graph types, degrees, link graphs, text I/O.

A 3-graph H and the link graphs of its vertices, which are 2-graphs on the
same vertex set, share one k-uniform body, with the arity k a class
attribute.  Vertices are dense 1-based integers.  Edges are stored as
ascending tuples and the edge set is hashed, so membership tests are O(1).
Both types are immutable by convention after construction and safe to share
across workers.

Indices are cached properties, built on first use: a 3-graph's `degrees`,
and `completions`, its one pair table, which holds for each pair {a, b} the
bitmask of the c with abc an edge (a codegree is its popcount); a graph's
`adjacency`.  `link_graph` scans the edges instead: one link graph of a
fresh host costs less than building the table.  The pair table has (n+1)^2
entries, so code that builds it only to save time does so when
`_may_cover(2)`, which says the table is O(e).

Edges are checked in one place, `_canonical_edges`, which both constructors
call: arity, distinct vertices, range [1, n] and duplicates.  An edge given
as an exact tuple in strictly ascending order is kept as given, so the graph
shares it with the caller, which is safe because tuples are immutable; any
other edge is stored as a sorted copy.  The text readers check only the
header and the tokens of each line and feed the edges to the constructor, so
a file obeys the same rules as an edge list.

A reader takes a canonical body, rows of k ASCII digit runs joined by single
spaces and each ended by a newline, about 64 KiB at a time: one regex match
checks a chunk, one `split` tokenises it, and each distinct token is turned
into an int once.  Any other text, and any file the constructor rejects,
goes through the line loop from the top, which splits each line once and
gives every error its message and line number.
"""

from __future__ import annotations

import itertools
import re
from functools import cached_property
from math import comb
from typing import Iterable

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
        e = raw
        # k is 2 or 3, so e[0] < e[1] and e[-2] < e[-1] says "strictly
        # ascending": such an exact tuple is kept, any other edge is sorted
        if type(e) is not tuple or len(e) != k or not (e[0] < e[1] and e[-2] < e[-1]):
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


class _KUniform:
    """What a 3-graph and a graph share: k-edges on vertex set {1, ..., n}."""

    k: int  # the arity, set by each subclass

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def __contains__(self, e) -> bool:
        return tuple(sorted(e)) in self.edge_set

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, e={len(self.edges)})"


class Hypergraph3(_KUniform):
    """A 3-uniform hypergraph on vertex set {1, ..., n}."""

    k = 3

    def __init__(self, n: int, edges: Iterable[Iterable[int]]):
        self.edges, self.edge_set = _canonical_edges(n, edges, self.k)
        self.n = n
        self._tight_labeling = None  # kept by tight.tight_components

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Vertex degrees indexed by vertex; entry 0 is an unused 0."""
        degs = [0] * (self.n + 1)
        for e in self.edges:
            for v in e:
                degs[v] += 1
        return tuple(degs)

    @cached_property
    def completions(self) -> list[list[int]]:
        """Codegrees as bitmasks: completions[a][b] == completions[b][a] has
        bit c-1 set exactly when {a, b, c} is an edge; rows and columns run
        0..n, and row and column 0 are zero."""
        n1 = self.n + 1
        bit = [0] + [1 << v for v in range(self.n)]  # bit[c] == 1 << (c - 1)
        comp = [[0] * n1 for _ in range(n1)]
        # the edges ascend, so this fills the entries above the diagonal...
        for a, b, c in self.edges:
            row = comp[a]
            row[b] |= bit[c]
            row[c] |= bit[b]
            comp[b][c] |= bit[a]
        # ...and row y below it is column y above it
        for y, column in enumerate(zip(*comp)):
            comp[y][:y] = column[:y]
        return comp

    def _may_cover(self, s: int) -> bool:
        """Whether there are edges enough to cover every s-subset, s in {1, 2}.

        An edge covers 3 vertices and 3 pairs, so with fewer than C(n, s)/3
        edges some vertex or pair has degree 0.  For s = 2 the answer also
        says that the (n+1)^2 pair table `completions` is O(e)."""
        return 3 * len(self.edges) >= comb(self.n, s)

    def min_degree(self, s: int = 1) -> int:
        """Minimum number of edges containing an s-subset of the vertex set,
        for s in {1, 2}; 0 when n < s, as there is no s-subset."""
        if s not in (1, 2):
            raise InvalidArgumentError(f"s must be 1 or 2, got {s}")
        # a vertex or pair of degree 0 is found without listing them all
        if self.n < s or not self._may_cover(s):
            return 0
        if s == 1:
            return min(self.degrees[1:])
        comp = self.completions
        return min(comp[a][b].bit_count() for a, b in itertools.combinations(self.vertices(), 2))

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


class Graph(_KUniform):
    """A simple graph on vertex set {1, ..., n}."""

    k = 2

    def __init__(self, n: int, edges: Iterable[Iterable[int]]):
        self.edges, self.edge_set = _canonical_edges(n, edges, self.k)
        self.n = n

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """The sorted neighbours of each vertex."""
        adj: dict[int, list[int]] = {v: [] for v in range(1, self.n + 1)}
        # the edges ascend, so v meets every (u, v) with u < v, in ascending
        # u, before every (v, w), in ascending w: each list arrives sorted
        for u, w in self.edges:
            adj[u].append(w)
            adj[w].append(u)
        return {v: tuple(ns) for v, ns in adj.items()}


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


CHUNK = 1 << 16  # characters of body per chunk, before the cut at a newline

# Per arity k: a canonical head, blank or '#' comment lines and then the
# header "k <n>", and canonical body rows.  A comment may hold no character
# at which str.splitlines breaks a line, so the head has the lines that the
# line loop would read.
_CANONICAL = {
    k: (re.compile(rf"(?:(?:#[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*)?\n)*{k} ([0-9]+)\n"),
        re.compile(rf"(?:[0-9]+(?: [0-9]+){{{k - 1}}}\n)*"))
    for k in (2, 3)
}


def _read(text: str, cls):
    """Parse a ".3g" or ".2g" document into cls(n, edges), k = cls.k."""
    G = _read_chunks(text, cls)
    return _read_lines(text, cls) if G is None else G


def _read_chunks(text: str, cls):
    """cls(n, edges) from a canonical document, reading its body about CHUNK
    characters at a time, each chunk cut after a newline; None when any part
    of the text is not canonical or the constructor rejects the edges, so
    that the line loop reads it and reports the error."""
    head, rows = _CANONICAL[cls.k]
    m = head.match(text)
    if m is None:
        return None
    edges: list[tuple] = []
    pos = m.end()
    try:
        while pos < len(text):
            end = text.find("\n", pos + CHUNK) + 1 or len(text)
            chunk = text[pos:end]
            if rows.fullmatch(chunk) is None:
                return None
            toks = chunk.split()
            ints = {x: int(x) for x in set(toks)}
            it = map(ints.__getitem__, toks)
            edges += zip(*[it] * cls.k)
            pos = end
        return cls(int(m[1]), edges)
    except (ValueError, InvalidArgumentError):  # int() refuses an over-long digit run
        return None


def _read_lines(text: str, cls):
    """The line loop: only the header and the tokens of each line are
    checked here; the edges go lazily into the constructor, whose errors
    become a ParseError on the line of the edge it was checking."""
    k = cls.k
    lines = enumerate(text.splitlines(), start=1)
    n = None
    for lineno, raw in lines:
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) != 2 or parts[0] != str(k):
            raise ParseError(f"expected header '{k} <n>', got {raw.strip()!r}", lineno)
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
            parts = raw.split()
            if not parts or parts[0][0] == "#":
                continue
            if len(parts) != k:
                raise ParseError(f"expected {k} vertices, got {len(parts)}", current)
            try:
                e = tuple(map(int, parts))
            except ValueError:
                raise ParseError(f"non-integer vertex in {raw.strip()!r}", current)
            yield e

    try:
        return cls(n, edges())
    except InvalidArgumentError as exc:
        raise ParseError(str(exc), current) from None


def _write(G: _KUniform) -> str:
    """Header "k n", then one edge per line."""
    row = " ".join(["%s"] * G.k)
    lines = [f"{G.k} {G.n}"]
    lines.extend(row % e for e in G.edges)
    return "\n".join(lines) + "\n"


def read_hypergraph(text: str) -> Hypergraph3:
    """Parse a ".3g" document."""
    return _read(text, Hypergraph3)


def write_hypergraph(H: Hypergraph3) -> str:
    """Serialize H canonically (header plus ascending edges)."""
    return _write(H)


def read_graph(text: str) -> Graph:
    """Parse a ".2g" document."""
    return _read(text, Graph)


def write_graph(G: Graph) -> str:
    return _write(G)
