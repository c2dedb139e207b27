"""Bitmask-backed undirected simple graphs and their two text encodings.

Vertices are 0-indexed integers; ``adj[v]`` is an int whose bit ``u`` is set
iff ``{u, v}`` is an edge. With at most 64 vertices every neighbour set fits
in one machine word, so subgraph tests reduce to mask intersections.

All file formats and user-facing output are 1-indexed; only the in-memory
representation is 0-indexed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

MAX_VERTICES = 64


class ParseError(ValueError):
    """Malformed adjacency-list or graph6 input."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph on vertices 0..n-1.

    complement_rows holds the adjacency rows of complement(self). It is
    filled when the graph is built and takes no part in equality, hashing
    or repr. A chain of toggle_edge calls builds it once, at its start: each
    child is handed its parent's rows with the flip's two bits changed."""

    n: int
    adj: tuple[int, ...]
    complement_rows: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if type(self.n) is not int:
            raise ValueError(f"vertex count must be an int, got {self.n!r}")
        if not isinstance(self.adj, tuple) or any(type(m) is not int for m in self.adj):
            raise ValueError("adjacency table must be a tuple of int rows")
        if not 1 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {self.n}")
        if len(self.adj) != self.n:
            raise ValueError(f"adjacency table has {len(self.adj)} rows for n={self.n}")
        full = (1 << self.n) - 1
        for v, mask in enumerate(self.adj):
            if mask & ~full:
                raise ValueError(f"vertex {v} has a neighbour outside 0..{self.n - 1}")
            if mask >> v & 1:
                raise ValueError(f"vertex {v} has a self-loop")
        for v, mask in enumerate(self.adj):
            m = mask
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        object.__setattr__(self, "complement_rows", _complement_rows(self.n, self.adj))

    @classmethod
    def _derived(
        cls, n: int, adj: tuple[int, ...], complement_rows: tuple[int, ...] | None = None
    ) -> "Graph":
        """Build a Graph without __post_init__'s checks.

        Precondition: adj is a valid adjacency table for n vertices, as
        Graph(n, adj) would accept: a tuple of n int rows within 0..n-1, no
        self-loops, symmetric. Only rows derived from a valid Graph, or
        symmetric by construction, may come through here; every outside
        input goes through Graph(n, adj) or a parser. complement_rows, when
        given, must equal the complement_rows that Graph(n, adj) would
        compute, and is stored as it is; None computes them from adj.
        """
        if complement_rows is None:
            complement_rows = _complement_rows(n, adj)
        g = object.__new__(cls)
        g.__dict__.update(n=n, adj=adj, complement_rows=complement_rows)
        return g

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, (0,) * n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls(n, tuple(full ^ (1 << v) for v in range(n)))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(v, (v + 1) % n) for v in range(n)])

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop ({u}, {v})")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.adj)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self.adj[v]))

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            m = self.adj[v] >> (v + 1) << (v + 1)
            out.extend((v, u) for u in _bits(m))
        return out

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2


def _complement_rows(n: int, adj: tuple[int, ...]) -> tuple[int, ...]:
    """Adjacency rows of the complement of the graph of rows adj."""
    full = (1 << n) - 1
    return tuple(full ^ m ^ (1 << v) for v, m in enumerate(adj))


def _bits(mask: int):
    """Yield set bit positions of mask in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def toggle_edge(g: Graph, u: int, v: int) -> Graph:
    """Return a copy of g with the edge {u, v} flipped (present <-> absent).

    The flip changes the same two bits of the complement, so the copy gets
    g's complement_rows with those bits flipped instead of all n rows rebuilt."""
    if u == v:
        raise ValueError("cannot toggle a self-loop")
    if not (type(u) is type(v) is int and 0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"vertices must be ints in 0..{g.n - 1}, got ({u!r}, {v!r})")
    bu, bv = 1 << u, 1 << v
    adj, comp = list(g.adj), list(g.complement_rows)
    adj[u] ^= bv
    adj[v] ^= bu
    comp[u] ^= bv
    comp[v] ^= bu
    return Graph._derived(g.n, tuple(adj), tuple(comp))


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Induced subgraph on the given vertex set, relabelled 0..|s|-1 in ascending order."""
    vs = sorted(set(vertices))
    if not vs:
        raise ValueError("induced subgraph needs at least one vertex")
    if vs[0] < 0 or vs[-1] >= g.n:
        raise ValueError(f"vertex set not within 0..{g.n - 1}")
    adj = [0] * len(vs)
    for i, v in enumerate(vs):
        for j in range(i + 1, len(vs)):
            if g.adj[v] >> vs[j] & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph._derived(len(vs), tuple(adj))


def delete_vertex(g: Graph, v: int) -> tuple[Graph, tuple[int, ...]]:
    """Delete vertex v; labels above v shift down by one.

    Returns (graph, labels) where labels[i] is the original index of new
    vertex i, so violations found in the smaller graph can be reported in
    the original labelling.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    if g.n < 2:
        raise ValueError("cannot delete the last vertex")
    keep = tuple(u for u in range(g.n) if u != v)
    return induced_subgraph(g, keep), keep


def complement(g: Graph) -> Graph:
    return Graph._derived(g.n, g.complement_rows, g.adj)


@dataclass(frozen=True)
class ParseReport:
    """Result of adjacency-list ingestion.

    warnings holds one (u, v, reason) triple per reconciled irregularity,
    with u, v in the file's 1-indexed labels. An empty list means the input
    was symmetric and well-formed.
    """

    graph: Graph
    warnings: tuple[tuple[int, int, str], ...] = field(default=())


_ROW_RE = re.compile(r"^(\d+)\s*:\s*(.*)$")


def parse_adjacency_list(text: str) -> ParseReport:
    """Parse 1-indexed ``v:n1 n2 ...`` rows into a graph.

    Vertex rows must be numbered 1..n (one row per vertex, any order). An
    edge is included if it appears in either endpoint's row; every one-sided
    entry is reconciled by union and recorded as a warning rather than
    rejected, since hand-maintained lists routinely drop one direction.
    """
    rows: dict[int, list[int]] = {}
    row_line: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        m = _ROW_RE.match(line)
        if not m:
            raise ParseError(f"expected '<v>:<neighbours>', got {line!r}", lineno)
        v = int(m.group(1))
        if v in rows:
            raise ParseError(f"duplicate row for vertex {v}", lineno)
        try:
            nbrs = [int(tok) for tok in m.group(2).split()]
        except ValueError:
            raise ParseError(f"non-integer neighbour in {line!r}", lineno) from None
        rows[v] = nbrs
        row_line[v] = lineno
    if not rows:
        raise ParseError("no vertex rows found")
    n = len(rows)
    if sorted(rows) != list(range(1, n + 1)):
        bad = next(v for v in sorted(rows) if v < 1 or v > n)
        raise ParseError(
            f"vertex rows must be numbered 1..{n} contiguously", row_line[bad]
        )

    warnings: list[tuple[int, int, str]] = []
    adj = [0] * n
    for v in sorted(rows):
        for w in rows[v]:
            if not 1 <= w <= n:
                raise ParseError(
                    f"neighbour {w} of vertex {v} outside 1..{n}", row_line[v]
                )
            if w == v:
                warnings.append((v, w, "self-loop entry ignored"))
                continue
            adj[v - 1] |= 1 << (w - 1)
            adj[w - 1] |= 1 << (v - 1)
            if v not in rows[w]:
                warnings.append((v, w, f"listed in row {v} but not in row {w}"))
    return ParseReport(Graph(n, tuple(adj)), tuple(warnings))


def emit_adjacency_list(g: Graph) -> str:
    """Inverse of parse_adjacency_list: 1-indexed rows, neighbours ascending, LF endings."""
    lines = []
    for v in range(g.n):
        nbrs = " ".join(str(u + 1) for u in g.neighbors(v))
        lines.append(f"{v + 1}:{nbrs}")
    return "\n".join(lines) + "\n"


def encode_graph6(g: Graph) -> str:
    """Standard graph6 encoding (upper triangle, column by column, 6-bit chars)."""
    if g.n <= 62:
        head = chr(63 + g.n)
    else:
        head = chr(126) + "".join(
            chr(63 + (g.n >> shift & 63)) for shift in (12, 6, 0)
        )
    bits = []
    for j in range(1, g.n):
        col = g.adj[j]
        bits.extend((col >> i) & 1 for i in range(j))
    chars = []
    for k in range(0, len(bits), 6):
        group = bits[k : k + 6]
        group += [0] * (6 - len(group))
        val = 0
        for b in group:
            val = val << 1 | b
        chars.append(chr(63 + val))
    return head + "".join(chars)


def decode_graph6(text: str) -> Graph:
    """Decode a graph6 string produced by encode_graph6 or standard tools."""
    s = text.strip()
    if not s:
        raise ParseError("empty graph6 string")
    if any(not 63 <= ord(c) <= 126 for c in s):
        raise ParseError(f"invalid graph6 character in {s!r}")
    if s[0] == chr(126):
        if len(s) < 4:
            raise ParseError("truncated graph6 vertex count")
        n = 0
        for c in s[1:4]:
            n = n << 6 | (ord(c) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    if not 1 <= n <= MAX_VERTICES:
        raise ParseError(f"graph6 vertex count {n} outside 1..{MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ParseError(
            f"graph6 body has {len(body)} chars, expected {(nbits + 5) // 6} for n={n}"
        )
    bits = []
    for c in body:
        val = ord(c) - 63
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[nbits:]):
        raise ParseError("graph6 padding bits are not zero")
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return Graph(n, tuple(adj))
