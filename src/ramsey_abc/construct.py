"""Building 40-vertex candidates by extending a fixed base graph.

A candidate adds a handful of new vertices to the base: the added vertices
carry a triangle-free graph among themselves (the "inner" graph) and each
added vertex attaches to a set of base vertices, held as a bitmask like every
other vertex set in the package. Attachment sets are kept pairwise disjoint:
with an 8-regular base and a degree ceiling of 9, a base vertex receiving two
new edges would exceed the admissible degree range.

A search draws from an ExtensionSpace (base, inner graphs, degree band), which
is checked once when built; random_extension and mutate_extension trust it.

Attachments are drawn by chunking a random permutation of the base vertices:
added vertex k takes the permutation positions (S_{k-1}, S_k], where S_k is
the running total of requested attachment counts.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import cache

from .graph import Graph, _bits, encode_graph6, induced_subgraph

# The (3,10,40) witness band, no function's default: bench/workloads.py reads it.
DEFAULT_DEGREE_RANGE = (4, 9)
MAX_RESAMPLES = 10_000  # degree vectors random_extension draws before giving up


@dataclass(frozen=True)
class ExtensionState:
    """Base graph + inner graph + one attachment bitmask per added vertex.

    Two memos ride on a position, each empty when it is built and neither
    part of equality, hashing or repr. _move_tables holds mutate_extension's
    move table per degree band (lo, hi), built on the band's first draw: a
    colony draws many moves from one position. free_masks is counting's
    (counting._free_rows): the free-set masks of every attachment, per cache
    and size read. It is opaque here; counting.toggle_with_masks hands it on
    to a moved child."""

    base: Graph
    inner: Graph
    attachments: tuple[int, ...]
    _move_tables: dict[tuple[int, int], tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    free_masks: dict[tuple, tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def added_degree(self, i: int) -> int:
        """Total degree of added vertex i in the assembled graph."""
        return self.attachments[i].bit_count() + self.inner.degree(i)


def _is_independent(g: Graph, mask: int) -> bool:
    m = mask
    while m:
        b = m & -m
        v = b.bit_length() - 1
        m ^= b
        if g.adj[v] & mask:
            return False
    return True


def _canonical_bits(g: Graph) -> int:
    """Isomorphism-invariant key: minimum upper-triangle bit pattern over all
    vertex orderings that sort degrees descending."""
    order = sorted(range(g.n), key=lambda v: -g.degree(v))
    degs = [g.degree(v) for v in order]
    groups: list[list[int]] = []
    for i, v in enumerate(order):
        if i and degs[i] == degs[i - 1]:
            groups[-1].append(v)
        else:
            groups.append([v])
    best = None
    for parts in itertools.product(*(itertools.permutations(grp) for grp in groups)):
        arr = [v for part in parts for v in part]
        bits = 0
        k = 0
        for j in range(1, g.n):
            aj = g.adj[arr[j]]
            for i in range(j):
                bits = bits << 1 | (aj >> arr[i] & 1)
                k += 1
        if best is None or bits < best:
            best = bits
    return best


def _from_canonical_bits(n: int, bits: int) -> Graph:
    total = n * (n - 1) // 2
    adj = [0] * n
    k = total - 1
    for j in range(1, n):
        for i in range(j):
            if bits >> k & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k -= 1
    return Graph(n, tuple(adj))


@cache
def enumerate_triangle_free(k: int) -> tuple[Graph, ...]:
    """One canonical representative per isomorphism class of triangle-free
    graphs on k vertices, in a deterministic order (14 classes for k = 5).
    Enumerated once per k; the tuple is shared by every caller.

    Built level by level: every triangle-free graph on j vertices arises from
    one on j-1 vertices by adding a vertex whose neighbourhood is an
    independent set, so extending class representatives and deduplicating by
    canonical form enumerates each class exactly once.
    """
    if not 1 <= k <= 7:
        raise ValueError(f"triangle-free enumeration supports 1..7 vertices, got {k}")
    reps: dict[int, Graph] = {_canonical_bits(Graph.empty(1)): Graph.empty(1)}
    for size in range(2, k + 1):
        nxt: dict[int, Graph] = {}
        for g in reps.values():
            for nb_mask in range(1 << g.n):
                if not _is_independent(g, nb_mask):
                    continue
                adj = list(g.adj) + [nb_mask]
                for v in _bits(nb_mask):
                    adj[v] |= 1 << g.n
                cand = Graph(size, tuple(adj))
                key = _canonical_bits(cand)
                if key not in nxt:
                    nxt[key] = cand
        reps = nxt
    ordered = sorted((g.edge_count(), key) for key, g in reps.items())
    return tuple(_from_canonical_bits(k, key) for _, key in ordered)


@cache
def _catalog_index(k: int) -> dict[int, int]:
    """Canonical key -> position in enumerate_triangle_free(k), computed once per k."""
    return {_canonical_bits(g): i for i, g in enumerate(enumerate_triangle_free(k))}


@dataclass(frozen=True)
class ExtensionSpace:
    """What one search draws from: a base graph, the inner graphs its added
    vertices may carry, and the band [lo, hi] of each added vertex's total
    degree. Building it is the one feasibility check: ValueError unless every
    inner degree is at most hi and the attachments lo needs fit in the base."""

    base: Graph
    inners: tuple[Graph, ...]
    degree_range: tuple[int, int]

    def __post_init__(self) -> None:
        lo, hi = self.degree_range
        bad = f"degree range [{lo}, {hi}] infeasible"
        for t in (inner.degrees() for inner in self.inners):
            if any(hi < ti for ti in t):
                raise ValueError(f"{bad}: inner degrees {t} exceed the ceiling")
            if sum(max(lo, ti) - ti for ti in t) > self.base.n:
                raise ValueError(f"{bad}: minimum attachment total exceeds {self.base.n}")


def random_extension(space: ExtensionSpace, k: int, rng: random.Random) -> ExtensionState:
    """Draw from rng a random extension of space.base by space.inners[k].

    Each added vertex's total degree is sampled uniformly from the band; the
    whole vector is rejected and resampled whenever some vertex would need a
    negative attachment count or the attachment total exceeds the number of
    base vertices. Attachment sets come from chunking one random permutation
    of the base vertices, which makes them pairwise disjoint by construction.
    """
    inner = space.inners[k]
    lo, hi = space.degree_range
    t = inner.degrees()
    m = space.base.n
    for _ in range(MAX_RESAMPLES):
        degs = [rng.randint(lo, hi) for _ in t]
        if all(d >= ti for d, ti in zip(degs, t)) and sum(degs) - sum(t) <= m:
            break
    else:
        raise ValueError("could not sample a feasible degree vector")
    perm = list(range(m))
    rng.shuffle(perm)
    attachments = []
    pos = 0
    for d, ti in zip(degs, t):
        take = d - ti
        attachments.append(sum(1 << v for v in perm[pos : pos + take]))
        pos += take
    return ExtensionState(space.base, inner, tuple(attachments))


def extension_to_graph(ext: ExtensionState) -> Graph:
    """Assemble the full graph: base edges, inner edges, attachment edges.

    Added vertices occupy indices m..m+a-1, mirroring the 1-indexed labels
    36..40 used by the shipped 40-vertex dataset. The rows are symmetric by
    construction once every attachment lies inside the base, one per inner
    vertex, which is checked here in O(added vertices); base and inner are
    valid Graphs already.
    """
    m = ext.base.n
    if len(ext.attachments) != ext.inner.n or any(att >> m for att in ext.attachments):
        raise ValueError("attachments must be one base-vertex mask per inner vertex")
    return Graph._derived(m + ext.inner.n, assembled_adj(ext))


def assembled_adj(ext: ExtensionState) -> tuple[int, ...]:
    """Adjacency rows of extension_to_graph(ext), without building a Graph."""
    m = ext.base.n
    adj = list(ext.base.adj) + [0] * ext.inner.n
    for i, att in enumerate(ext.attachments):
        u = m + i
        adj[u] = (ext.inner.adj[i] << m) | att
        for v in _bits(att):
            adj[v] |= 1 << u
    return tuple(adj)


def decompose_extension(g: Graph, base_size: int) -> ExtensionState:
    """Split a graph into (base, inner, attachments) with vertices base_size..
    n-1 as the added set. Inverse of extension_to_graph; does not require the
    generated-state invariants (disjointness, degree bounds) to hold."""
    if not 1 <= base_size < g.n:
        raise ValueError(f"base size must be in 1..{g.n - 1}")
    base = induced_subgraph(g, range(base_size))
    inner = induced_subgraph(g, range(base_size, g.n))
    base_mask = (1 << base_size) - 1
    attachments = tuple(g.adj[u] & base_mask for u in range(base_size, g.n))
    return ExtensionState(base, inner, attachments)


def check_extension_invariants(ext: ExtensionState, degree_range: tuple[int, int]) -> None:
    """Raise if attachment sets overlap or an added vertex leaves degree_range."""
    lo, hi = degree_range
    base_mask = (1 << ext.base.n) - 1
    seen = 0
    for i, att in enumerate(ext.attachments):
        if att & seen:
            raise ValueError(f"attachment sets overlap at base vertices {list(_bits(att & seen))}")
        seen |= att
        if att & ~base_mask:
            raise ValueError(f"attachment of added vertex {i} outside the base")
        d = ext.added_degree(i)
        if not lo <= d <= hi:
            raise ValueError(f"added vertex {i} has degree {d} outside [{lo}, {hi}]")


def mutate_extension(
    space: ExtensionSpace, ext: ExtensionState, rng: random.Random
) -> tuple[int, int] | None:
    """Draw one legal attachment toggle (i, v): added vertex i gains or loses
    its edge to base vertex v. toggle_attachment(ext, i, v) applies it.

    A removal is legal while the vertex stays at or above the space's
    floor; an addition may only claim a base vertex not attached to ANY added
    vertex and must respect its ceiling. Returns None when no legal move
    exists anywhere.

    The moves of vertex i are its removals ascending, then its additions
    ascending; a uniform added vertex with a legal move is drawn, then a
    uniform move of it. The order fixes which move each rng draw picks, so a
    seed replays the same search. Moves are counted, not listed, and counted
    once per position and band: later draws read ext's memoised table.

    The two draws are rng.randrange(len(legal)) and rng.randrange(removals +
    additions), made as randrange makes them: getrandbits of the range's bit
    length, redrawn until it falls inside the range.
    """
    band = space.degree_range
    table = ext._move_tables.get(band)
    if table is None:
        table = ext._move_tables[band] = _move_table(ext, *band)
    unattached, counts, legal = table
    if not legal:
        return None
    bits = rng.getrandbits
    n = len(legal)
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    i = legal[r]
    rem, add = counts[i]
    n = rem + add
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    if r < rem:
        return i, _nth_bit(ext.attachments[i], r)
    return i, _nth_bit(unattached, r - rem)


def _move_table(ext: ExtensionState, lo: int, hi: int) -> tuple:
    """(unattached, counts, legal) of ext under the band [lo, hi]: the mask
    of base vertices no added vertex is attached to, each added vertex's
    (removals, additions) move counts, and the added vertices with a move."""
    attached = 0
    for att in ext.attachments:
        attached |= att
    unattached = ((1 << ext.base.n) - 1) & ~attached
    free = unattached.bit_count()
    counts: list[tuple[int, int]] = []
    for i, att in enumerate(ext.attachments):
        d = ext.added_degree(i)
        counts.append((att.bit_count() if d > lo else 0, free if d < hi else 0))
    legal = [i for i, (rem, add) in enumerate(counts) if rem + add]
    return unattached, counts, legal


def _nth_bit(mask: int, r: int) -> int:
    """Position of the r-th lowest set bit of mask (r from 0)."""
    for _ in range(r):
        mask &= mask - 1
    return (mask & -mask).bit_length() - 1


def toggle_attachment(ext: ExtensionState, i: int, v: int) -> ExtensionState:
    """Return a copy of ext with the edge between added vertex i and base
    vertex v flipped (present <-> absent). Only attachment i changes. The
    copy starts with empty memos; counting.toggle_with_masks hands it ext's
    free-set masks, with entry i updated or rebuilt for the flip."""
    attachments = list(ext.attachments)
    attachments[i] ^= 1 << v
    return ExtensionState(ext.base, ext.inner, tuple(attachments))


def serialize_extension(ext: ExtensionState) -> dict:
    """JSON-friendly form: base graph6, inner index in the canonical catalog
    (or its graph6 when not catalogued), 1-indexed attachment lists."""
    catalog = _catalog_index(ext.inner.n) if ext.inner.n <= 7 else {}
    index = catalog.get(_canonical_bits(ext.inner))
    return {
        "base_graph6": encode_graph6(ext.base),
        "inner_index": index,
        "inner_graph6": encode_graph6(ext.inner),
        "attachments": [[v + 1 for v in _bits(att)] for att in ext.attachments],
    }

