"""Exact clique / independent-set counting and the combined fitness objective.

The objective for an (p, q, n) search is

    f(G) = (# q-subsets inducing an independent set)
         + (# p-subsets inducing a complete graph)

so f(G) = 0 exactly when G is an n-vertex witness for R(p, q) > n.

Counting walks subsets in ascending vertex order, extending a partial clique
only through the bitmask intersection of common neighbours, which keeps the
enumeration exact while pruning almost all of the C(n, k) subsets. A branch
that still needs `need` vertices stops once fewer than `need` candidates
remain: no need-set fits in such a mask, so the bound cuts only empty
branches, and counts and the first set found stay exact. A counting branch
left with exactly `need` candidates holds one candidate set, so the walk
settles it in the parent's loop by a clique test that stops at its first
missing edge instead of a call; on graphs A-D most branches at need 4-6
end there, and a 10-set count makes about 40 % of the calls it would
make without the test. One kernel counts
the cliques inside any candidate vertex mask of adjacency rows: a graph's,
its complement's (Graph.complement_rows) for independent sets, or an
extension's (construct.assembled_adj). Part of a graph is a vertex mask over
those rows, so counting never builds a Graph.

A deep whole-graph count (count_cliques, count_independent_sets and the
deletion scan's 9-set count, from k = 5 up) first relabels the rows inside
its mask into min-degree peel order (degeneracy order), so each vertex
extends a set only through the few neighbours peeled after it; a count does
not depend on labels, so it stays exact. Smaller k and every move scorer walk
the rows as they are, where the peel would cost more than it saves.

The other method is not the walk: independence_polynomial counts the
independent sets of every size at once, and with them the independence
number, by the vertex recursion I(G) = I(G - v) + x I(G - N[v]) (Gutman and
Harary, 1983), on the polynomial packed in one int with a 64-bit field per
coefficient (_indep_poly). The walk's cost grows with the number of sets it
counts, the recursion's with its branching, so each is used where it is
cheaper. The base census in dataset.validate_base asks for four sizes and
alpha, about 60,000 sets, which one recursion settles about eight times
faster than four walks and a branch and bound.

fitness, which counts the fresh random positions of a full-mode search,
picks the method per side from the count expected of a random graph with
g's edge density d: E = C(n, k) d^C(k, 2) k-cliques, with 1 - d for the
independent k-sets. When C(n, k) is at most _RECURSION_FROM = 50,000, the
density is not read and the walk runs; so (4,4,12) starts (C(12, 4) = 495)
pay nothing for the rule. Above it in E, fitness reads coefficient k of
the independence polynomial of the right rows (the complement's for
cliques); otherwise it walks. verify, count_cliques, count_independent_sets
and the scorers always walk. Measured per side on 2 cores, Python 3.11,
five seeded default-density starts per rung (ranges), and on the dataset;
each time is the best of 27 calls per graph (of 9 for the (3,10,38..40)
walks):

    graph            n   side  d          E            count          walk ms     recursion ms
    (4,4,12) start   12  I4    0.39-0.54  4-25         2-22           0.01        0.02
    (3,5,13) start   13  I5    0.26-0.40  8-67         2-55           0.03-0.05   0.02-0.04
    (4,4,17) start   17  I4    0.41-0.60  10-99        9-92           0.01-0.03   0.05-0.06
    (3,6,17) start   17  I6    0.19-0.35  21-513       15-667         0.05-0.20   0.03-0.06
    (3,7,22) start   22  I7    0.19-0.29  146-2.3k     19-3.2k        0.09-0.86   0.09-0.20
    (3,8,27) start   27  I8    0.19-0.23  1.6k-5.9k    533-8.8k       0.48-2.47   0.25-0.36
    (3,9,35) start   35  I9    0.20-0.24  3.6k-23k     1.5k-24k       1.8-10.1    1.0-1.5
    (3,10,38) start  38  I10   0.14-0.16  192k-511k    120k-872k      69-290      1.2-2.8    recursion
    (3,10,39) start  39  I10   0.15-0.17  135k-371k    47k-799k       34-262      1.5-3.7    recursion
    (3,10,40) start  40  I10   0.16-0.18  115k-305k    56k-275k       40-132      2.7-3.8    recursion
    graphs A-D       40  I10   0.23       6.8k-8.5k    0              2.0-2.2     4.4-4.8
    base             35  I9    0.24       4.5k         0              0.96        2.5
    (3,10,39) ext    39  I10   0.21-0.23  5.1k-16k     170-1.3k       1.6-4.5     3.4-4.5

Every clique side (K3, K4) of these starts has E below 110 and walks. The
ext row's five positions are five draws of one random.Random(0) through
inner graphs 0-4, as the colony's fresh positions cycle. The constant sits
between the dataset graphs, where the walk is 2.1-2.2 times faster, and
the (3,10,38..40) starts, where the recursion is 9-250 times faster (both
methods timed together). Below it, (3,9,35) starts would also be faster by
the recursion, 1.2-8.4 times, but their E overlaps that of graphs A-D,
which hold no set, so E cannot tell them apart.

A search move flips one edge {u, v}, which creates or destroys only the
cliques and independent sets containing both u and v. flip_fitness (a whole
graph) and attachment_flip_fitness (an extension candidate) derive the
neighbour's exact fitness from its parent's by counting just those, in
N(u) & N(v) and in the common non-neighbourhood. The neighbour's total is
the parent's minus the gain (the sets through the edge that the flip
destroys) plus the loss (those it creates). A scorer returns the neighbour
only when it is strictly better than its parent, the one move the colony
can accept, and None otherwise (_settle). It counts the gain first and
stops there when the gain is 0; in extension mode a removal's loss stops as
soon as it reaches the gain. Every report a scorer returns is exact. Their
one caller is the colony, whose inputs fitness / extension_fitness check,
so they check none.
attachment_flip_fitness walks the inner independent sets through its added
vertex from a plan built once per inner graph (_subset_plan), and
extension_fitness counts a fresh position's p-cliques as the base's count,
taken once per cache and p, plus those through each added vertex, so
neither re-walks what a position shares with the base or its inner graph.

An extension's base-side independent sets come from IndepSetCache, indexed
once per size as one bitmap column per base vertex. Only this module knows
the masks of the base sets free of each added vertex's attachment
(_free_rows, built for every attachment on a size's first read), whose AND
gives a count. A position keeps them in its free_masks memo, empty when the
position is built, and an accepted move hands its child all that its parent
holds (toggle_with_masks), the moved vertex's updated from the flipped base
vertex's column after an addition and rebuilt after a removal.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import itemgetter

from .construct import assembled_adj, toggle_attachment
from .graph import MAX_VERTICES, Graph, _bits

MAX_CACHE_SETS = 2_000_000  # independent sets build_indep_cache holds per size


class CacheBudgetError(RuntimeError):
    """Independent-set cache exceeded its memory budget, MAX_CACHE_SETS."""


@dataclass(frozen=True)
class FitnessReport:
    """Exact counts of forbidden substructures; total == 0 marks a witness graph."""

    clique_count: int
    indep_count: int

    @property
    def total(self) -> int:
        return self.clique_count + self.indep_count

    @property
    def is_witness(self) -> bool:
        return self.total == 0


def _check_order(g: Graph, k: int, what: str) -> None:
    if not 1 <= k <= g.n:
        raise ValueError(f"{what} must be in 1..{g.n}, got {k}")


def _count_complete(adj: tuple[int, ...], cand: int, k: int) -> int:
    """Number of k-subsets of the vertex mask cand that are pairwise adjacent;
    1 for k = 0 (the empty set) and 0 for k < 0.

    k = 2 counts the edges inside cand as the sum over its vertices v of
    |N(v) & the cand bits above v|, and k = 1 is |cand|. k >= 3 walks: each
    vertex v of cand, lowest first, adds the (k - 1)-count of its child,
    the cand bits above v that are adjacent to v. A branch stops drawing
    once fewer than k candidates remain, which cuts only empty branches.
    Only a child with more than k - 1 candidates costs a call, so the walk
    ends at k = 2 with that edge count. A smaller child holds no (k - 1)-set
    and counts 0. A tight child, exactly k - 1 candidates, holds one
    candidate set, settled in the loop: it counts 1 iff each of its
    vertices, lowest first, is adjacent to all the child bits above it,
    and the test stops at the first miss. The walk extends a set only
    through higher labels, so its work depends on the labelling;
    _count_deep gives it rows in peel order. This is the only
    subset-counting walk."""
    count = 0
    if k == 2:
        while cand:
            b = cand & -cand
            cand ^= b
            count += (cand & adj[b.bit_length() - 1]).bit_count()
        return count
    if k <= 1:
        return cand.bit_count() if k == 1 else int(k == 0)
    k -= 1  # the order each branch counts
    while cand.bit_count() > k:
        b = cand & -cand
        cand ^= b
        nxt = cand & adj[b.bit_length() - 1]
        c = nxt.bit_count()
        if c > k:
            count += _count_complete(adj, nxt, k)
        elif c == k:
            while nxt:
                b = nxt & -nxt
                nxt ^= b
                if nxt & adj[b.bit_length() - 1] != nxt:
                    break
            else:
                count += 1
    return count


_PEEL_FROM = 5  # smallest k whose whole-mask count walks in peel order


def _peel_rows(adj: tuple[int, ...], cand: int) -> tuple[int, ...]:
    """Rows of the subgraph that the vertex mask cand induces, relabelled
    0..|cand|-1 in min-degree peel order: position i holds the unplaced
    vertex with the fewest unplaced neighbours, ties to the lowest index.
    The walk extends a set only through higher positions, so each vertex
    branches over at most the graph's degeneracy of neighbours.

    The order comes from a bucket queue: bucket d is the mask of unplaced
    vertices with d unplaced neighbours. Each step places the lowest bit of
    the lowest non-empty bucket, which is the same tie rule, and moves the
    placed vertex's unplaced neighbours down one bucket with one AND per
    bucket. Those neighbours sit in bucket d or above, so the next minimum
    is at d - 1 or above.

    A row is relabelled as its binary digits: digit i of the new row, read
    from the right, is the old row's digit of the vertex at position i."""
    if not cand:
        return ()
    buckets = [0] * cand.bit_count()
    for v in _bits(cand):
        buckets[(adj[v] & cand).bit_count()] |= 1 << v
    order = []
    left = cand
    d = 0
    while left:
        while not buckets[d]:
            d += 1
        b = buckets[d] & -buckets[d]
        buckets[d] ^= b
        left ^= b
        v = b.bit_length() - 1
        order.append(v)
        nbrs = adj[v] & left
        e = d
        while nbrs:
            moved = buckets[e] & nbrs
            if moved:
                buckets[e] ^= moved
                buckets[e - 1] |= moved
                nbrs ^= moved
            e += 1
        if d:
            d -= 1
    width = cand.bit_length()
    pick = itemgetter(*[width - 1 - v for v in reversed(order)])
    return tuple(int("".join(pick(format(adj[v] & cand, f"0{width}b"))), 2) for v in order)


def _count_deep(adj: tuple[int, ...], cand: int, k: int) -> int:
    """_count_complete(adj, cand, k) for a whole-graph count: from k =
    _PEEL_FROM up, the walk runs on _peel_rows(adj, cand), whose count is the
    same because a count does not depend on vertex labels. Below it the
    peel would cost more than the walk it shortens, so the walk runs as is."""
    if k < _PEEL_FROM:
        return _count_complete(adj, cand, k)
    rows = _peel_rows(adj, cand)
    return _count_complete(rows, (1 << len(rows)) - 1, k)


def _find_complete(adj: tuple[int, ...], n: int, p: int) -> tuple[int, ...] | None:
    """Lexicographically first p-subset of range(n) that is pairwise adjacent,
    or None; () for p = 0. Under _count_complete's bound, which cuts only
    empty branches, the first set found is still the first."""
    out: list[int] = []

    def rec(cand: int, need: int) -> bool:
        if need <= 0:
            return not need
        while cand.bit_count() >= need:
            b = cand & -cand
            v = b.bit_length() - 1
            cand ^= b
            out.append(v)
            if rec(cand & adj[v], need - 1):
                return True
            out.pop()
        return False

    return tuple(out) if rec((1 << n) - 1, p) else None


def count_cliques(g: Graph, p: int) -> int:
    """Exact number of p-vertex complete subgraphs; walked in min-degree
    peel order from p = _PEEL_FROM up (see _count_deep)."""
    _check_order(g, p, "clique order")
    return _count_deep(g.adj, (1 << g.n) - 1, p)


def count_independent_sets(g: Graph, q: int) -> int:
    """Exact number of q-vertex independent sets: the q-cliques of the
    complement rows, walked in min-degree peel order from q = _PEEL_FROM up
    (see _count_deep)."""
    _check_order(g, q, "independent-set order")
    return _count_deep(g.complement_rows, (1 << g.n) - 1, q)


_RECURSION_FROM = 50_000  # expected k-sets above which fitness counts by the recursion


def fitness(g: Graph, p: int, q: int) -> FitnessReport:
    """Clique count plus independent-set count; zero total means witness.

    Each side is counted by the cheaper method for g (see _count_fresh and
    the module docstring): the peel-order walk, as count_cliques and
    count_independent_sets, or the independence polynomial's coefficient."""
    _check_order(g, p, "clique order")
    _check_order(g, q, "independent-set order")
    adj, comp = g.adj, g.complement_rows
    return FitnessReport(_count_fresh(adj, comp, p), _count_fresh(comp, adj, q))


def _count_fresh(rows: tuple[int, ...], other: tuple[int, ...], k: int) -> int:
    """k-cliques of the whole graph of rows, whose complement rows are other.

    A random graph of rows' edge density d holds E = C(n, k) d^C(k, 2)
    k-cliques on average. Above _RECURSION_FROM, coefficient k of other's
    independence polynomial counts them (0 above its independence number);
    otherwise _count_deep walks them. d is read only when C(n, k) itself
    is above the limit."""
    n = len(rows)
    sets = comb(n, k)
    if sets > _RECURSION_FROM:
        d = sum(map(int.bit_count, rows)) / (n * (n - 1))
        if sets * d ** comb(k, 2) > _RECURSION_FROM:
            return _indep_poly(other, {}, (1 << n) - 1) >> _FIELD * k & _FIELD_MASK
    return _count_deep(rows, (1 << n) - 1, k)


def flip_fitness(
    g: Graph, rep: FitnessReport, u: int, v: int, p: int, q: int
) -> FitnessReport | None:
    """Exact fitness of toggle_edge(g, u, v), given rep == fitness(g, p, q),
    if it is strictly better than rep; else None.

    Flipping {u, v} creates or destroys exactly the p-cliques and
    q-independent sets that contain both u and v: the K_{p-2} inside
    N(u) & N(v), and the (q-2)-independent sets inside the common
    non-neighbourhood. Removing the edge gains (destroys) the first and
    loses (creates) the second; adding it does the reverse. The gain is
    counted first, and the loss only if the gain is positive; _settle
    states the rule.

    Trusts its caller: p, q in 1..g.n (checked by fitness) and u != v in
    range(g.n) (drawn by abc_search._random_pair).
    """
    adj, comp = g.adj, g.complement_rows
    if adj[u] >> v & 1:
        gain = _count_complete(adj, adj[u] & adj[v], p - 2)
        if gain:
            return _settle(rep, 1, gain, _count_complete(comp, comp[u] & comp[v], q - 2))
    else:
        gain = _count_complete(comp, comp[u] & comp[v], q - 2)
        if gain:
            return _settle(rep, 0, gain, _count_complete(adj, adj[u] & adj[v], p - 2))
    return None


def _settle(rep: FitnessReport, present: int, gain: int, loss: int) -> FitnessReport | None:
    """rep changed by flipping an edge whose flip destroys `gain` sets and
    creates `loss`, if that is strictly better than rep (loss < gain); else
    None. Removing a present edge destroys p-cliques and creates
    q-independent sets, adding an absent one does the reverse. No loss is
    below a gain of 0, so a scorer whose gain is 0 counts no loss; a loss
    counted only until it reaches the gain settles as None."""
    if loss >= gain:
        return None
    if present:
        return FitnessReport(rep.clique_count - gain, rep.indep_count + loss)
    return FitnessReport(rep.clique_count + loss, rep.indep_count - gain)


def find_clique(g: Graph, p: int) -> tuple[int, ...] | None:
    """Some p-clique if one exists (lexicographically first), else None."""
    _check_order(g, p, "clique order")
    return _find_complete(g.adj, g.n, p)


def find_independent_set(g: Graph, q: int) -> tuple[int, ...] | None:
    """Some q-independent set if one exists (lexicographically first), else None."""
    _check_order(g, q, "independent-set order")
    return _find_complete(g.complement_rows, g.n, q)


def max_independent_set(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact independence number with a witness set: alpha is the degree of
    the independence polynomial, and the witness the lexicographically
    first alpha-set (find_independent_set)."""
    alpha = len(independence_polynomial(g)) - 1
    return alpha, find_independent_set(g, alpha)


def independence_polynomial(g: Graph) -> tuple[int, ...]:
    """Entry k is the exact number of k-vertex independent sets of g, for
    k = 0..alpha(g), so the independence number is the length minus one.

    Counted by the vertex recursion I(G) = I(G - v) + x I(G - N[v]) (see
    _indep_poly), whose cost is set by its branching, not by how many sets
    there are. It counts every size at once, and even one size can be
    cheaper this way. Measured on 2 cores, Python 3.11: on the 35-vertex
    base the whole polynomial takes 2.4 ms, and count_independent_sets
    takes 2.3 ms for the 5-sets, 4.9 ms for the 6-sets, 6.1 ms for the
    7-sets and 3.8 ms for the 8-sets: from the 6-sets up one size is
    cheaper by the recursion, and the 5-sets cost the same either way.
    On graphs A-D, which hold no 10-set, the walk takes 2.0-2.2 ms against
    4.4-4.8 ms. The module docstring's table gives the crossover that
    fitness uses."""
    poly = _indep_poly(g.adj, {}, (1 << g.n) - 1)
    return tuple(poly >> shift & _FIELD_MASK for shift in range(0, poly.bit_length(), _FIELD))


_FIELD = 64  # bits per coefficient of a packed polynomial (see _indep_poly)
_FIELD_MASK = (1 << _FIELD) - 1


def _packed_tables(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(paths, cycles): entry m is the packed independence polynomial of the
    path, or of the cycle, on m vertices, m = 0..n; cycles below 3 are 0.
    The vertex recursion on an end vertex of a path gives P_m = P_{m-1} +
    x P_{m-2}, and on any vertex of a cycle C_m = P_{m-1} + x P_{m-3}."""
    paths = [1, 1 | 1 << _FIELD]
    for m in range(2, n + 1):
        paths.append(paths[m - 1] + (paths[m - 2] << _FIELD))
    cycles = [0, 0, 0] + [paths[m - 1] + (paths[m - 3] << _FIELD) for m in range(3, n + 1)]
    return tuple(paths), tuple(cycles)


_PATHS, _CYCLES = _packed_tables(MAX_VERTICES)


def _indep_poly(adj: tuple[int, ...], memo: dict, mask: int) -> int:
    """Independence polynomial of the subgraph that the vertex mask mask
    induces in the rows adj, packed in one int: coefficient k in bits
    [64k, 64k + 64). No field carries into the next: every coefficient of
    every polynomial formed here counts the k-sets of a graph on at most
    MAX_VERTICES = 64 vertices, at most C(64, k) < 2^64. So a product of
    packed polynomials is their int product, and x times one is a shift.
    memo maps the masks already solved in this call to their ints.

    One scan per component: the BFS that finds the lowest vertex's
    component also reads each vertex's degree in the mask, its maximum and
    the pivot, a vertex of maximum degree, the lowest on ties. A component
    of maximum degree <= 2 is a path or a cycle, read from _PATHS or
    _CYCLES. Otherwise the recursion branches on the pivot v: the sets
    without v, plus, one size up, the sets of the component outside v and
    its neighbours. A disconnected mask multiplies its component, solved
    from that scan, by the polynomial of the rest. A module-level function
    keeps the memo free of reference cycles, so it is freed when the call
    returns."""
    if not mask:
        return 1
    hit = memo.get(mask)
    if hit is not None:
        return hit
    comp = frontier = mask & -mask
    top = pivot = -1
    degrees = 0
    while frontier:
        reach = 0
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            v = b.bit_length() - 1
            row = adj[v] & mask
            reach |= row
            d = row.bit_count()
            degrees += d
            if d > top or d == top and v < pivot:
                top, pivot = d, v
        frontier = reach & ~comp
        comp |= frontier
    if top <= 2:
        n = comp.bit_count()
        out = _CYCLES[n] if degrees == 2 * n else _PATHS[n]
    else:
        bv = 1 << pivot
        out = _indep_poly(adj, memo, comp ^ bv)
        out += _indep_poly(adj, memo, comp & ~(adj[pivot] | bv)) << _FIELD
    if comp != mask:
        out *= _indep_poly(adj, memo, mask ^ comp)
    memo[mask] = out
    return out


@dataclass(frozen=True, eq=False)
class IndepSetCache:
    """All independent sets of the base graph: masks_by_size[k] is an
    array('Q') with one vertex bitmask per k-independent set. A cached set S
    stays independent of an added-vertex set T iff S & (union of T's
    attachment masks) == 0. columns(k), built on the first read of k, makes
    that test bitmap algebra over all the k-sets at once: full has one bit
    per set, in array order, and bit s of columns[u] is set iff the s-th set
    holds base vertex u."""

    base: Graph
    masks_by_size: dict[int, array]
    _index: dict = field(default_factory=dict, init=False, repr=False)
    _base_cliques: dict = field(default_factory=dict, init=False, repr=False)  # p -> base count

    def columns(self, k: int) -> tuple[int, list[int]]:
        """(full, columns) over the cached k-sets, built on first read."""
        index = self._index.get(k)
        if index is None:
            index = self._index[k] = _column_index(self, k)
        return index

    def compatible_count(self, k: int, avoid: int, v: int = -1) -> int:
        """Number of cached k-sets that contain the base vertex v (any set
        for v = -1) and none of the mask avoid; 0 for a size with no set."""
        full, columns = self.columns(k)
        return ((full if v < 0 else columns[v]) & _free_of(full, columns, avoid)[0]).bit_count()


def _free_of(full: int, columns: list[int], mask: int) -> tuple[int, int]:
    """(the sets of full that miss the vertex mask, those that meet it at
    most once), from the OR of the mask's columns."""
    met = met_twice = 0
    while mask:
        b = mask & -mask
        col = columns[b.bit_length() - 1]
        mask ^= b
        met_twice |= met & col
        met |= col
    return full ^ met, full ^ met_twice


# _LANES[u]: the offset of the byte that holds bit u of an 8-byte array('Q') item, in
# the host's byte order, and a table that maps that byte to bit u as b"0" or b"1"
_BIG = 7 if sys.byteorder == "big" else 0
_DIGITS = [bytes(48 + (x >> i & 1) for x in range(256)) for i in range(8)]
_LANES = [((u >> 3) ^ _BIG, _DIGITS[u & 7]) for u in range(64)]


def _column_index(cache: IndepSetCache, k: int) -> tuple[int, list[int]]:
    """(full, columns) over the cached k-sets: full has one bit per set, and
    bit s of columns[u] is set iff the s-th set holds u. Column u is bit u
    of every set as b"0"/b"1" digits (see _LANES), reversed and parsed."""
    sets = cache.masks_by_size[k]
    raw = sets.tobytes()
    lanes = _LANES[: cache.base.n]
    return (1 << len(sets)) - 1, [int(b"0" + raw[j::8].translate(d)[::-1], 2) for j, d in lanes]


def build_indep_cache(base: Graph, sizes) -> IndepSetCache:
    """Enumerate every independent set of the requested sizes in one DFS pass,
    collecting each size as bitmasks in an array('Q'), so no list of Python
    ints is ever held."""
    wanted = tuple(sorted(set(sizes)))
    if not wanted:
        raise ValueError("no sizes requested")
    if wanted[0] < 1 or wanted[-1] > base.n:
        raise ValueError(f"sizes must lie within 1..{base.n}")
    comp = base.complement_rows
    cap = MAX_CACHE_SETS
    kmax = wanted[-1]
    wanted_set = set(wanted)
    # smallest requested size still reachable from a partial set of each size
    next_wanted = [min((k for k in wanted if k > s), default=kmax + 1) for s in range(kmax + 1)]
    collected = {k: array("Q") for k in wanted}

    def rec(cand: int, chosen: int, size: int) -> None:
        while cand:
            b = cand & -cand
            v = b.bit_length() - 1
            cand ^= b
            nchosen = chosen | b
            nsize = size + 1
            if nsize in wanted_set:
                bucket = collected[nsize]
                if len(bucket) >= cap:
                    raise CacheBudgetError(f"more than {cap} independent sets of size {nsize}")
                bucket.append(nchosen)
            if nsize < kmax:
                nxt = cand & comp[v]
                if nsize + nxt.bit_count() >= next_wanted[nsize]:
                    rec(nxt, nchosen, nsize)

    rec((1 << base.n) - 1, 0, 0)
    return IndepSetCache(base, collected)


def _check_extension(cache: IndepSetCache, ext, p: int, q: int) -> None:
    """Raise unless ext extends the cache's base and p, q are orders of its
    assembled graph. Cache sizes are checked as the walk reads them."""
    base = cache.base
    if ext.base.n != base.n or ext.base.adj != base.adj:
        raise ValueError("extension base does not match cache base")
    n = base.n + ext.inner.n
    if not 1 <= p <= n:
        raise ValueError(f"clique order must be in 1..{n}, got {p}")
    if not 1 <= q <= n:
        raise ValueError(f"independent-set order must be in 1..{n}, got {q}")


def extension_fitness(cache: IndepSetCache, ext, p: int, q: int) -> FitnessReport:
    """Fitness of the assembled extension graph, counted in full.

    q-independent sets split as (k-set in the base) x ((q-k)-set among the
    added vertices) with no attachment edge between the parts; the base-side
    counts come from the cache, so only the added-vertex independent subsets
    (enumerated once per inner graph) are walked per call. A p-clique lies
    in the base or has a highest added vertex x, so p-cliques are the base's
    count, taken once per (cache, p), plus for each x the (p - 1)-cliques in
    N(x) & (the base and the added vertices below x), counted on the
    assembled rows. Must agree exactly with fitness() on
    extension_to_graph(ext). The search calls this only for fresh random
    positions; a neighbour is scored by attachment_flip_fitness.
    """
    _check_extension(cache, ext, p, q)
    m = cache.base.n
    cliques = cache._base_cliques.get(p)
    if cliques is None:
        cliques = cache._base_cliques[p] = _count_deep(cache.base.adj, (1 << m) - 1, p)
    adj = assembled_adj(ext) if p - 1 >= 2 else ()  # smaller orders read no row
    for i, att in enumerate(ext.attachments):
        lower = att | (ext.inner.adj[i] & ((1 << i) - 1)) << m
        cliques += _count_complete(adj, lower, p - 1)
    return FitnessReport(cliques, _cross_count(cache, ext, q))


def attachment_flip_fitness(
    cache: IndepSetCache, ext, rep: FitnessReport, i: int, v: int, p: int, q: int
) -> FitnessReport | None:
    """Exact fitness of ext with the edge between added vertex i and base
    vertex v flipped, given rep == extension_fitness(cache, ext, p, q), if it
    is strictly better than rep; else None.

    The flip_fitness identity on the assembled graph, with x = m + i: the
    p-cliques through {x, v} are counted by _flip_cliques, the
    q-independent sets by _through_count. The gain is counted first and the
    loss only if the gain is positive; a removal's loss, the independent
    sets, stops once it reaches the gain, which settles the move as None.

    Trusts its caller: extension_fitness has checked (cache, ext, p, q) on
    a position with ext's base and inner size, and (i, v) is a move of
    construct.mutate_extension, so 0 <= i < a and 0 <= v < m.
    """
    owners = 0  # the added vertices attached to v
    for j, att in enumerate(ext.attachments):
        owners |= (att >> v & 1) << j
    if owners >> i & 1:
        gain = _flip_cliques(ext, i, v, p, owners)
        if gain:
            return _settle(rep, 1, gain, _through_count(cache, ext, q, i, v, owners, gain))
    else:
        gain = _through_count(cache, ext, q, i, v, owners)
        if gain:
            return _settle(rep, 0, gain, _flip_cliques(ext, i, v, p, owners))
    return None


def _flip_cliques(ext, i: int, v: int, p: int, owners: int) -> int:
    """K_{p-2} count inside the common neighbourhood of added vertex i and
    base vertex v: (attachment of i & base row of v) | (inner row of i &
    owners, the added vertices attached to v) shifted past the base. These
    are the p-cliques through both when they are joined. The assembled rows
    are built only when p - 2 >= 2, as smaller orders read no row."""
    common = (ext.attachments[i] & ext.base.adj[v]) | ((ext.inner.adj[i] & owners) << ext.base.n)
    adj = assembled_adj(ext) if p - 2 >= 2 else ()
    return _count_complete(adj, common, p - 2)


def _free_rows(cache: IndepSetCache, ext, k: int) -> tuple[list[int], list[int]]:
    """(F1, F2) of ext in cache.columns(k)'s set order: F1[j] masks the
    cached k-sets that miss attachment j and F2[j] those that meet it at
    most once. Built for every attachment on the first read, one _free_of
    each, and kept in ext.free_masks per (cache, k), unless
    toggle_with_masks has handed them on. The sets free of a union of
    attachments are the AND of their F1 (the gluing identity of Goedgebeur
    and Radziszowski, 2013)."""
    rows = ext.free_masks.get((cache, k))
    if rows is None:
        full, columns = cache.columns(k)
        built = [_free_of(full, columns, att) for att in ext.attachments]
        rows = ext.free_masks[cache, k] = [f1 for f1, _ in built], [f2 for _, f2 in built]
    return rows


def toggle_with_masks(ext, i: int, v: int):
    """construct.toggle_attachment(ext, i, v), handed every free-set mask
    ext has read (see _free_rows). Only entry i changes. With col the
    (cache, k) column of v, adding v gives F1 minus col and F1 | (F2 minus
    col), each X minus col taken as X ^ (X & col), which negates no big int.
    Removing v rebuilds the entry with one _free_of on the child's
    attachment i, as the sets that met the attachment twice are not in
    ext's masks."""
    child = toggle_attachment(ext, i, v)
    att = child.attachments[i]
    removing = ext.attachments[i] >> v & 1
    for (cache, k), (f1, f2) in ext.free_masks.items():
        f1, f2 = f1.copy(), f2.copy()
        full, columns = cache.columns(k)
        if removing:
            f1[i], f2[i] = _free_of(full, columns, att)
        else:
            one, two, col = f1[i], f2[i], columns[v]
            f1[i] = one ^ (one & col)
            f2[i] = one | (two ^ (two & col))
        child.free_masks[cache, k] = f1, f2
    return child


def _cross_count(cache: IndepSetCache, ext, q: int) -> int:
    """q-independent sets of the assembled graph: an independent set T of
    the inner graph plus a cached (q - |T|)-set of the base that misses T's
    attachments, the AND of their F1 (see _free_rows). A size outside 1..m,
    or one the cache holds no set of, is skipped unread. Raises ValueError
    if the cache lacks a size in 1..m that the walk reads."""
    sizes = cache.masks_by_size
    count = 0
    for combo in _independent_subsets(ext.inner):
        k = q - len(combo)
        if not 0 < k <= cache.base.n:
            count += k == 0
        elif k not in sizes:
            raise ValueError(f"cache holds independent-set sizes {sorted(sizes)}, not {k}")
        elif len(sizes[k]):
            sets, f1 = cache.columns(k)[0], _free_rows(cache, ext, k)[0]
            for j in combo:
                sets &= f1[j]
            count += sets.bit_count()
    return count


def _through_count(
    cache: IndepSetCache, ext, q: int, i: int, v: int, owners: int, limit: int | None = None
) -> int:
    """q-independent sets that hold added vertex i and base vertex v once
    their edge is absent: an inner independent set T holding i plus a
    cached (q - |T|)-set S that holds v and misses T's attachments, i's
    taken without v. For S holding v that is columns[v] & (F2_i if v is in
    att_i, else F1_i) & the F1 of T's other members (see _free_rows).
    owners masks the added vertices attached to v; a T holding another of
    them counts nothing. A size outside 1..m or holding no set is skipped
    unread. Given a limit, the sum stops once it reaches it, so a result of
    at least limit is partial. extension_fitness checked the cache sizes."""
    m = cache.base.n
    sizes = cache.masks_by_size
    side = owners >> i & 1  # 1: the edge is present, so F2_i
    blocked = owners & ~(1 << i)
    count = at = 0  # at: the k whose rows were read below; the plan lists T by size
    for size, others in _subset_plan(ext.inner)[i]:
        k = q - size
        if 0 < k <= m and len(sizes[k]):
            if blocked and any(blocked >> j & 1 for j in others):
                continue  # T and v share an edge
            if k != at:
                at = k
                free = _free_rows(cache, ext, k)
                f1 = free[0]
                held = cache.columns(k)[1][v] & free[side][i]
            sets = held
            for j in others:
                sets &= f1[j]
            count += sets.bit_count()
            if limit is not None and count >= limit:
                break
    return count


@lru_cache(maxsize=256)
def _subset_plan(g: Graph) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
    """Entry i lists (|T|, the members of T other than i) for every
    independent vertex tuple T of g that holds i, in _independent_subsets
    order: the walk of a move of added vertex i, built once per inner graph."""
    subsets = _independent_subsets(g)
    return tuple(
        tuple((len(t), tuple(j for j in t if j != i)) for t in subsets if i in t)
        for i in range(g.n)
    )


@lru_cache(maxsize=256)
def _independent_subsets(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Every vertex tuple of g with no internal edge, the empty one first,
    by size and then lexicographically."""
    out: list[tuple[int, ...]] = []
    for size in range(g.n + 1):
        for combo in combinations(range(g.n), size):
            if all(not g.adj[u] >> w & 1 for u, w in combinations(combo, 2)):
                out.append(combo)
    return tuple(out)
