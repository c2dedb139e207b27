"""Exact clique / independent-set counting and the combined fitness objective.

The objective for an (p, q, n) search is

    f(G) = (# q-subsets inducing an independent set)
         + (# p-subsets inducing a complete graph)

so f(G) = 0 exactly when G is an n-vertex witness for R(p, q) > n.

Counting walks subsets in ascending vertex order, extending a partial clique
only through the bitmask intersection of common neighbours, which keeps the
enumeration exact while pruning almost all of the C(n, k) subsets. Independent
sets are counted as cliques of the complement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, _bits, complement


class CacheBudgetError(RuntimeError):
    """Independent-set cache exceeded its configured memory budget."""


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


def _count_complete(adj: tuple[int, ...], n: int, p: int) -> int:
    """Number of p-subsets of 0..n-1 that are pairwise adjacent."""
    if p == 1:
        return n
    count = 0

    def rec(cand: int, need: int) -> None:
        nonlocal count
        if need == 1:
            count += cand.bit_count()
            return
        while cand:
            b = cand & -cand
            v = b.bit_length() - 1
            cand ^= b
            nxt = cand & adj[v]
            if nxt.bit_count() >= need - 1:
                rec(nxt, need - 1)

    rec((1 << n) - 1, p)
    return count


def _find_complete(adj: tuple[int, ...], n: int, p: int) -> tuple[int, ...] | None:
    """Lexicographically first p-subset that is pairwise adjacent, or None."""
    out: list[int] = []

    def rec(cand: int, need: int) -> bool:
        while cand:
            b = cand & -cand
            v = b.bit_length() - 1
            cand ^= b
            out.append(v)
            if need == 1:
                return True
            nxt = cand & adj[v]
            if nxt.bit_count() >= need - 1 and rec(nxt, need - 1):
                return True
            out.pop()
        return False

    if rec((1 << n) - 1, p):
        return tuple(out)
    return None


def count_cliques(g: Graph, p: int) -> int:
    """Exact number of p-vertex complete subgraphs."""
    _check_order(g, p, "clique order")
    return _count_complete(g.adj, g.n, p)


def count_independent_sets(g: Graph, q: int) -> int:
    """Exact number of q-vertex independent sets."""
    _check_order(g, q, "independent-set order")
    return _count_complete(complement(g).adj, g.n, q)


def fitness(g: Graph, p: int, q: int) -> FitnessReport:
    """Clique count plus independent-set count; zero total means witness."""
    return FitnessReport(count_cliques(g, p), count_independent_sets(g, q))


def find_clique(g: Graph, p: int) -> tuple[int, ...] | None:
    """Some p-clique if one exists (lexicographically first), else None."""
    _check_order(g, p, "clique order")
    return _find_complete(g.adj, g.n, p)


def find_independent_set(g: Graph, q: int) -> tuple[int, ...] | None:
    """Some q-independent set if one exists (lexicographically first), else None."""
    _check_order(g, q, "independent-set order")
    return _find_complete(complement(g).adj, g.n, q)


def max_independent_set(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact independence number with a witness set.

    Branch and bound on the complement (maximum clique) with a greedy
    colouring upper bound: a candidate set coloured with c colours cannot
    extend the current clique by more than c vertices.
    """
    adj = complement(g).adj
    best_size = 0
    best_mask = 0

    def expand(rsize: int, rmask: int, cand: int) -> None:
        nonlocal best_size, best_mask
        if not cand:
            if rsize > best_size:
                best_size, best_mask = rsize, rmask
            return
        order: list[int] = []
        bound: list[int] = []
        uncolored = cand
        color = 0
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                b = avail & -avail
                v = b.bit_length() - 1
                avail &= ~(adj[v] | b)
                uncolored ^= b
                order.append(v)
                bound.append(color)
        rest = cand
        for i in range(len(order) - 1, -1, -1):
            if rsize + bound[i] <= best_size:
                return
            v = order[i]
            b = 1 << v
            expand(rsize + 1, rmask | b, rest & adj[v])
            rest ^= b

    expand(0, 0, (1 << g.n) - 1)
    return best_size, tuple(_bits(best_mask))


@dataclass(frozen=True, eq=False)
class IndepSetCache:
    """All independent sets of the base graph, grouped by size.

    masks_by_size[k] is a uint64 array with one bit-set per k-independent
    set. Combining a cached set S with vertices attached to the base
    reduces to one mask test: S stays independent of an added-vertex set T
    iff S & (union of T's attachment masks) == 0.
    """

    base: Graph
    sizes: tuple[int, ...]
    masks_by_size: dict[int, np.ndarray]

    def counts(self) -> dict[int, int]:
        return {k: len(self.masks_by_size[k]) for k in self.sizes}

    def compatible_count(self, k: int, avoid_mask: int) -> int:
        """Number of cached k-sets disjoint from avoid_mask."""
        arr = self.masks_by_size[k]
        if len(arr) == 0:
            return 0
        return int(np.count_nonzero((arr & np.uint64(avoid_mask)) == 0))


def build_indep_cache(
    base: Graph, sizes, max_sets_per_size: int = 2_000_000
) -> IndepSetCache:
    """Enumerate every independent set of the requested sizes in one DFS pass."""
    wanted = tuple(sorted(set(sizes)))
    if not wanted:
        raise ValueError("no sizes requested")
    if wanted[0] < 1 or wanted[-1] > base.n:
        raise ValueError(f"sizes must lie within 1..{base.n}")
    comp = complement(base).adj
    kmax = wanted[-1]
    wanted_set = set(wanted)
    # smallest requested size still reachable from a partial set of each size
    next_wanted = [min((k for k in wanted if k > s), default=kmax + 1) for s in range(kmax + 1)]
    collected: dict[int, list[int]] = {k: [] for k in wanted}

    def rec(cand: int, chosen: int, size: int) -> None:
        while cand:
            b = cand & -cand
            v = b.bit_length() - 1
            cand ^= b
            nchosen = chosen | b
            nsize = size + 1
            if nsize in wanted_set:
                bucket = collected[nsize]
                if len(bucket) >= max_sets_per_size:
                    raise CacheBudgetError(
                        f"more than {max_sets_per_size} independent sets of size {nsize}"
                    )
                bucket.append(nchosen)
            if nsize < kmax:
                nxt = cand & comp[v]
                if nsize + nxt.bit_count() >= next_wanted[nsize]:
                    rec(nxt, nchosen, nsize)

    rec((1 << base.n) - 1, 0, 0)
    masks_by_size = {k: np.array(collected[k], dtype=np.uint64) for k in wanted}
    return IndepSetCache(base, wanted, masks_by_size)


def extension_fitness(cache: IndepSetCache, ext, p: int, q: int) -> FitnessReport:
    """Fitness of the assembled extension graph.

    Only the independent-set half is incremental: q-independent sets split as
    (k-set in the base) x ((q-k)-set among the added vertices) with no
    attachment edge between the parts; the base-side counts come from the
    cache, so only the handful of added-vertex subsets are enumerated per
    call. p-cliques are counted directly on the assembled graph. Must agree
    exactly with fitness() on extension_to_graph(ext).
    """
    from .construct import extension_to_graph

    base = cache.base
    if ext.base.n != base.n or ext.base.adj != base.adj:
        raise ValueError("extension base does not match cache base")
    inner = ext.inner
    a = inner.n
    m = base.n
    n = m + a
    if not 1 <= p <= n:
        raise ValueError(f"clique order must be in 1..{n}, got {p}")
    if not 1 <= q <= n:
        raise ValueError(f"independent-set order must be in 1..{n}, got {q}")

    needed = [k for k in range(max(1, q - a), min(q, m) + 1)]
    missing = [k for k in needed if k not in cache.masks_by_size]
    if missing:
        raise ValueError(f"cache does not cover independent-set sizes {missing}")

    indep = 0
    for t_size in range(max(0, q - m), min(a, q) + 1):
        k = q - t_size
        for combo in _independent_subsets(inner, t_size):
            if k == 0:
                indep += 1
                continue
            avoid = 0
            for i in combo:
                avoid |= ext.attachments[i]
            indep += cache.compatible_count(k, avoid)

    return FitnessReport(count_cliques(extension_to_graph(ext), p), indep)


def _independent_subsets(g: Graph, size: int):
    """All vertex tuples of the given size with no internal edge."""
    from itertools import combinations

    if size == 0:
        yield ()
        return
    for combo in combinations(range(g.n), size):
        ok = True
        for i, u in enumerate(combo):
            for v in combo[i + 1 :]:
                if g.has_edge(u, v):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield combo
