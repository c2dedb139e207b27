"""Brute-force oracles and graph strategies shared by the test suite.

The oracles enumerate subsets with itertools and never touch the package's
counting internals, so they stay independent of the code paths they check.
"""

from __future__ import annotations

import random
import sys
from itertools import combinations, permutations
from math import comb

from hypothesis import strategies as st

from ramsey_abc.graph import Graph


def brute_count_cliques(g: Graph, p: int) -> int:
    total = 0
    for combo in combinations(range(g.n), p):
        if all(g.has_edge(u, v) for u, v in combinations(combo, 2)):
            total += 1
    return total


def brute_count_indep(g: Graph, q: int) -> int:
    total = 0
    for combo in combinations(range(g.n), q):
        if not any(g.has_edge(u, v) for u, v in combinations(combo, 2)):
            total += 1
    return total


def brute_first_clique(g: Graph, p: int) -> tuple[int, ...] | None:
    """The first p-subset in itertools.combinations order that is a clique,
    or None."""
    for combo in combinations(range(g.n), p):
        if all(g.has_edge(u, v) for u, v in combinations(combo, 2)):
            return combo
    return None


def brute_first_indep(g: Graph, q: int) -> tuple[int, ...] | None:
    """The first q-subset in itertools.combinations order that is an
    independent set, or None."""
    for combo in combinations(range(g.n), q):
        if not any(g.has_edge(u, v) for u, v in combinations(combo, 2)):
            return combo
    return None


def brute_fitness(g: Graph, p: int, q: int) -> int:
    return brute_count_cliques(g, p) + brute_count_indep(g, q)


def brute_independence_number(g: Graph) -> int:
    for size in range(g.n, 0, -1):
        if brute_count_indep(g, size):
            return size
    return 0


def recursive_independence_number(g: Graph) -> int:
    """Textbook include/exclude recursion on the lowest remaining vertex.

    No bounds, no colouring: slower than the package implementation but a
    genuinely different algorithm, usable up to n ~ 20.
    """

    def rec(mask: int) -> int:
        if not mask:
            return 0
        b = mask & -mask
        v = b.bit_length() - 1
        without = rec(mask ^ b)
        with_v = 1 + rec(mask & ~(g.adj[v] | b))
        return max(without, with_v)

    return rec((1 << g.n) - 1)


def branch_and_bound_independence_number(g: Graph) -> int:
    """Maximum clique of the complement by branch and bound with a greedy
    colouring upper bound: a candidate set coloured with c colours cannot
    extend the current clique by more than c vertices. An algorithm the
    package does not use, fast enough for the 35- to 64-vertex graphs."""
    adj = g.complement_rows
    best = 0

    def expand(size: int, cand: int) -> None:
        nonlocal best
        if not cand:
            best = max(best, size)
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
            if size + bound[i] <= best:
                return
            v = order[i]
            expand(size + 1, rest & adj[v])
            rest ^= 1 << v

    expand(0, (1 << g.n) - 1)
    return best


def relabel(g: Graph, perm) -> Graph:
    """g with each vertex v renamed perm[v]; perm is a permutation of 0..n-1."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def reference_peel_order(adj, cand: int) -> list[int]:
    """Min-degree peel order of the subgraph of rows adj that the vertex mask
    cand induces, by a minimum over a degree dict: each step takes the
    unplaced vertex with the fewest unplaced neighbours, ties to the lowest
    index. A reference for counting._peel_rows, which reads its order from
    a bucket queue."""
    degree = {v: (adj[v] & cand).bit_count() for v in range(len(adj)) if cand >> v & 1}
    order = []
    while degree:
        v = min(degree, key=degree.__getitem__)  # the first minimum: lowest index
        del degree[v]
        order.append(v)
        for u in degree:
            degree[u] -= adj[v] >> u & 1
    return order


def reference_independence_polynomial(adj, memo: dict, mask: int) -> tuple[int, ...]:
    """Independence polynomial of the subgraph that the vertex mask mask
    induces in the rows adj, as its coefficient tuple, by the vertex
    recursion with a BFS per mask and a separate degree pass, coefficient
    lists and closed forms from binomials. A reference for
    counting._indep_poly, which packs the polynomial in one int and scans
    each component once."""
    if not mask:
        return (1,)
    hit = memo.get(mask)
    if hit is not None:
        return hit
    comp = frontier = mask & -mask
    while frontier:
        reach = 0
        while frontier:
            b = frontier & -frontier
            reach |= adj[b.bit_length() - 1]
            frontier ^= b
        frontier = reach & mask & ~comp
        comp |= frontier
    if comp != mask:
        a = reference_independence_polynomial(adj, memo, comp)
        b = reference_independence_polynomial(adj, memo, mask ^ comp)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
    else:
        top, pivot, degrees = -1, -1, 0
        left = mask
        while left:
            b = left & -left
            left ^= b
            v = b.bit_length() - 1
            d = (adj[v] & mask).bit_count()
            degrees += d
            if d > top:
                top, pivot = d, v
        n = mask.bit_count()
        if top <= 2 and degrees == 2 * n:  # a cycle
            out = [1] + [comb(n - k, k) + comb(n - k - 1, k - 1) for k in range(1, n // 2 + 1)]
        elif top <= 2:  # a path
            out = [comb(n - k + 1, k) for k in range((n + 1) // 2 + 1)]
        else:
            bv = 1 << pivot
            out = list(reference_independence_polynomial(adj, memo, mask ^ bv))
            rest = reference_independence_polynomial(adj, memo, mask & ~(adj[pivot] | bv))
            out += [0] * (len(rest) + 1 - len(out))
            for k, c in enumerate(rest, 1):
                out[k] += c
    memo[mask] = out = tuple(out)
    return out


def reference_onlooker_phase(colony, rng: random.Random) -> None:
    """abc_search.onlooker_phase as a rebuild per onlooker: rank every
    source that is not a scout, then, for each idle onlooker, list the
    unfollowed sources and sum their weights afresh before its draw. A
    reference for the phase, which builds the open list and its total once."""
    if colony.finished:
        return
    params = colony.params
    ranked = sorted((src for src in colony.sources if not src.scout),
                    key=lambda src: src.fitness.total)
    count = len(ranked)
    weighted = [(src, count - rank) for rank, src in enumerate(ranked)]
    idle = colony.onlookers - sum(src.followed for src in colony.sources)
    for _ in range(idle):
        open_sources = [(src, w) for src, w in weighted if not src.followed]
        if not open_sources:
            return
        total_w = sum(w for _, w in open_sources)
        r = rng.random()
        acc = 0.0
        for src, w in open_sources:
            acc += params.alpha * w / total_w
            if r < acc:
                src.followed = True
                break


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    for perm in permutations(range(g.n)):
        if all(
            g.has_edge(u, v) == h.has_edge(perm[u], perm[v])
            for u, v in combinations(range(g.n), 2)
        ):
            return True
    return False


def count_graph_builds(monkeypatch) -> tuple[list, list]:
    """Record every Graph built from now on. Returns (checked, derived): the
    graphs built through Graph(n, adj), which runs __post_init__, and those
    built through the unchecked Graph._derived."""
    checked, derived = [], []
    check = Graph.__post_init__
    derive = Graph._derived.__func__

    def counted_check(self):
        checked.append(self)
        check(self)

    def counted_derive(cls, n, adj, complement_rows=None):
        derived.append(derive(cls, n, adj, complement_rows))
        return derived[-1]

    monkeypatch.setattr(Graph, "__post_init__", counted_check)
    monkeypatch.setattr(Graph, "_derived", classmethod(counted_derive))
    return checked, derived


def spy_finds(monkeypatch, *modules) -> dict[str, list]:
    """Record every call of counting.find_clique and find_independent_set
    from now on, under each name that a loaded module, or one of modules,
    binds them to. Returns the calls, an (n, k) pair each, keyed by the
    function's name."""
    from ramsey_abc import counting

    calls: dict[str, list] = {}
    for name in ("find_clique", "find_independent_set"):
        real = getattr(counting, name)
        log = calls[name] = []

        def spy(g, k, real=real, log=log):
            log.append((g.n, k))
            return real(g, k)

        for module in [*sys.modules.values(), *modules]:
            if getattr(module, "__dict__", {}).get(name) is real:
                monkeypatch.setattr(module, name, spy)
    return calls


def graph_from_mask(n: int, mask: int) -> Graph:
    """Graph from an integer encoding the upper triangle, pair by pair."""
    edges = []
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            if mask >> k & 1:
                edges.append((u, v))
            k += 1
    return Graph.from_edges(n, edges)


def all_graphs(n: int):
    """Every labeled graph on n vertices (2^C(n,2) of them)."""
    pairs = n * (n - 1) // 2
    for mask in range(1 << pairs):
        yield graph_from_mask(n, mask)


def random_graph(n: int, rng: random.Random, density: float = 0.5) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density
    ]
    return Graph.from_edges(n, edges)


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 12):
    n = draw(st.integers(min_n, max_n))
    pairs = n * (n - 1) // 2
    mask = draw(st.integers(0, (1 << pairs) - 1))
    return graph_from_mask(n, mask)


def brute_mutate_extension(ext, rng: random.Random, degree_range: tuple[int, int]):
    """Oracle for construct.mutate_extension: list every legal move (i, v) of
    each added vertex i, removals ascending and then unattached base vertices
    ascending, draw an added vertex that has one and then one of its moves.
    Returns (i, v), or None when no move is legal."""
    lo, hi = degree_range
    attached = 0
    for att in ext.attachments:
        attached |= att
    unattached = [v for v in range(ext.base.n) if not attached >> v & 1]
    moves_by_vertex = []
    for i, att in enumerate(ext.attachments):
        moves = []
        d = ext.added_degree(i)
        if d > lo:
            moves.extend(v for v in range(ext.base.n) if att >> v & 1)
        if d < hi:
            moves.extend(unattached)
        moves_by_vertex.append(moves)
    legal = [i for i, moves in enumerate(moves_by_vertex) if moves]
    if not legal:
        return None
    i = legal[rng.randrange(len(legal))]
    return i, moves_by_vertex[i][rng.randrange(len(moves_by_vertex[i]))]
