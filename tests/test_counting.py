import gc
import random
from array import array
from itertools import combinations
from math import comb
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    branch_and_bound_independence_number,
    brute_count_cliques,
    brute_count_indep,
    brute_first_clique,
    brute_first_indep,
    brute_fitness,
    brute_independence_number,
    brute_indep_sets,
    count_graph_builds,
    graphs,
    random_graph,
    reference_independence_polynomial,
    reference_peel_order,
    relabel,
)
from ramsey_abc import counting
from ramsey_abc.construct import (
    ExtensionSpace,
    ExtensionState,
    decompose_extension,
    enumerate_triangle_free,
    extension_to_graph,
    mutate_extension,
    random_extension,
    toggle_attachment,
)
from ramsey_abc.counting import (
    CacheBudgetError,
    attachment_flip_fitness,
    build_indep_cache,
    count_cliques,
    count_independent_sets,
    extension_fitness,
    find_clique,
    find_independent_set,
    fitness,
    flip_fitness,
    independence_polynomial,
    max_independent_set,
)
from ramsey_abc.graph import Graph, complement, induced_subgraph, toggle_edge


def test_clique_count_examples(g1, c5):
    assert count_cliques(Graph.complete(4), 3) == 4
    assert count_cliques(g1, 3) == 1
    assert count_cliques(c5, 3) == 0


def test_capped_counting():
    # counts are never capped: a dense graph reports every violation
    k6 = Graph.complete(6)
    assert count_cliques(k6, 3) == 20
    rep = fitness(k6, 3, 3)
    assert (rep.clique_count, rep.indep_count, rep.total) == (20, 0, 20)
    assert not rep.is_witness
    assert fitness(Graph.cycle(5), 3, 3).is_witness


def test_indep_count_examples(g1):
    assert count_independent_sets(g1, 3) == 1
    assert count_independent_sets(Graph.empty(5), 3) == 10


def test_order_validation(g1):
    for bad in (0, 6):
        with pytest.raises(ValueError):
            count_cliques(g1, bad)
        with pytest.raises(ValueError):
            count_independent_sets(g1, bad)


def test_fitness_worked_examples(g1, c5):
    rep = fitness(g1, 3, 3)
    assert (rep.clique_count, rep.indep_count, rep.total) == (1, 1, 2)
    assert fitness(c5, 3, 3).total == 0
    assert fitness(c5, 3, 3).is_witness
    k5 = fitness(Graph.complete(5), 3, 3)
    assert (k5.clique_count, k5.indep_count, k5.total) == (10, 0, 10)


def test_find_witnesses(g1, c5):
    assert find_clique(g1, 3) == (1, 2, 3)
    assert find_independent_set(g1, 3) == (0, 2, 4)
    assert find_independent_set(c5, 3) is None
    assert find_independent_set(Graph.complete(3), 2) is None
    found = find_clique(Graph.complete(4), 3)
    assert induced_subgraph(Graph.complete(4), found) == Graph.complete(3)


@given(graphs(max_n=9), st.data())
@settings(max_examples=300)
def test_finds_return_the_first_set_in_combinations_order(g, data):
    # the violation that `ramsey-abc verify` prints is pinned, not only its kind
    k = data.draw(st.integers(1, g.n))
    assert find_clique(g, k) == brute_first_clique(g, k)
    assert find_independent_set(g, k) == brute_first_indep(g, k)


def _circulant(n: int, distances) -> Graph:
    return Graph.from_edges(n, [(i, (i + s) % n) for i in range(n) for s in distances])


@st.composite
def _peel_cases(draw):
    """Rows and a vertex mask: a random graph, or a cycle or a circulant,
    whose equal degrees make every step of the peel a tie; the mask is the
    whole graph, empty, one vertex or random."""
    kind = draw(st.sampled_from(["random", "cycle", "circulant"]))
    if kind == "random":
        g = draw(graphs(max_n=14))
    elif kind == "cycle":
        g = Graph.cycle(draw(st.integers(3, 16)))
    else:
        n = draw(st.integers(4, 16))
        g = _circulant(n, draw(st.sets(st.integers(1, n // 2), min_size=1)))
    rows = draw(st.sampled_from([g.adj, g.complement_rows]))
    full = (1 << g.n) - 1
    one_vertex = st.integers(0, g.n - 1).map(lambda v: 1 << v)
    mask = draw(st.one_of(st.just(full), st.just(0), one_vertex, st.integers(0, full)))
    return rows, mask


@given(_peel_cases())
@settings(max_examples=300)
def test_peel_rows_equal_the_reference_peel_row_for_row(case):
    rows, mask = case
    order = reference_peel_order(rows, mask)
    top = len(order) - 1  # order[j] sits at position top - j
    relabelled = tuple(
        sum(1 << top - j for j, u in enumerate(order) if rows[v] >> u & 1)
        for v in reversed(order)
    )
    assert counting._peel_rows(rows, mask) == relabelled


def test_exhaustive_oracle_n5():
    # every labeled graph on 5 vertices at p = q = 3
    from helpers import all_graphs

    for g in all_graphs(5):
        assert count_cliques(g, 3) == brute_count_cliques(g, 3)
        assert count_independent_sets(g, 3) == brute_count_indep(g, 3)


@given(graphs(max_n=8), st.data())
@settings(max_examples=300)
def test_oracle_equivalence_random(g, data):
    k = data.draw(st.integers(1, g.n))
    assert count_cliques(g, k) == brute_count_cliques(g, k)
    assert count_independent_sets(g, k) == brute_count_indep(g, k)


@given(graphs(max_n=10), st.data())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_brute_force_inside_a_mask_with_holes(g, data):
    # verify_deletions counts inside v's non-neighbours, a mask with a hole;
    # the kernel stops a branch once too few candidates remain, which must
    # cut no set. The deep count walks the mask's rows relabelled into peel
    # order, which must be the mask's induced subgraph again, and is checked
    # at every k, not only from the order where _count_deep starts to peel
    hole = data.draw(st.integers(0, g.n - 1))
    mask = data.draw(st.integers(0, (1 << g.n) - 1)) & ~(1 << hole)
    for rows in (g.adj, g.complement_rows):
        peeled = counting._peel_rows(rows, mask)
        assert len(peeled) == mask.bit_count()
        if peeled:
            relabelled = Graph(len(peeled), peeled)  # symmetric, loop-free rows
            inside_degrees = [(rows[v] & mask).bit_count() for v in range(g.n) if mask >> v & 1]
            assert sorted(relabelled.degrees()) == sorted(inside_degrees)
        for i, row in enumerate(peeled):
            # position i has the fewest neighbours among positions i and below
            low = (2 << i) - 1
            assert all((row & low).bit_count() <= (earlier & low).bit_count()
                       for earlier in peeled[: i + 1])
        for k in range(-1, g.n + 2):
            complete = [] if k < 0 else [
                c for c in combinations(range(g.n), k)
                if all(rows[u] >> w & 1 for u, w in combinations(c, 2))
            ]
            inside = [c for c in complete if all(mask >> v & 1 for v in c)]
            assert counting._count_complete(rows, mask, k) == len(inside)
            assert counting._count_deep(rows, mask, k) == len(inside)
            assert counting._count_complete(peeled, (1 << len(peeled)) - 1, k) == len(inside)
            assert counting._find_complete(rows, g.n, k) == (complete[0] if complete else None)


def test_tight_branches_are_settled_without_a_call(monkeypatch):
    # a child with exactly as many candidates as its order is settled by one
    # clique test in its parent's loop; only a larger child costs a call
    from ramsey_abc import dataset

    walk = counting._count_complete
    tight = []

    def spy(adj, cand, k):
        tight.append(k >= 3 and cand.bit_count() == k)
        return walk(adj, cand, k)

    monkeypatch.setattr(counting, "_count_complete", spy)
    assert count_independent_sets(dataset.load_graph("A").graph, 10) == 0
    assert len(tight) > 1 and sum(tight) == 0


def _multipartite(parts) -> Graph:
    """Complete multipartite graph; part i holds parts[i] vertices."""
    owner = [i for i, size in enumerate(parts) for _ in range(size)]
    n = len(owner)
    return Graph.from_edges(n, [(u, v) for u, v in combinations(range(n), 2) if owner[u] != owner[v]])


def _dense_cases():
    """(graph, its k-clique counts from k = 0 to its clique number):
    complete graphs, complete multipartite graphs (the coefficients of the
    product of 1 + |part| x), each also relabelled, and complements of
    perfect matchings."""
    cases = [(Graph.complete(n), [comb(n, k) for k in range(n + 1)]) for n in range(1, 13)]
    rng = random.Random(0)
    for parts in [(2, 2, 2), (1, 2, 3, 4), (3, 3, 3, 3), (4, 4, 4), (1,) * 10 + (2,), (5, 6)]:
        poly = [1]
        for size in parts:
            poly = [a + size * b for a, b in zip(poly + [0], [0] + poly)]
        g = _multipartite(parts)
        perm = list(range(g.n))
        rng.shuffle(perm)
        cases += [(g, poly), (relabel(g, perm), poly)]
    for m in range(1, 7):
        # the complement of a perfect matching is the multipartite graph on m pairs
        matching = Graph.from_edges(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])
        cases.append((complement(matching), [comb(m, k) * 2**k for k in range(m + 1)]))
    return cases


@pytest.mark.parametrize("g, cliques", _dense_cases())
def test_dense_graphs_count_every_tight_clique(g, cliques):
    # in these graphs most tight children are cliques, so each must count 1
    full = (1 << g.n) - 1
    for k in range(-1, g.n + 2):
        expected = cliques[k] if 0 <= k < len(cliques) else 0
        assert counting._count_complete(g.adj, full, k) == expected
        assert counting._count_deep(g.adj, full, k) == expected
    for k in range(1, g.n + 1):
        assert count_cliques(g, k) == brute_count_cliques(g, k)
        assert count_independent_sets(g, k) == brute_count_indep(g, k)


@given(graphs(max_n=10), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_kernel_counts_at_wide_labels(small, rnd):
    # the graphs above fit every mask in one int digit; here a small graph
    # sits at scattered labels in 30..63 of a 64-vertex graph, so masks span
    # digits and the walk starts at label 63 or near it
    labels = sorted(rnd.sample(range(30, 64), small.n))
    wide = Graph.from_edges(64, [(labels[u], labels[v]) for u, v in small.edges()])
    mask = sum(1 << v for v in labels)
    for k in range(-1, small.n + 2):
        cliques = brute_count_cliques(small, k) if k >= 0 else 0
        indep = brute_count_indep(small, k) if k >= 0 else 0
        for count in (counting._count_complete, counting._count_deep):
            assert count(wide.adj, mask, k) == cliques
            assert count(wide.complement_rows, mask, k) == indep
    for k in range(2, small.n + 2):
        assert count_cliques(wide, k) == brute_count_cliques(small, k)
    # an independent set of wide is one of small plus isolated vertices
    isolated = 64 - small.n
    poly = [
        sum(brute_count_indep(small, j) * comb(isolated, k - j) for j in range(min(k, small.n) + 1))
        for k in range(isolated + small.n + 1)
    ]
    poly = tuple(poly[: max(k for k, c in enumerate(poly) if c) + 1])
    assert independence_polynomial(wide) == poly
    for k in range(1, 4):
        assert count_independent_sets(wide, k) == poly[k]


def test_perfect_matching_complement_on_64_vertices():
    # the complete 32-partite graph with parts of 2: 2^k C(32, k) k-cliques,
    # walked from label 63 and, from k = 5, through a 64-vertex peel
    g = complement(Graph.from_edges(64, [(2 * i, 2 * i + 1) for i in range(32)]))
    for k in range(2, 6):
        assert count_cliques(g, k) == 2**k * comb(32, k)


@given(graphs(max_n=10), st.data())
def test_duality(g, data):
    k = data.draw(st.integers(1, g.n))
    assert count_independent_sets(g, k) == count_cliques(complement(g), k)


@given(graphs(min_n=2, max_n=9), st.randoms(use_true_random=False), st.data())
def test_fitness_invariant_under_relabeling(g, rnd, data):
    p = data.draw(st.integers(1, g.n))
    q = data.draw(st.integers(1, g.n))
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert fitness(g, p, q).total == fitness(relabel(g, perm), p, q).total


@pytest.mark.parametrize("limit", [0, counting._RECURSION_FROM])
@given(g=graphs(min_n=2, max_n=10), data=st.data())
@settings(max_examples=100, deadline=None)
def test_fitness_equals_the_walk_on_both_methods(limit, g, data):
    # limit 0 sends every side with an expected set to the recursion
    p = data.draw(st.integers(1, g.n))
    q = data.draw(st.integers(1, g.n))
    with patch.object(counting, "_RECURSION_FROM", limit):
        assert fitness(g, p, q) == counting.FitnessReport(
            count_cliques(g, p), count_independent_sets(g, q))


def _start(p: int, q: int, n: int, seed: int) -> Graph:
    """A full-mode search's random start for (p, q, n)."""
    from ramsey_abc.abc_search import _random_graph, default_init_density

    return _random_graph(n, default_init_density(p, q, n), random.Random(seed))


def _methods(monkeypatch) -> dict:
    """Calls of the walk (_count_deep) and of the recursion (_indep_poly),
    counted through the module names both are reached by."""
    calls = {"walk": 0, "recursion": 0}
    for name, method in (("_count_deep", "walk"), ("_indep_poly", "recursion")):
        def spy(*args, real=getattr(counting, name), method=method):
            calls[method] += 1
            return real(*args)
        monkeypatch.setattr(counting, name, spy)
    return calls


def test_fitness_on_seeded_large_starts_takes_the_rule(monkeypatch):
    # (3,9,35) starts expect fewer than _RECURSION_FROM 9-sets and walk;
    # (3,10,39) starts expect far more 10-sets and take the recursion on
    # that side; both agree with the walk
    calls = _methods(monkeypatch)
    for (p, q, n), recursion in (((3, 9, 35), 0), ((3, 10, 39), 1)):
        for seed in range(2):
            g = _start(p, q, n, seed)
            expected = counting.FitnessReport(count_cliques(g, p), count_independent_sets(g, q))
            calls.update(walk=0, recursion=0)
            assert fitness(g, p, q) == expected
            assert (calls["walk"], bool(calls["recursion"])) == (2 - recursion, bool(recursion))


def test_fitness_walks_the_dataset_and_small_starts(monkeypatch):
    from ramsey_abc import dataset

    calls = _methods(monkeypatch)
    cases = [(dataset.load_graph(name).graph, 3, 10) for name in "ABCD"]
    cases += [(dataset.extract_base(), 3, 9)]
    cases += [(_start(4, 4, 12, seed), 4, 4) for seed in range(5)]
    for g, p, q in cases:
        calls.update(walk=0, recursion=0)
        fitness(g, p, q)
        assert calls == {"walk": 2, "recursion": 0}


def test_certification_never_takes_the_recursion(monkeypatch):
    from ramsey_abc import dataset, verify

    def refuse(*args):
        raise AssertionError("verify reached the independence polynomial")

    monkeypatch.setattr(counting, "_indep_poly", refuse)
    assert verify.certify(dataset.load_graph("A").graph, 3, 10).indep_count == 0
    start = _start(3, 10, 39, 0)
    assert verify.certify(start, 3, 10).indep_count > counting._RECURSION_FROM
    assert find_independent_set(start, 10)  # what `ramsey-abc verify` prints


def test_max_independent_set_examples(c5):
    size, witness = max_independent_set(c5)
    assert size == 2
    assert not any(c5.has_edge(u, v) for u in witness for v in witness if u < v)
    assert max_independent_set(Graph.empty(7))[0] == 7
    assert max_independent_set(Graph.complete(6))[0] == 1


@given(graphs(max_n=14))
@settings(max_examples=150)
def test_max_independent_set_oracle(g):
    size, witness = max_independent_set(g)
    assert size == brute_independence_number(g) == branch_and_bound_independence_number(g)
    assert len(witness) == size
    assert not any(g.has_edge(u, v) for u in witness for v in witness if u < v)


def test_max_independent_set_up_to_twenty_vertices():
    from helpers import recursive_independence_number

    rng = random.Random(20)
    cases = [Graph.cycle(20), Graph.empty(16)]
    cases += [random_graph(n, rng, density=d) for n in (16, 18, 20) for d in (0.3, 0.6)]
    for g in cases:
        alpha = recursive_independence_number(g)
        assert max_independent_set(g)[0] == branch_and_bound_independence_number(g) == alpha


@given(graphs(max_n=14))
@settings(max_examples=150)
def test_independence_polynomial_oracle(g):
    poly = independence_polynomial(g)
    assert len(poly) - 1 == brute_independence_number(g)
    assert list(poly) == [brute_count_indep(g, k) if k else 1 for k in range(len(poly))]


def _path(n: int) -> Graph:
    return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


def test_independence_polynomial_examples():
    fib, lucas = [0, 1], [2, 1]
    for _ in range(14):
        fib.append(fib[-1] + fib[-2])
        lucas.append(lucas[-1] + lucas[-2])
    cases = [(_path(n), fib[n + 2]) for n in range(1, 13)]  # all independent sets
    cases += [(Graph.cycle(n), lucas[n]) for n in range(3, 13)]
    for g, total in cases:
        poly = independence_polynomial(g)
        assert sum(poly) == total
        assert list(poly) == [1] + [brute_count_indep(g, k) for k in range(1, len(poly))]
        assert len(poly) - 1 == brute_independence_number(g)
    # C5 + P3 + K4 (vertices 0-4, 5-7, 8-11): (1 + 5x + 5x^2)(1 + 3x + x^2)(1 + 4x)
    cycle = [(v, (v + 1) % 5) for v in range(5)]
    union = Graph.from_edges(12, cycle + [(5, 6), (6, 7)] + list(combinations(range(8, 12), 2)))
    assert independence_polynomial(union) == (1, 12, 53, 104, 85, 20)
    assert independence_polynomial(Graph.empty(9)) == tuple(comb(9, k) for k in range(10))
    assert independence_polynomial(Graph.complete(9)) == (1, 9)


def test_independence_polynomial_matches_the_walk_on_64_vertices():
    g = random_graph(64, random.Random(64))
    poly = independence_polynomial(g)
    assert len(poly) - 1 == branch_and_bound_independence_number(g)
    assert list(poly[1:]) == [count_independent_sets(g, k) for k in range(1, len(poly))]


def _poly_product(*factors: tuple[int, ...]) -> tuple[int, ...]:
    out = [1]
    for factor in factors:
        prod = [0] * (len(out) + len(factor) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(factor):
                prod[i + j] += x * y
        out = prod
    return tuple(out)


def test_independence_polynomial_of_64_isolated_or_joined_vertices():
    # C(64, 32) needs 61 bits: the most any field of the packed int holds
    assert independence_polynomial(Graph.empty(64)) == tuple(comb(64, k) for k in range(65))
    assert independence_polynomial(Graph.complete(64)) == (1, 64)


def test_independence_polynomial_of_the_64_vertex_path_and_cycle():
    fib, lucas = [0, 1], [2, 1]
    for _ in range(65):
        fib.append(fib[-1] + fib[-2])
        lucas.append(lucas[-1] + lucas[-2])
    n = 64
    path = independence_polynomial(_path(n))
    assert sum(path) == fib[n + 2]
    assert path == tuple(comb(n - k + 1, k) for k in range(n // 2 + 1))
    cycle = independence_polynomial(Graph.cycle(n))
    assert sum(cycle) == lucas[n]
    assert cycle == (1,) + tuple(comb(n - k, k) + comb(n - k - 1, k - 1) for k in range(1, n // 2 + 1))


def test_independence_polynomial_of_a_64_vertex_union_is_the_product():
    # 4 C5, 8 P3 and 5 K4 on 64 vertices, interleaved by a fixed relabelling
    # so that no component is a vertex interval
    edges, start = [], 0
    for size, count, piece in ((5, 4, "cycle"), (3, 8, "path"), (4, 5, "complete")):
        for _ in range(count):
            vs = range(start, start + size)
            if piece == "complete":
                edges += combinations(vs, 2)
            else:
                edges += [(v, v + 1) for v in vs[:-1]] + ([(vs[-1], vs[0])] if piece == "cycle" else [])
            start += size
    assert start == 64
    perm = list(range(64))
    random.Random(64).shuffle(perm)
    union = Graph.from_edges(64, [(perm[u], perm[v]) for u, v in edges])
    expected = _poly_product(*[(1, 5, 5)] * 4, *[(1, 3, 1)] * 8, *[(1, 4)] * 5)
    assert independence_polynomial(union) == expected


@st.composite
def _graphs_15_to_24(draw):
    """A graph on 15-24 vertices: one random graph of a drawn density, or a
    disjoint union of such pieces, relabelled at random so that a component
    need not be a vertex interval."""
    n = draw(st.integers(15, 24))
    rng = draw(st.randoms(use_true_random=False))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=5)))
    edges = []
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        density = draw(st.sampled_from((0.1, 0.2, 0.35, 0.5, 0.8)))
        edges += [(u, v) for u, v in combinations(range(lo, hi), 2) if rng.random() < density]
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


@given(_graphs_15_to_24())
@settings(max_examples=150, deadline=None)
def test_independence_polynomial_equals_the_reference_recursion(g):
    assert independence_polynomial(g) == reference_independence_polynomial(g.adj, {}, (1 << g.n) - 1)


DATASET_POLYNOMIALS = {
    "A": (1, 40, 604, 4568, 19361, 48482, 72871, 64268, 30510, 5989),
    "B": (1, 40, 601, 4504, 18856, 46520, 68728, 59434, 27592, 5282),
    "C": (1, 40, 603, 4547, 19202, 47898, 71708, 62972, 29744, 5801),
    "D": (1, 40, 602, 4526, 19034, 47211, 70134, 60951, 28403, 5447),
}


@pytest.mark.parametrize("name", sorted(DATASET_POLYNOMIALS))
def test_independence_polynomial_of_the_dataset_graphs(name):
    from ramsey_abc import dataset

    g = dataset.load_graph(name).graph
    expected = DATASET_POLYNOMIALS[name]
    assert reference_independence_polynomial(g.adj, {}, (1 << g.n) - 1) == expected
    assert independence_polynomial(g) == expected


def test_fitness_by_the_recursion_on_seeded_large_starts(monkeypatch):
    # limit 0 sends both sides of every start to the recursion: the clique
    # side reads coefficient 3 of the complement's polynomial
    calls = _methods(monkeypatch)
    monkeypatch.setattr(counting, "_RECURSION_FROM", 0)
    for p, q, n in ((3, 9, 35), (3, 10, 39)):
        for seed in range(3):
            g = _start(p, q, n, seed)
            expected = counting.FitnessReport(count_cliques(g, p), count_independent_sets(g, q))
            calls.update(walk=0, recursion=0)
            assert fitness(g, p, q) == expected
            assert calls["walk"] == 0 and calls["recursion"]


def test_independence_polynomial_of_the_base():
    from ramsey_abc import dataset

    base = dataset.extract_base()
    assert independence_polynomial(base) == (1, 35, 455, 2905, 10150, 20265, 22995, 13760, 3360)


def test_independence_polynomial_leaves_no_garbage():
    # the per-call memo must be freed when the call returns, not held by a
    # reference cycle until the next full collection
    from ramsey_abc import dataset

    base = dataset.extract_base()
    gc.collect()
    gc.disable()
    try:
        independence_polynomial(base)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_build_cache_small_graphs(c5):
    cache = build_indep_cache(c5, [2])
    assert {k: len(sets) for k, sets in cache.masks_by_size.items()} == {2: 5}
    k4 = build_indep_cache(Graph.complete(4), [2, 3])
    assert {k: len(sets) for k, sets in k4.masks_by_size.items()} == {2: 0, 3: 0}
    with pytest.raises(ValueError):
        build_indep_cache(c5, [])
    with pytest.raises(ValueError):
        build_indep_cache(c5, [0, 2])


def test_cache_budget_error(c5, monkeypatch):
    monkeypatch.setattr(counting, "MAX_CACHE_SETS", 3)
    with pytest.raises(CacheBudgetError, match="size 2"):
        build_indep_cache(Graph.empty(10), [2])


@pytest.mark.parametrize("cap, sizes, named", [(45, [2], None), (44, [2], 2), (45, [2, 3], 3)])
def test_cache_budget_at_its_boundary(monkeypatch, cap, sizes, named):
    # Graph.empty(10) holds C(10, 2) = 45 independent 2-sets and 120 3-sets:
    # a budget of exactly 45 holds the 2-sets and one less does not, and
    # with 3-sets requested too it is the 3-sets that overflow
    monkeypatch.setattr(counting, "MAX_CACHE_SETS", cap)
    if named is None:
        assert len(build_indep_cache(Graph.empty(10), sizes).masks_by_size[2]) == 45
    else:
        with pytest.raises(CacheBudgetError, match=f"more than {cap} .* of size {named}$"):
            build_indep_cache(Graph.empty(10), sizes)


def _assert_cache_holds(cache, sizes, expected):
    # expected(k): the brute-force masks of the independent k-sets, sorted
    assert sorted(cache.masks_by_size) == sorted(sizes)
    for k in sizes:
        held = sorted(cache.masks_by_size[k])
        assert held == expected(k), k
        assert len(set(held)) == len(held)  # no set twice


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cache_holds_every_independent_set(data):
    # any non-empty size set, gaps such as {2, 5} included, so a partial set
    # is extended only while it can still reach the next requested size
    n = data.draw(st.integers(1, 14), label="n")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    g = random_graph(n, rng, density=data.draw(st.sampled_from([0.2, 0.4, 0.7])))
    sizes = data.draw(st.sets(st.integers(1, n), min_size=1), label="sizes")
    cache = build_indep_cache(g, sizes)
    _assert_cache_holds(
        cache, sizes,
        lambda k: sorted(sum(1 << v for v in combo) for combo in brute_indep_sets(g, k)),
    )


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=10), st.randoms(use_true_random=False), st.data())
def test_cache_holds_every_independent_set_at_wide_labels(small, rnd, data):
    # small sits at scattered labels in 30..63 of a 64-vertex graph whose
    # other vertices are adjacent to every vertex, so masks span int digits,
    # the walk starts at label 63, and the independent sets of two or more
    # vertices are exactly small's, relabelled
    labels = sorted(rnd.sample(range(30, 64), small.n))
    outside = sorted(set(range(64)) - set(labels))
    edges = [(labels[u], labels[v]) for u, v in small.edges()]
    edges += [(u, v) for u in outside for v in range(64) if v != u and (v in labels or v > u)]
    wide = Graph.from_edges(64, edges)
    sizes = data.draw(st.sets(st.integers(1, small.n + 1), min_size=1), label="sizes")

    def expected(k):
        if k == 1:
            return [1 << v for v in range(64)]
        return sorted(sum(1 << labels[u] for u in combo) for combo in brute_indep_sets(small, k))

    _assert_cache_holds(build_indep_cache(wide, sizes), sizes, expected)


def test_compatible_count_matches_filter():
    # (n, density, sizes, low): the 61-vertex graph fills every byte of each
    # 8-byte set, the top one too, and its queries use vertices low..n-1
    for n, density, sizes, low in [(12, 0.3, range(1, 6), 0), (61, 0.5, range(1, 4), 56)]:
        rng = random.Random(12)
        g = random_graph(n, rng, density=density)
        cache = build_indep_cache(g, sizes)
        top = ((1 << n) - 1) >> low << low
        for _ in range(200):
            k = rng.choice(sizes)
            v = rng.randrange(low, n)
            avoid = rng.getrandbits(n) & rng.getrandbits(n) & top & ~(1 << v)
            sets = list(map(int, cache.masks_by_size[k]))
            want = sum(1 for s in sets if s >> v & 1 and not s & avoid)
            assert cache.compatible_count(k, avoid, v) == want
            assert cache.compatible_count(k, avoid) == sum(1 for s in sets if not s & avoid)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compatible_count_matches_brute_filter(data):
    # every size 1..n, so sizes above the independence number hold no set
    n = data.draw(st.integers(1, 20), label="n")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    g = random_graph(n, rng, density=data.draw(st.sampled_from([0.3, 0.5, 0.8])))
    cache = build_indep_cache(g, range(1, n + 1))
    sets = {k: list(map(int, cache.masks_by_size[k])) for k in range(1, n + 1)}
    for _ in range(3):
        drawn = data.draw(st.integers(0, (1 << n) - 1))
        with_neighbours = data.draw(st.booleans())
        inside = data.draw(st.booleans())
        for v in range(-1, n):  # -1: no vertex
            avoid = drawn
            if v >= 0:
                avoid = avoid | 1 << v if inside else avoid & ~(1 << v)  # inside: counts 0
                if with_neighbours:
                    avoid |= g.adj[v]  # every neighbour of the query's vertex
            for k, held in sets.items():
                want = sum(1 for s in held if (v < 0 or s >> v & 1) and not s & avoid)
                assert cache.compatible_count(k, avoid, v) == want


def test_each_index_is_built_once_on_first_query(monkeypatch):
    # one index per size, built on the first query of that size whatever its
    # vertex (or none), and none for a size never queried
    cache = build_indep_cache(Graph.cycle(7), range(1, 4))
    assert not cache._index  # building the cache builds no index
    built = []
    build = counting._column_index
    monkeypatch.setattr(counting, "_column_index", lambda c, k: built.append(k) or build(c, k))
    queries = [(3, 0, 0), (3, 0b100, 5), (3, 0b1000, -1), (2, 0, -1), (3, 0b10, 3), (2, 1, 6)]
    counts = [cache.compatible_count(*query) for query in queries]
    assert [cache.compatible_count(*query) for query in queries] == counts
    assert built == [3, 2]
    assert sorted(cache._index) == [2, 3]  # size 1 was never queried


def test_full_mode_and_certification_build_no_index(monkeypatch):
    from ramsey_abc import abc_search, dataset, verify

    built = []
    monkeypatch.setattr(counting, "_column_index", lambda *args: built.append(args))
    result = abc_search.run(abc_search.SearchParams(3, 3, 5, seed=1, budget=2000))
    assert verify.certify(result.best_position, 3, 3).is_witness
    verify.certify(dataset.load_all()["A"].graph, 3, 10)
    assert built == []


def test_cache_counts_match_oracle():
    rng = random.Random(11)
    g = random_graph(12, rng, density=0.4)
    cache = build_indep_cache(g, range(1, 6))
    for k in range(1, 6):
        assert len(cache.masks_by_size[k]) == brute_count_indep(g, k)


def _random_ext(seed, base_n=10, added=4, degree_range=(0, 4)):
    rng = random.Random(seed)
    base = random_graph(base_n, rng, density=0.35)
    from ramsey_abc.construct import enumerate_triangle_free

    catalog = enumerate_triangle_free(added)
    inner = catalog[rng.randrange(len(catalog))]
    lo = max(degree_range[0], max(inner.degrees()))
    space = ExtensionSpace(base, (inner,), (lo, degree_range[1] + lo))
    return base, random_extension(space, 0, rng)


@pytest.mark.parametrize("seed", range(25))
def test_extension_fitness_equals_direct(seed):
    from ramsey_abc.construct import extension_to_graph

    base, ext = _random_ext(seed)
    g = extension_to_graph(ext)
    cache = build_indep_cache(base, range(1, base.n + 1))
    for p, q in [(3, 3), (3, 4), (2, 5), (4, 6), (1, 1)]:
        inc = extension_fitness(cache, ext, p, q)
        direct = fitness(g, p, q)
        assert (inc.clique_count, inc.indep_count) == (
            direct.clique_count,
            direct.indep_count,
        )


def test_extension_fitness_wheelish_base():
    # 5-cycle base, one added vertex attached everywhere
    c5 = Graph.cycle(5)
    inner = Graph.empty(1)
    ext = random_extension(ExtensionSpace(c5, (inner,), (5, 5)), 0, random.Random(0))
    assert ext.attachments == (0b11111,)
    from ramsey_abc.construct import extension_to_graph

    cache = build_indep_cache(c5, range(1, 6))
    inc = extension_fitness(cache, ext, 3, 3)
    direct = fitness(extension_to_graph(ext), 3, 3)
    assert inc.total == direct.total == 5  # one triangle per cycle edge


def test_extension_fitness_base_mismatch(c5):
    cache = build_indep_cache(c5, [1, 2])
    base, ext = _random_ext(3)
    with pytest.raises(ValueError, match="base"):
        extension_fitness(cache, ext, 3, 3)


def test_extension_fitness_missing_sizes(c5):
    base, ext = _random_ext(4)
    cache = build_indep_cache(base, [1])
    with pytest.raises(ValueError, match="sizes"):
        extension_fitness(cache, ext, 3, 6)


@pytest.mark.parametrize("k", range(1, 6))
def test_subset_plan_lists_every_independent_set_through_each_member(k):
    # singletons included: T = {i} asks the base for q - 1 vertices, which it
    # holds wherever q - 1 <= its independence number
    for inner in enumerate_triangle_free(k):
        plan = counting._subset_plan(inner)
        assert len(plan) == k
        for i in range(k):
            brute = [
                (size, tuple(j for j in t if j != i))
                for size in range(1, k + 1)
                for t in combinations(range(k), size)
                if i in t and not any(inner.has_edge(u, w) for u, w in combinations(t, 2))
            ]
            assert list(plan[i]) == brute
            assert plan[i][0] == (1, ())


def _clique_cases():
    """(base, ext) pairs whose bases hold cliques: random extensions of
    dense random bases, and decomposed dense random graphs, whose added
    vertices share attachments and carry inner edges."""
    rng = random.Random(17)
    for _ in range(6):
        base = random_graph(10, rng, density=0.6)
        inner = rng.choice(enumerate_triangle_free(4))
        lo = max(inner.degrees())
        yield base, random_extension(ExtensionSpace(base, (inner,), (lo, lo + 2)), 0, rng)
    for _ in range(6):
        ext = decompose_extension(random_graph(13, rng, density=0.6), 9)
        yield ext.base, ext


def test_extension_cliques_match_direct_count():
    cases = list(_clique_cases())
    assert all(count_cliques(base, 4) for base, _ in cases)
    assert any(ext.attachments[0] & ext.attachments[1] for _, ext in cases)
    assert any(ext.inner.edge_count() for _, ext in cases)
    for base, ext in cases:
        cache = build_indep_cache(base, range(1, base.n + 1))
        g = extension_to_graph(ext)
        for p in range(1, 6):
            assert extension_fitness(cache, ext, p, 3).clique_count == count_cliques(g, p), p


def test_base_cliques_counted_once_per_cache_and_order(monkeypatch):
    # extension_fitness counts the base's p-cliques with the whole-graph count
    # and keeps the result on the cache
    rng = random.Random(4)
    base = random_graph(10, rng, density=0.5)
    inners = enumerate_triangle_free(3)
    space = ExtensionSpace(base, inners, (2, 6))
    positions = [random_extension(space, k % len(inners), rng) for k in range(30)]
    expected = [fitness(extension_to_graph(ext), p, 4) for ext in positions for p in (3, 4)]
    counted = []
    deep = counting._count_deep

    def counting_deep(adj, cand, k):
        counted.append(k)
        return deep(adj, cand, k)

    monkeypatch.setattr(counting, "_count_deep", counting_deep)
    for _ in range(2):  # a second cache counts again
        cache = build_indep_cache(base, range(1, 5))
        got = [extension_fitness(cache, ext, p, 4) for ext in positions for p in (3, 4)]
        assert got == expected
    assert counted == [3, 4, 3, 4]


def test_sizes_above_the_base_order_count_nothing():
    # q = 5 over a 3-vertex base asks the walk for base-side sizes 4 and 5
    base = Graph.empty(3)
    ext = ExtensionState(base, Graph.empty(2), (0, 0))
    cache = build_indep_cache(base, range(1, 4))
    for q in range(1, 6):
        assert extension_fitness(cache, ext, 2, q) == fitness(extension_to_graph(ext), 2, q)


def test_walk_never_queries_an_empty_size(monkeypatch):
    # the bundled base has independence number 8, so sizes 9 and 10 hold no
    # set: the walk skips them before it reads an index or a mask of them
    from ramsey_abc import dataset
    from ramsey_abc.construct import enumerate_triangle_free

    base = dataset.extract_base()
    cache = build_indep_cache(base, range(6, 11))
    assert [k for k, sets in cache.masks_by_size.items() if len(sets) == 0] == [9, 10]
    size_of = {(1 << len(sets)) - 1: k for k, sets in cache.masks_by_size.items()}
    indexed, listed, built = [], [], []
    index, rows, free_of = counting._column_index, counting._free_rows, counting._free_of
    monkeypatch.setattr(counting, "_column_index", lambda c, k: indexed.append(k) or index(c, k))
    monkeypatch.setattr(counting, "_free_rows", lambda c, e, k: listed.append(k) or rows(c, e, k))
    monkeypatch.setattr(
        counting, "_free_of", lambda full, *a: built.append(size_of[full]) or free_of(full, *a)
    )
    rng = random.Random(3)
    space = ExtensionSpace(base, enumerate_triangle_free(4), (3, 9))
    for k in range(len(space.inners)):
        ext = random_extension(space, k, rng)
        rep = extension_fitness(cache, ext, 3, 10)
        assert rep == fitness(extension_to_graph(ext), 3, 10)
        for _ in range(3):
            i, v = mutate_extension(space, ext, rng)
            flipped = attachment_flip_fitness(cache, ext, rep, i, v, 3, 10)
            child = fitness(extension_to_graph(toggle_attachment(ext, i, v)), 3, 10)
            _assert_settled(flipped, child, rep)
    assert sorted(indexed) == [6, 7, 8] and set(listed) == set(built) == {6, 7, 8}


def test_decomposed_appendix_graph_fitness():
    from ramsey_abc import dataset
    from ramsey_abc.construct import extension_to_graph

    report = dataset.load_graph("A")
    ext = decompose_extension(report.graph, dataset.BASE_SIZE)
    assert extension_to_graph(ext) == report.graph
    cache = build_indep_cache(ext.base, range(5, 11))
    inc = extension_fitness(cache, ext, 3, 10)
    assert (inc.clique_count, inc.indep_count) == (3, 0)


def test_deep_independent_set_counts_of_the_dataset_graphs():
    # non-zero deep counts, measured with the ascending-label walk before the
    # peel order existed; the 10-set counts are the appendix's zero claims
    from ramsey_abc import dataset

    expected = {
        "A": [64268, 30510, 5989, 0],
        "B": [59434, 27592, 5282, 0],
        "C": [62972, 29744, 5801, 0],
        "D": [60951, 28403, 5447, 0],
    }
    for name, counts in expected.items():
        g = dataset.load_graph(name).graph
        assert [count_independent_sets(g, k) for k in range(7, 11)] == counts, name


# p - 2 and q - 2 reach -1 and 0, the kernel's two boundary orders
FLIP_ORDERS = [(1, 3), (2, 4), (3, 3), (3, 5), (4, 4)]


def _assert_settled(got, child: counting.FitnessReport, rep: counting.FitnessReport) -> None:
    """A move scorer returns the child's exact fitness when it is strictly
    better than its source rep, and None otherwise."""
    assert got == (child if child.total < rep.total else None), (got, child, rep)


@given(graphs(min_n=5, max_n=9), st.sampled_from(FLIP_ORDERS), st.data())
@settings(max_examples=60, deadline=None)
def test_flip_fitness_walk_matches_recount(g, orders, data):
    p, q = orders
    rep = fitness(g, p, q)
    for _ in range(data.draw(st.integers(1, 12))):
        u = data.draw(st.integers(0, g.n - 1))
        v = data.draw(st.integers(0, g.n - 2))
        v += v >= u
        child = toggle_edge(g, u, v)
        exact = fitness(child, p, q)
        _assert_settled(flip_fitness(g, rep, u, v, p, q), exact, rep)
        g, rep = child, exact  # the walk goes on from the recount
        assert rep.total == brute_fitness(g, p, q)


def test_counting_builds_no_graph(monkeypatch):
    # counting reads adjacency rows; it builds no Graph, checked or derived
    g = Graph.cycle(7)
    rep = fitness(g, 3, 3)
    base, ext = _random_ext(3)
    cache = build_indep_cache(base, range(1, base.n + 1))
    checked, derived = count_graph_builds(monkeypatch)
    calls = {
        "count_independent_sets": lambda: count_independent_sets(g, 3),
        "count_independent_sets (peel order)": lambda: count_independent_sets(g, 5),
        "find_independent_set": lambda: find_independent_set(g, 3),
        "max_independent_set": lambda: max_independent_set(g),
        "independence_polynomial": lambda: independence_polynomial(g),
        "build_indep_cache": lambda: build_indep_cache(g, range(1, 4)),
        "flip_fitness": lambda: flip_fitness(g, rep, 0, 2, 3, 3),
        "extension_fitness": lambda: extension_fitness(cache, ext, 3, 4),
    }
    for name, call in calls.items():
        call()
        assert not checked and not derived, name


@given(st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_attachment_flip_fitness_walk_matches_recount(ext_seed, walk_seed):
    base, ext = _random_ext(ext_seed)
    lo = max(ext.inner.degrees())
    space = ExtensionSpace(base, (ext.inner,), (lo, lo + 4))  # as _random_ext draws it
    cache = build_indep_cache(base, range(1, base.n + 1))
    rng = random.Random(walk_seed)
    reps = {pq: extension_fitness(cache, ext, *pq) for pq in [(3, 3), (3, 5), (2, 5), (4, 6)]}
    for _ in range(15):
        move = mutate_extension(space, ext, rng)
        if move is None:
            break
        i, v = move
        child = counting.toggle_with_masks(ext, i, v)
        g = extension_to_graph(child)
        for (p, q), rep in reps.items():
            exact = fitness(g, p, q)
            _assert_settled(attachment_flip_fitness(cache, ext, rep, i, v, p, q), exact, rep)
            reps[p, q] = exact
        ext = child


def test_attachment_flip_fitness_with_shared_attachments():
    # decomposed random graphs: added vertices may share base neighbours,
    # which mutate_extension never produces
    rng = random.Random(5)
    for _ in range(20):
        ext = decompose_extension(random_graph(12, rng, density=0.45), 8)
        cache = build_indep_cache(ext.base, range(1, 9))
        for p, q in [(3, 3), (3, 5), (4, 4)]:
            rep = extension_fitness(cache, ext, p, q)
            i, v = rng.randrange(4), rng.randrange(8)
            atts = list(ext.attachments)
            atts[i] ^= 1 << v
            child = ExtensionState(ext.base, ext.inner, tuple(atts))
            flipped = attachment_flip_fitness(cache, ext, rep, i, v, p, q)
            _assert_settled(flipped, fitness(extension_to_graph(child), p, q), rep)


@given(graphs(min_n=5, max_n=9), st.sampled_from(FLIP_ORDERS), st.data())
@settings(max_examples=60, deadline=None)
def test_bounded_flip_fitness_is_exact_or_settled(g, orders, data):
    # every flip of each graph on a walk, scored from both ends of the pair:
    # the neighbour is returned exactly when it is strictly better, else None
    p, q = orders
    rep = fitness(g, p, q)
    for _ in range(data.draw(st.integers(1, 8))):
        for u, v in combinations(range(g.n), 2):
            exact = fitness(toggle_edge(g, u, v), p, q)
            _assert_settled(flip_fitness(g, rep, u, v, p, q), exact, rep)
            _assert_settled(flip_fitness(g, rep, v, u, p, q), exact, rep)
        u, v = data.draw(st.sampled_from(list(combinations(range(g.n), 2))))
        g = toggle_edge(g, u, v)
        rep = fitness(g, p, q)


@given(st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_bounded_attachment_flip_fitness_is_exact_or_settled(ext_seed, walk_seed):
    # each move on a walk and the move that undoes it: at most one of the
    # two is strictly better, and neither is when their totals are equal
    base, ext = _random_ext(ext_seed)
    lo = max(ext.inner.degrees())
    space = ExtensionSpace(base, (ext.inner,), (lo, lo + 4))  # as _random_ext draws it
    cache = build_indep_cache(base, range(1, base.n + 1))
    rng = random.Random(walk_seed)
    for _ in range(10):
        move = mutate_extension(space, ext, rng)
        if move is None:
            break
        child = toggle_attachment(ext, *move)
        for p, q in [(3, 3), (3, 5), (2, 5), (4, 6)]:
            rep = extension_fitness(cache, ext, p, q)
            exact = extension_fitness(cache, child, p, q)
            assert exact == fitness(extension_to_graph(child), p, q)
            forward = attachment_flip_fitness(cache, ext, rep, *move, p, q)
            back = attachment_flip_fitness(cache, child, exact, *move, p, q)
            _assert_settled(forward, exact, rep)
            _assert_settled(back, rep, exact)
        ext = child


def test_bounded_attachment_flip_fitness_with_shared_attachments():
    # every move of decomposed random graphs, whose added vertices may share
    # base neighbours, at clique orders other than 3
    rng = random.Random(11)
    for _ in range(6):
        ext = decompose_extension(random_graph(12, rng, density=0.45), 8)
        cache = build_indep_cache(ext.base, range(1, 9))
        for p, q in [(2, 4), (4, 4), (4, 5), (5, 3)]:
            rep = extension_fitness(cache, ext, p, q)
            for i in range(4):
                for v in range(8):
                    atts = list(ext.attachments)
                    atts[i] ^= 1 << v
                    child = ExtensionState(ext.base, ext.inner, tuple(atts))
                    _assert_settled(
                        attachment_flip_fitness(cache, ext, rep, i, v, p, q),
                        fitness(extension_to_graph(child), p, q), rep,
                    )


def test_removing_an_edge_in_no_triangle_queries_nothing(monkeypatch):
    # its gain is 0, so it cannot improve its source: no loss is counted
    queried = []
    through = counting._through_count
    monkeypatch.setattr(
        counting, "_through_count", lambda *args: queried.append(args[2:]) or through(*args)
    )
    found = 0
    for seed in range(10):
        base, ext = _random_ext(seed)
        cache = build_indep_cache(base, range(1, base.n + 1))
        rep = extension_fitness(cache, ext, 3, 5)
        g = extension_to_graph(ext)
        for i, att in enumerate(ext.attachments):
            for v in range(base.n):
                x = base.n + i
                if not att >> v & 1 or g.adj[x] & g.adj[v]:
                    continue  # absent, or in a triangle
                found += 1
                queried.clear()
                assert attachment_flip_fitness(cache, ext, rep, i, v, 3, 5) is None
                assert queried == []
                child = fitness(extension_to_graph(toggle_attachment(ext, i, v)), 3, 5)
                assert child.total >= rep.total
    assert found


def _brute_free_masks(cache, attachments, k):
    """(F1, F2) per attachment, straight from the cached k-sets: bit s is
    set iff the s-th set misses the attachment, or meets it at most once."""
    sets = list(map(int, cache.masks_by_size[k]))
    f1 = [sum(1 << s for s, held in enumerate(sets) if not held & att) for att in attachments]
    f2 = [
        sum(1 << s for s, held in enumerate(sets) if (held & att).bit_count() <= 1)
        for att in attachments
    ]
    return f1, f2


def _chain_case(seed: int, shared: bool):
    """(base, ext, draw): a random_extension and its mutate_extension moves,
    or a decomposed random graph, whose added vertices may share base
    neighbours, and uniform moves over every (added, base) pair."""
    rng = random.Random(seed)
    if shared:
        ext = decompose_extension(random_graph(12, rng, density=0.45), 8)
        return ext.base, ext, lambda e: (rng.randrange(4), rng.randrange(8))
    base, ext = _random_ext(seed)
    lo = max(ext.inner.degrees())
    space = ExtensionSpace(base, (ext.inner,), (lo, lo + 4))  # as _random_ext draws it
    return base, ext, lambda e: mutate_extension(space, e, rng)


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_free_masks_carried_through_toggle_attachment(seed, shared):
    # toggle_with_masks hands the child every (cache, k) its parent read and
    # no other, each entry whole: equal to the one built on an equal fresh
    # state and the one read off the cached sets, with entries other than i
    # as the parent's; every move scored from a carried state is the
    # recount's. Before each move about half the sizes are read, as the
    # scorers read a size, so some keys are carried and some are not. The
    # second cache holds the same sets in reverse order, so masks built for
    # one cache are wrong for the other
    base, ext, draw = _chain_case(seed, shared)
    cache = build_indep_cache(base, range(1, base.n + 1))
    flipped = counting.IndepSetCache(
        base, {k: array("Q", reversed(sets)) for k, sets in cache.masks_by_size.items()}
    )
    orders = [(3, 3), (3, 5), (2, 5), (4, 6)]
    reps = {pq: fitness(extension_to_graph(ext), *pq) for pq in orders}
    reads = random.Random(seed)
    assert ext.free_masks == {} and counting.toggle_with_masks(ext, 0, 0).free_masks == {}
    for _ in range(8):
        move = draw(ext)
        if move is None:
            break
        i, v = move
        atts = list(ext.attachments)
        atts[i] ^= 1 << v
        fresh = ExtensionState(ext.base, ext.inner, tuple(atts))
        exact = {pq: fitness(extension_to_graph(fresh), *pq) for pq in orders}
        for c in (cache, flipped):
            for pq, rep in reps.items():
                _assert_settled(attachment_flip_fitness(c, ext, rep, i, v, *pq), exact[pq], rep)
            for k in range(1, base.n + 1):
                if reads.random() < 0.5:
                    counting._free_rows(c, ext, k)
        parent = {key: (f1.copy(), f2.copy()) for key, (f1, f2) in ext.free_masks.items()}
        child = counting.toggle_with_masks(ext, i, v)
        assert child == fresh
        for c in (cache, flipped):
            read = {k for d, k in parent if d is c}
            assert {k for d, k in child.free_masks if d is c} == read
            for k in read:
                carried = child.free_masks[c, k]
                assert carried == counting._free_rows(c, fresh, k)
                assert carried == _brute_free_masks(c, fresh.attachments, k)
                assert all(type(x) is int for masks in carried for x in masks)
                for got, had in zip(carried, parent[c, k]):
                    assert got[:i] == had[:i] and got[i + 1 :] == had[i + 1 :]
        ext, reps = child, exact


def test_accepted_moves_reuse_their_parents_masks(monkeypatch):
    # a child built without its parent's masks scores the same moves, so
    # only the number of masks built shows the carry: at most 232 _free_of
    # calls for this run, against 1,324 with every child built lazily. A
    # size's masks are built whole only on a fresh position, and a moved
    # one builds just entry i after a removal
    from ramsey_abc import abc_search, dataset

    built, fresh, moves = [], [], []
    free_of, rows, draw = counting._free_of, counting._free_rows, abc_search.random_extension
    toggle = counting.toggle_with_masks
    monkeypatch.setattr(counting, "_free_of", lambda *a: built.append(a[-1]) or free_of(*a))
    monkeypatch.setattr(
        abc_search, "random_extension", lambda *a: fresh.append(draw(*a)) or fresh[-1]
    )

    def read(cache, ext, k):
        if (cache, k) not in ext.free_masks:
            assert any(ext is e for e in fresh)  # fresh holds every start
        return rows(cache, ext, k)

    def toggled(ext, i, v):
        before = len(built)
        child = toggle(ext, i, v)
        removing = ext.attachments[i] >> v & 1
        assert built[before:] == [child.attachments[i]] * len(ext.free_masks) * removing
        moves.append(removing)
        return child

    monkeypatch.setattr(counting, "_free_rows", read)
    monkeypatch.setattr(abc_search, "toggle_with_masks", toggled)
    params = abc_search.SearchParams(3, 10, 39, seed=1, budget=1000, mode="extension")
    base = dataset.extract_base()
    abc_search.run(params, base, cache=abc_search.extension_cache(params, base))
    assert len(built) <= 232 and 0 < sum(moves) < len(moves)
