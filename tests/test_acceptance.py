"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. All comparisons are exact unless stated otherwise.
"""

import random

import pytest

from helpers import (
    all_graphs,
    brute_count_cliques,
    brute_count_indep,
    brute_isomorphic,
    random_graph,
)
from ramsey_abc import dataset, verify
from ramsey_abc.abc_search import SearchParams, run
from ramsey_abc.bounds import degree_range
from ramsey_abc.cli import main
from ramsey_abc.construct import (
    ExtensionSpace,
    decompose_extension,
    enumerate_triangle_free,
    extension_to_graph,
    random_extension,
)
from ramsey_abc.counting import (
    build_indep_cache,
    count_cliques,
    count_independent_sets,
    extension_fitness,
    fitness,
    max_independent_set,
)
from ramsey_abc.graph import Graph, toggle_edge


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def base() -> Graph:
    return dataset.extract_base()


def test_criterion_1_independent_set_census(base):
    cache = build_indep_cache(base, range(5, 9))
    counts = tuple(len(cache.masks_by_size[k]) for k in (5, 6, 7, 8))
    expected = (20265, 22995, 13760, 3360)
    _report(1, counts == expected, f"census k=5..8 computed {counts}, expected {expected}")


def test_criterion_2_base_properties(base):
    regular = set(base.degrees()) == {8}
    triangle_free = count_cliques(base, 3) == 0
    alpha, _ = max_independent_set(base)
    nine_indep = count_independent_sets(base, 9)
    ok = regular and triangle_free and alpha == 8 and nine_indep == 0
    _report(
        2,
        ok,
        f"8-regular={regular}, triangle-free={triangle_free}, "
        f"independence number={alpha}, 9-indep count={nine_indep}",
    )


def test_criterion_3_degree_ranges():
    r1 = degree_range(3, 10, 40)
    r2 = degree_range(5, 5, 43)
    r3 = degree_range(4, 6, 36)
    ok = (
        (r1.lo, r1.hi) == (4, 9)
        and (r2.lo, r2.hi) == (18, 24)
        and (r3.lo, r3.hi) == (11, 17)
        and r3.note is not None
        and "[11, 24]" in r3.note
    )
    _report(
        3,
        ok,
        f"(3,10,40)->[{r1.lo},{r1.hi}], (5,5,43)->[{r2.lo},{r2.hi}], "
        f"(4,6,36)->[{r3.lo},{r3.hi}] with discrepancy note",
    )


def test_criterion_4_fourteen_inner_graphs():
    catalog = enumerate_triangle_free(5)
    # brute-force cross-check over all 1024 labeled graphs on 5 vertices
    reps = []
    for g in all_graphs(5):
        if brute_count_cliques(g, 3):
            continue
        if not any(brute_isomorphic(g, r) for r in reps):
            reps.append(g)
    ok = len(catalog) == 14 and len(reps) == 14
    _report(4, ok, f"catalog size {len(catalog)}, brute-force classes {len(reps)}")


def test_criterion_5_appendix_adjudication():
    report = verify.verify_appendix()
    triangles = tuple(row.triangle_count for row in report.rows)
    ten_indep = tuple(row.ten_indep_count for row in report.rows)
    ok = triangles == (3, 3, 2, 2) and ten_indep == (0, 0, 0, 0) and report.ok
    _report(
        5,
        ok,
        f"triangle counts {triangles} (claim (3, 3, 2, 2)), "
        f"10-indep counts {ten_indep} (claim zeros)",
    )


def test_criterion_6_deletion_witnesses():
    report = verify.verify_deletions()
    verdicts = {(r.name, r.vertex): r.is_witness for r in report.named}
    ok = all(verdicts.values()) and set(verdicts) == set(verify.DELETION_CLAIMS)
    _report(6, ok, f"named deletions {verdicts}, scan found {report.scan_witnesses}")


def test_criterion_7_worked_examples():
    g1 = Graph.from_edges(5, [(0, 1), (1, 2), (1, 3), (2, 3), (3, 4)])
    g2 = Graph.cycle(5)  # the 5-vertex witness
    f1 = fitness(g1, 3, 3).total
    f2 = fitness(g2, 3, 3).total
    g3 = toggle_edge(g1, 1, 3)
    diff = set(g1.edges()) ^ set(g3.edges())
    ok = f1 == 2 and f2 == 0 and diff == {(1, 3)}
    _report(7, ok, f"f(G1)={f1}, f(G2)={f2}, G1/G3 edge difference {sorted(diff)}")


def test_criterion_8_search_capability():
    wins_small = 0
    for seed in range(10):
        res = run(SearchParams(p=3, q=3, n=5, seed=seed, budget=10_000))
        wins_small += res.best_fitness.total == 0
    wins_large = 0
    for seed in range(10):
        res = run(SearchParams(p=3, q=4, n=8, seed=seed, budget=1_000_000))
        wins_large += res.best_fitness.total == 0
    ok = wins_small >= 9 and wins_large >= 5
    _report(
        8,
        ok,
        f"(3,3,5) budget 1e4: {wins_small}/10 seeds reach 0 (need >= 9); "
        f"(3,4,8) budget 1e6: {wins_large}/10 (need >= 5)",
    )


def test_criterion_9_oracle_equivalence():
    mismatches = 0
    for g in all_graphs(5):
        if count_cliques(g, 3) != brute_count_cliques(g, 3):
            mismatches += 1
        if count_independent_sets(g, 3) != brute_count_indep(g, 3):
            mismatches += 1
    rng = random.Random(2024)
    checked = 0
    for _ in range(500):
        n = rng.randint(2, 8)
        g = random_graph(n, rng, density=rng.random())
        for p, q in [(2, 2), (3, 3), (3, 4), (4, 3)]:
            if p > n or q > n:
                continue
            rep = fitness(g, p, q)
            if rep.clique_count != brute_count_cliques(g, p):
                mismatches += 1
            if rep.indep_count != brute_count_indep(g, q):
                mismatches += 1
            checked += 1
    ok = mismatches == 0 and checked > 800
    _report(
        9,
        ok,
        f"1024 exhaustive 5-vertex graphs plus {checked} random checks, "
        f"{mismatches} mismatches",
    )


def test_criterion_10_incremental_fitness(base):
    mismatches = 0
    rng = random.Random(99)
    catalog5 = enumerate_triangle_free(5)
    total = 0
    for trial in range(200):
        inner = catalog5[trial % len(catalog5)]
        lo = max(1, max(inner.degrees()))
        min_total = sum(lo - t for t in inner.degrees())
        n_base = rng.randint(max(8, min_total), 12)
        small = random_graph(n_base, rng, density=0.35)
        ext = random_extension(ExtensionSpace(small, (inner,), (lo, lo + 2)), 0, rng)
        cache = build_indep_cache(small, range(1, n_base + 1))
        g = extension_to_graph(ext)
        for p, q in [(3, 3), (3, 5)]:
            inc = extension_fitness(cache, ext, p, q)
            direct = fitness(g, p, q)
            if (inc.clique_count, inc.indep_count) != (
                direct.clique_count,
                direct.indep_count,
            ):
                mismatches += 1
            total += 1
    # decomposed bundled graph A at (3, 10)
    graph_a = dataset.load_graph("A").graph
    ext_a = decompose_extension(graph_a, dataset.BASE_SIZE)
    cache_a = build_indep_cache(base, range(5, 11))
    inc_a = extension_fitness(cache_a, ext_a, 3, 10)
    direct_a = fitness(graph_a, 3, 10)
    a_match = (inc_a.clique_count, inc_a.indep_count) == (
        direct_a.clique_count,
        direct_a.indep_count,
    )
    ok = mismatches == 0 and a_match
    _report(
        10,
        ok,
        f"{total} random extension checks with {mismatches} mismatches; "
        f"graph A at (3,10): incremental {inc_a.total} vs direct {direct_a.total}",
    )


def test_criterion_11_replay_determinism(tmp_path):
    args = [
        "search", "--p", "3", "--q", "4", "--n", "8",
        "--seed", "31", "--budget", "20000", "--out", str(tmp_path),
    ]
    main(args)
    main(args)
    dirs = sorted(tmp_path.iterdir())
    first = (dirs[0] / "history.csv").read_bytes()
    second = (dirs[1] / "history.csv").read_bytes()
    ok = len(dirs) == 2 and first == second
    _report(
        11,
        ok,
        f"two runs, history files byte-identical={first == second} "
        f"({len(first)} bytes)",
    )
