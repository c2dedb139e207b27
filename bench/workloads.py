"""The benchmark's workloads: session set-up, one operation each, output checks.

An operation is one search seed (the two search workloads) or one
certification pass (certify_dataset). Every operation's output is checked
against exact certification or the dataset's shipped claims; a check that
fails returns a message, and the caller counts the operation as failed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from dataclasses import dataclass
from time import perf_counter

from ramsey_abc import abc_search, bounds, construct, counting, dataset, verify
from ramsey_abc.abc_search import (
    BUDGET_EXHAUSTED,
    EXTENSION_MODE,
    FULL_MODE,
    WITNESS_FOUND,
    SearchParams,
    SearchResult,
)
from ramsey_abc.graph import Graph

# The extension target: 4 vertices added to the 35-vertex base. Its answer is
# known (graph A minus vertex 37 or 38), unlike the paper's open (3,10,40).
EXT_TARGET = (3, 10, 39)

# Values the certification pass must reproduce, written out here so that a
# change to the library's own constants cannot make the check pass by itself.
EXPECTED_CENSUS = {5: 20265, 6: 22995, 7: 13760, 8: 3360}
EXPECTED_APPENDIX = {"A": (3, 0), "B": (3, 0), "C": (2, 0), "D": (2, 0)}
EXPECTED_DELETIONS = (("A", 37), ("A", 38), ("C", 3), ("C", 38))
EXPECTED_INNER_GRAPHS = 7  # triangle-free graphs on 4 vertices, up to isomorphism


@dataclass(frozen=True)
class Session:
    """What set-up loads once per process and every operation reuses."""

    reports: dict
    base: Graph
    cache: counting.IndepSetCache


def setup() -> Session:
    """Load the dataset, extract the base, build the extension target's
    independent-set cache and check its inner-graph catalog."""
    reports = dataset.load_all()
    base = dataset.extract_base(reports["A"])
    p, q, n = EXT_TARGET
    added = n - base.n
    cache = counting.build_indep_cache(base, range(max(1, q - added), min(q, base.n) + 1))
    catalog = construct.enumerate_triangle_free(added)
    if len(catalog) != EXPECTED_INNER_GRAPHS:
        raise RuntimeError(
            f"{len(catalog)} triangle-free inner graphs on {added} vertices, "
            f"expected {EXPECTED_INNER_GRAPHS}"
        )
    return Session(reports, base, cache)


@dataclass(frozen=True)
class SearchSpec:
    """A search workload: one (p, q, n) target, searched from many seeds."""

    name: str
    p: int
    q: int
    n: int
    mode: str
    budget: int
    seeds: int  # distinct seeds per run, each searched once per pass
    traced_seeds: int  # leading seeds re-run under tracing

    def seed_list(self, seed: int) -> list[int]:
        return random.Random(seed).sample(range(1 << 31), self.seeds)

    def params(self, seed: int) -> SearchParams:
        degree_range = construct.DEFAULT_DEGREE_RANGE
        if self.mode == EXTENSION_MODE:
            rng = bounds.degree_range(self.p, self.q, self.n)
            degree_range = (rng.lo, rng.hi)
        return SearchParams(
            self.p, self.q, self.n, seed=seed, budget=self.budget,
            mode=self.mode, degree_range=degree_range,
        )


@dataclass(frozen=True)
class CertifySpec:
    """Repeated certification passes over the shipped dataset."""

    name: str
    min_passes: int  # at least ten passes beyond p75
    traced_passes: int


WORKLOADS = {
    spec.name: spec
    for spec in (
        SearchSpec("full_4_4_12", 4, 4, 12, FULL_MODE, budget=1000, seeds=600, traced_seeds=40),
        SearchSpec("ext_3_10_39", *EXT_TARGET, EXTENSION_MODE,
                   budget=1000, seeds=40, traced_seeds=6),
        CertifySpec("certify_dataset", min_passes=40, traced_passes=10),
    )
}


@dataclass(frozen=True)
class SeedOutcome:
    seed: int
    result: SearchResult
    search_s: float  # abc_search.run alone
    op_s: float  # search plus certification of its result
    digest: bytes
    problem: str | None

    @property
    def witness(self) -> bool:
        return self.result.reason == WITNESS_FOUND


def trajectory_digest(result: SearchResult) -> bytes:
    """Hash of everything a pure speed-up must leave unchanged."""
    best = result.best_fitness
    record = (
        result.reason,
        result.evaluations,
        best.clique_count,
        best.indep_count,
        [dataclasses.astuple(row) for row in result.history],
    )
    return hashlib.sha256(repr(record).encode()).digest()


def check_search(params: SearchParams, result: SearchResult) -> str | None:
    """Re-certify the search's best graph; None when the output is correct."""
    if result.reason not in (WITNESS_FOUND, BUDGET_EXHAUSTED):
        return f"unknown stop reason {result.reason!r}"
    if result.evaluations > params.budget:
        return f"{result.evaluations} evaluations exceed the budget {params.budget}"
    position = result.best_position
    if params.mode == EXTENSION_MODE:
        try:
            construct.check_extension_invariants(position, params.degree_range)
        except ValueError as exc:
            return f"best extension breaks its invariants: {exc}"
        graph = construct.extension_to_graph(position)
    else:
        graph = position
    cert = verify.certify(graph, params.p, params.q)
    if cert.total != result.best_fitness.total:
        return f"reported best fitness {result.best_fitness.total}, exact count {cert.total}"
    if result.reason == WITNESS_FOUND:
        if not cert.is_witness:
            return "reported witness fails certification"
        if cert.degree_feasible is False:
            return "certified witness has a degree outside the admissible range"
    return None


def run_search(spec: SearchSpec, session: Session, seed: int) -> SeedOutcome:
    params = spec.params(seed)
    t0 = perf_counter()
    if spec.mode == EXTENSION_MODE:
        result = abc_search.run(params, base=session.base, cache=session.cache)
    else:
        result = abc_search.run(params)
    t1 = perf_counter()
    problem = check_search(params, result)
    t2 = perf_counter()
    return SeedOutcome(seed, result, t1 - t0, t2 - t0, trajectory_digest(result), problem)


def graphs_per_pass(session: Session) -> int:
    """Graphs one certification pass decides exactly: the base, the four
    dataset graphs, the four claimed deletions and every scanned deletion."""
    scanned = sum(rep.graph.n for rep in session.reports.values())
    return 1 + len(session.reports) + len(EXPECTED_DELETIONS) + scanned


def certify_pass() -> str | None:
    """The library side of scripts/reproduce_results.py, in-process with one
    worker; None when every shipped claim is reproduced."""
    problems = []
    base = dataset.extract_base()
    failed_rows = [check for check, passed, _ in dataset.validate_base(base) if not passed]
    if failed_rows:
        problems.append(f"base checks failed: {failed_rows}")
    if dataset.BASE_INDEP_CENSUS != EXPECTED_CENSUS:
        problems.append(f"base census {dataset.BASE_INDEP_CENSUS} != {EXPECTED_CENSUS}")
    if not dataset.bases_identical():
        problems.append("the four graphs do not induce the same base")
    appendix = verify.verify_appendix()
    counts = {row.name: (row.triangle_count, row.ten_indep_count) for row in appendix.rows}
    if not appendix.ok or counts != EXPECTED_APPENDIX:
        problems.append(f"appendix counts {counts} != {EXPECTED_APPENDIX}")
    deletions = verify.verify_deletions()
    if not deletions.ok or tuple(deletions.scan_witnesses) != EXPECTED_DELETIONS:
        problems.append(f"deletion witnesses {deletions.scan_witnesses} != {EXPECTED_DELETIONS}")
    return "; ".join(problems) or None
