"""Exact certification of witness claims and adjudication of dataset claims.

A certificate is a counting.FitnessReport (the exact p-clique and
q-independent-set counts of one graph) plus p, q, n and the degree verdict;
it names no violation. The one reader that prints a violation, the CLI's
verify command, finds it with counting.find_clique or find_independent_set.
certify_search is the one recount of a search's best, for `ramsey-abc
search` and scripts/search_experiments.py alike.

Claims recorded alongside the bundled dataset (expected triangle counts, the
absence of 10-independent sets, and four single-vertex deletions said to give
39-vertex witnesses) are checked against freshly computed exact values. A
failed claim is reported, never papered over: computed values always win.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bounds, dataset
from .abc_search import SearchResult
from .construct import ExtensionState, extension_to_graph
from .counting import FitnessReport, _count_complete, _count_deep
from .counting import count_cliques, count_independent_sets
from .graph import Graph


class CertificationError(Exception):
    """A search's reported best fitness disagrees with the exact counts of
    its best position. Not a ValueError: the CLI maps those to a usage error."""


@dataclass(frozen=True)
class Certificate(FitnessReport):
    """Outcome of exact (p, q) certification of one graph: the counts and
    the degree verdict."""

    p: int
    q: int
    n: int
    degree_feasible: bool | None


def certify(g: Graph, p: int, q: int) -> Certificate:
    """Exact p-clique and q-independent-set counts of g, and its degree
    verdict. No violation is searched for: a caller that wants one calls
    counting.find_clique or find_independent_set when a count is positive.

    degree_feasible reports whether every vertex degree lies in the
    admissible witness range; None when the range needs Ramsey values that
    are not exactly known.
    """
    cliques = count_cliques(g, p)
    indep = count_independent_sets(g, q)
    try:
        rng = bounds.degree_range(p, q, g.n)
        degree_feasible = all(d in rng for d in g.degrees())
    except ValueError:
        degree_feasible = None
    return Certificate(cliques, indep, p, q, g.n, degree_feasible)


def certify_search(result: SearchResult, p: int, q: int) -> tuple[Graph, Certificate]:
    """A search's best position as a Graph and its (p, q) certificate.

    The search carries fitness from move to move, so its reported best is
    recounted exactly; CertificationError unless both exact counts equal
    the reported ones."""
    best = result.best_position
    graph = extension_to_graph(best) if isinstance(best, ExtensionState) else best
    cert = certify(graph, p, q)
    reported = result.best_fitness
    if (cert.clique_count, cert.indep_count) != (reported.clique_count, reported.indep_count):
        raise CertificationError(
            f"reported best fitness {reported.total} fails certification: exact count "
            f"{cert.total} (cliques {cert.clique_count}, independent sets {cert.indep_count})"
        )
    return graph, cert


# Claims shipped with the dataset: triangle counts per graph, zero
# 10-independent sets everywhere, and the four deletions expected to yield
# triangle-free 39-vertex graphs with no 10-independent set.
TRIANGLE_CLAIMS = {"A": 3, "B": 3, "C": 2, "D": 2}
INDEP_CLAIMS = {"A": 0, "B": 0, "C": 0, "D": 0}
DELETION_CLAIMS = (("A", 37), ("A", 38), ("C", 3), ("C", 38))  # 1-indexed vertices


@dataclass(frozen=True)
class GraphClaimRow:
    name: str
    parse_warnings: int
    triangle_count: int
    expected_triangles: int
    ten_indep_count: int
    expected_ten_indep: int
    fitness_total: int

    @property
    def passed(self) -> bool:
        return (
            self.triangle_count == self.expected_triangles
            and self.ten_indep_count == self.expected_ten_indep
        )


@dataclass(frozen=True)
class AppendixReport:
    rows: tuple[GraphClaimRow, ...]

    @property
    def ok(self) -> bool:
        return all(row.passed for row in self.rows)

    def lines(self) -> list[str]:
        out = ["graph  warn  triangles (claim)  10-indep (claim)  fitness  verdict"]
        for r in self.rows:
            out.append(
                f"{r.name:>5}  {r.parse_warnings:>4}  "
                f"{r.triangle_count:>9} ({r.expected_triangles})  "
                f"{r.ten_indep_count:>8} ({r.expected_ten_indep})  "
                f"{r.fitness_total:>7}  {'PASS' if r.passed else 'FAIL'}"
            )
        return out


def verify_appendix(reports=None) -> AppendixReport:
    """Recompute triangle and 10-independent-set counts for graphs A-D and
    adjudicate them against the shipped claims."""
    if reports is None:
        reports = dataset.load_all()
    rows = []
    for name, rep in sorted(reports.items()):
        cert = certify(rep.graph, 3, 10)
        rows.append(
            GraphClaimRow(
                name=name,
                parse_warnings=len(rep.warnings),
                triangle_count=cert.clique_count,
                expected_triangles=TRIANGLE_CLAIMS.get(name, 0),
                ten_indep_count=cert.indep_count,
                expected_ten_indep=INDEP_CLAIMS.get(name, 0),
                fitness_total=cert.total,
            )
        )
    return AppendixReport(tuple(rows))


@dataclass(frozen=True)
class DeletionRow:
    name: str
    vertex: int  # 1-indexed label in the 40-vertex graph
    triangle_count: int
    ten_indep_count: int

    @property
    def is_witness(self) -> bool:
        return self.triangle_count == 0 and self.ten_indep_count == 0


@dataclass(frozen=True)
class DeletionReport:
    named: tuple[DeletionRow, ...]
    scan_witnesses: tuple[tuple[str, int], ...]

    @property
    def ok(self) -> bool:
        return all(row.is_witness for row in self.named)

    def lines(self) -> list[str]:
        out = ["deletion  triangles  10-indep  witness"]
        for r in self.named:
            out.append(
                f"{r.name}-{r.vertex:<6}  {r.triangle_count:>9}  "
                f"{r.ten_indep_count:>8}  {'yes' if r.is_witness else 'NO'}"
            )
        scan = ", ".join(f"{n}-{v}" for n, v in self.scan_witnesses) or "(none)"
        out.append(f"scan: witness deletions {scan}")
        return out


def verify_deletions(reports=None, appendix: AppendixReport | None = None) -> DeletionReport:
    """Scan every single-vertex deletion of all four graphs for witnesses,
    and certify the four claimed deletions exactly.

    No smaller graph is built. A triangle of G misses v unless v and two
    adjacent neighbours of v span it, so triangles(G - v) = triangles(G) -
    (edges inside N(v)): one triangle walk per graph and one 2-set count per
    vertex. The 10-independent sets split the same way, by the vertex
    recursion I10(G) = I10(G - v) + I9(G - N[v]): those of G - v are G's
    minus the independent 9-sets among v's non-neighbours (complement row
    v). Only triangle-free and claimed deletions are counted, and a graph
    with one pays for one deep 10-set count of G; the 9-set walk is skipped
    when that is 0, since the sets through v are among G's. Given
    appendix, verify_appendix's report on the same reports, each graph's
    10-set count is read from its row instead of counted again.
    """
    if reports is None:
        reports = dataset.load_all()
    known = {row.name: row.ten_indep_count for row in appendix.rows} if appendix else {}
    counts: dict[tuple[str, int], tuple[int, int]] = {}
    for name in sorted(reports):
        g = reports[name].graph
        comp = g.complement_rows
        total = count_cliques(g, 3)
        ten_total = None
        for v in range(g.n):
            triangles = total - _count_complete(g.adj, g.adj[v], 2)
            if not triangles or (name, v + 1) in DELETION_CLAIMS:
                if ten_total is None:
                    ten_total = known[name] if name in known else count_independent_sets(g, 10)
                ten = ten_total - _count_deep(comp, comp[v], 9) if ten_total else 0
                counts[(name, v + 1)] = (triangles, ten)
    named = tuple(DeletionRow(name, v, *counts[(name, v)]) for name, v in DELETION_CLAIMS)
    scan = tuple(key for key, row in counts.items() if row == (0, 0))
    return DeletionReport(named, scan)
