import pytest

from helpers import brute_fitness, count_graph_builds, graphs, spy_finds
from ramsey_abc import dataset
from ramsey_abc.counting import find_clique, find_independent_set
from ramsey_abc.graph import Graph, induced_subgraph
from ramsey_abc.verify import (
    DELETION_CLAIMS,
    TRIANGLE_CLAIMS,
    CertificationError,
    certify,
    certify_search,
    verify_appendix,
    verify_deletions,
)

from hypothesis import given, settings
from hypothesis import strategies as st


def test_certify_c5(c5):
    cert = certify(c5, 3, 3)
    assert cert.is_witness
    assert find_clique(c5, 3) is None and find_independent_set(c5, 3) is None
    assert cert.degree_feasible is True  # [2,2] and C5 is 2-regular


def test_certify_worked_example(g1):
    cert = certify(g1, 3, 3)
    assert not cert.is_witness
    assert find_clique(g1, 3) == (1, 2, 3)
    assert find_independent_set(g1, 3) == (0, 2, 4)
    assert cert.total == 2


def test_certify_k6():
    cert = certify(Graph.complete(6), 3, 3)
    assert cert.clique_count == 20
    assert not cert.is_witness


def test_certify_degree_feasibility_unknown():
    # R(6,6) is unknown, so no degree verdict is possible
    cert = certify(Graph.complete(8), 7, 7)
    assert cert.degree_feasible is None


@given(graphs(max_n=8), st.data())
@settings(max_examples=100)
def test_certify_matches_brute_force(g, data):
    p = data.draw(st.integers(1, g.n))
    q = data.draw(st.integers(1, g.n))
    cert = certify(g, p, q)
    assert cert.total == brute_fitness(g, p, q)
    # a positive count has a violation to find, and a zero count has none
    clique, indep = find_clique(g, p), find_independent_set(g, q)
    assert (clique is not None) == (cert.clique_count > 0)
    assert (indep is not None) == (cert.indep_count > 0)
    if clique:
        assert induced_subgraph(g, clique).edge_count() == p * (p - 1) // 2
    if indep:
        assert induced_subgraph(g, indep).edge_count() == 0


def test_certify_makes_no_find_call(monkeypatch, g1):
    # a certificate is counts plus the degree verdict; reading it finds no
    # violation, even where both counts are positive
    calls = spy_finds(monkeypatch)
    cases = [(g1, 3, 3), (Graph.complete(6), 3, 3), (dataset.load_graph("A").graph, 3, 9)]
    read = [(c.total, c.is_witness, c.degree_feasible) for c in (certify(*a) for a in cases)]
    assert read == [(2, False, False), (20, False, False), (5992, False, False)]
    assert calls == {"find_clique": [], "find_independent_set": []}


def test_certify_search_compares_both_counts(c5):
    # an extension's best is assembled into its graph before the recount; a
    # report with the right total but swapped counts fails, and the failure
    # is not a ValueError, which the CLI reads as a usage error
    from ramsey_abc.abc_search import BUDGET_EXHAUSTED, SearchResult
    from ramsey_abc.construct import ExtensionState, extension_to_graph
    from ramsey_abc.counting import FitnessReport, fitness

    ext = ExtensionState(c5, Graph.empty(1), (0b00101,))
    exact = fitness(extension_to_graph(ext), 3, 3)
    graph, cert = certify_search(SearchResult(ext, exact, 0, 1, (), BUDGET_EXHAUSTED), 3, 3)
    assert graph == extension_to_graph(ext)
    assert isinstance(cert, FitnessReport) and (cert.n, cert.total) == (6, exact.total)
    swapped = SearchResult(Graph.complete(5), FitnessReport(0, 10), 0, 1, (), BUDGET_EXHAUSTED)
    with pytest.raises(CertificationError, match=r"exact count 10 \(cliques 10, independent"):
        certify_search(swapped, 3, 3)
    assert not issubclass(CertificationError, ValueError)


def test_appendix_report_structure():
    report = verify_appendix()
    assert [row.name for row in report.rows] == ["A", "B", "C", "D"]
    for row in report.rows:
        assert row.fitness_total == row.triangle_count + row.ten_indep_count
        assert row.expected_triangles == TRIANGLE_CLAIMS[row.name]
        assert row.expected_ten_indep == 0
    assert len(report.lines()) == 5


def test_deletion_report_named_rows():
    report = verify_deletions()
    assert [(r.name, r.vertex) for r in report.named] == list(DELETION_CLAIMS)
    assert all(hit in [(r.name, r.vertex) for r in report.named] for hit in report.scan_witnesses)
    # the scan must at least find every named deletion that certifies
    for row in report.named:
        if row.is_witness:
            assert (row.name, row.vertex) in report.scan_witnesses


def test_verify_deletions_builds_no_graph(monkeypatch):
    # G - v is a vertex mask over G's rows, not a new Graph per deletion
    from ramsey_abc import dataset

    reports = dataset.load_all()
    checked, derived = count_graph_builds(monkeypatch)
    report = verify_deletions(reports)
    assert not checked and not derived
    assert report.ok and report.scan_witnesses == DELETION_CLAIMS


def test_deletion_scan_matches_direct_recounts():
    # all 160 deletions of A-D, each built and recounted in full: the scan's
    # witness set and its named rows read the same counts
    from ramsey_abc import dataset
    from ramsey_abc.counting import count_cliques, count_independent_sets
    from ramsey_abc.graph import delete_vertex

    report = verify_deletions()
    witnesses = []
    for name in dataset.GRAPH_NAMES:
        g = dataset.load_graph(name).graph
        for v in range(g.n):
            smaller, _ = delete_vertex(g, v)
            if count_cliques(smaller, 3) == 0 and count_independent_sets(smaller, 10) == 0:
                witnesses.append((name, v + 1))
    assert report.scan_witnesses == tuple(witnesses)
    for row in report.named:
        smaller, _ = delete_vertex(dataset.load_graph(row.name).graph, row.vertex - 1)
        assert row.triangle_count == count_cliques(smaller, 3)
        assert row.ten_indep_count == count_independent_sets(smaller, 10)


def test_deletion_witnesses_certify_with_feasible_degrees():
    # full certification of the four claimed 39-vertex witnesses: exact
    # counts zero and every degree inside the admissible [3, 9] band
    from ramsey_abc import dataset
    from ramsey_abc.graph import delete_vertex

    for name, v in DELETION_CLAIMS:
        g = dataset.load_graph(name).graph
        smaller, _ = delete_vertex(g, v - 1)
        cert = certify(smaller, 3, 10)
        assert cert.is_witness
        assert cert.degree_feasible is True


def test_deletion_scan_subtracts_the_sets_through_v():
    # A and C, each with one edge removed, hold independent 10-sets, so each
    # selected deletion's count is I10(G) minus the 9-sets among v's
    # non-neighbours; the named rows and the scan read the direct masked count
    from ramsey_abc import dataset
    from ramsey_abc.counting import _count_deep, count_cliques, count_independent_sets
    from ramsey_abc.graph import ParseReport, delete_vertex, toggle_edge

    removed = {"A": (0, 1), "C": (0, 2)}
    mutated = {name: toggle_edge(dataset.load_graph(name).graph, *e) for name, e in removed.items()}
    assert all(count_independent_sets(g, 10) for g in mutated.values())
    report = verify_deletions({name: ParseReport(g) for name, g in mutated.items()})

    def direct(name, v):
        g = mutated[name]
        full = (1 << g.n) - 1
        return _count_deep(g.complement_rows, full ^ (1 << v), 10)

    witnesses = [
        (name, v + 1)
        for name, g in sorted(mutated.items())
        for v in range(g.n)
        if not count_cliques(delete_vertex(g, v)[0], 3) and not direct(name, v)
    ]
    assert report.scan_witnesses == tuple(witnesses)
    tens = [row.ten_indep_count for row in report.named]
    assert tens == [direct(row.name, row.vertex - 1) for row in report.named]
    assert tens == [87, 71, 0, 15]


def test_verify_deletions_reads_the_appendix_counts(monkeypatch):
    # given verify_appendix's report on the same reports, the scan takes each
    # graph's 10-set count from its row and counts none again; A and C with
    # one edge removed hold 10-sets, so the subtraction reads a non-zero count
    from ramsey_abc import dataset, verify
    from ramsey_abc.graph import ParseReport, toggle_edge

    removed = {"A": (0, 1), "C": (0, 2)}
    mutated = {
        name: ParseReport(toggle_edge(dataset.load_graph(name).graph, *edge))
        for name, edge in removed.items()
    }
    for reports in (dataset.load_all(), mutated):
        appendix = verify_appendix(reports)
        expected = verify_deletions(reports)
        counted = []
        count = verify.count_independent_sets
        monkeypatch.setattr(
            verify, "count_independent_sets", lambda g, q: counted.append(q) or count(g, q)
        )
        assert verify_deletions(reports, appendix) == expected
        assert counted == []
        monkeypatch.undo()
