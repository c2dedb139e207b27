"""Ingestion checks for the bundled 40-vertex graphs and the extracted base."""

import random
from importlib import resources

import pytest
from helpers import branch_and_bound_independence_number, random_graph

from ramsey_abc import dataset
from ramsey_abc.construct import decompose_extension, extension_to_graph
from ramsey_abc.counting import count_cliques, count_independent_sets
from ramsey_abc.graph import (
    Graph,
    emit_adjacency_list,
    induced_subgraph,
    parse_adjacency_list,
    toggle_edge,
)


def test_all_graphs_parse_clean():
    for name, report in dataset.load_all().items():
        assert report.graph.n == 40
        assert report.warnings == (), f"graph {name} has reconciliation warnings"


def test_committed_warning_record_is_current():
    lines = []
    for name in dataset.GRAPH_NAMES:
        rep = dataset.load_graph(name)
        if rep.warnings:
            lines.extend(f"{name}: ({u}, {v}) {reason}" for u, v, reason in rep.warnings)
        else:
            lines.append(f"{name}: no reconciliation warnings")
    committed = (resources.files("ramsey_abc.data") / "ingest_warnings.txt").read_text()
    assert committed == "\n".join(lines) + "\n"


def test_dataset_files_roundtrip():
    for name in dataset.GRAPH_NAMES:
        g = dataset.load_graph(name).graph
        assert parse_adjacency_list(emit_adjacency_list(g)).graph == g


def test_bundled_graphs_are_parsed_once(monkeypatch):
    # every later load, and every certification step, reuses the first parse
    from ramsey_abc import verify

    first = dataset.load_all()
    parsed = []
    monkeypatch.setattr(
        dataset, "parse_adjacency_list", lambda text: parsed.append(text) or parse_adjacency_list(text)
    )
    assert dataset.load_all() == first
    assert dataset.load_graph("A") is first["A"]
    dataset.validate_base(dataset.extract_base())
    dataset.bases_identical()
    verify.verify_appendix()
    verify.verify_deletions()
    assert parsed == []


def test_unknown_name():
    with pytest.raises(ValueError):
        dataset.load_graph("E")


def test_bases_identical_across_graphs():
    assert dataset.bases_identical()


@pytest.mark.parametrize("name", dataset.GRAPH_NAMES)
def test_extract_base_is_the_induced_prefix(name):
    # the base rows are masked prefix rows; they must be the induced subgraph
    # on vertices 0..34, complement rows included
    report = dataset.load_graph(name)
    base = dataset.extract_base(report)
    reference = induced_subgraph(report.graph, range(dataset.BASE_SIZE))
    assert base == reference and base.complement_rows == reference.complement_rows
    assert base == Graph(base.n, base.adj)  # passes the public constructor's checks


def test_extract_base_rejects_a_graph_below_the_base_size():
    with pytest.raises(ValueError, match="vertex set not within"):
        dataset.extract_base(parse_adjacency_list(emit_adjacency_list(Graph.cycle(34))))


def test_base_validation_passes():
    rows = dataset.validate_base(dataset.extract_base())
    assert all(ok for _, ok, _ in rows)


def _reference_rows(base):
    """validate_base's rows counted one question at a time: the triangles,
    alpha by branch and bound and each census size by the walk."""
    degs = set(base.degrees())
    triangles = count_cliques(base, 3)
    alpha = branch_and_bound_independence_number(base)
    rows = [
        ("8-regular", base.n == 35 and degs == {8}, f"n={base.n}, degrees={sorted(degs)}"),
        ("triangle-free", triangles == 0, f"triangle count {triangles}"),
        ("independence number 8", alpha == 8, f"computed {alpha}"),
    ]
    for k, expected in sorted(dataset.BASE_INDEP_CENSUS.items()):
        count = count_independent_sets(base, k)
        rows.append((f"{k}-independent sets = {expected}", count == expected, f"computed {count}"))
    return rows


def test_base_validation_rows_on_other_graphs():
    base = dataset.extract_base()
    u, v = base.edges()[0]
    w = next(w for w in range(1, 35) if not base.has_edge(0, w))
    cases = {
        "shipped base": base,
        "an edge removed": toggle_edge(base, u, v),
        "a non-edge added": toggle_edge(base, 0, w),
        "C35": Graph.cycle(35),
        "random": random_graph(35, random.Random(35)),
    }
    for name, g in cases.items():
        rows = dataset.validate_base(g)
        assert rows == _reference_rows(g), name
        assert all(ok for _, ok, _ in rows) == (name == "shipped base"), name


def test_appendix_graphs_decompose_and_reassemble():
    # vertices 36..40 as the added set; attachments here are NOT pairwise
    # disjoint (the bundled graphs predate that restriction), so only the
    # lenient decomposition applies
    for name, report in dataset.load_all().items():
        ext = decompose_extension(report.graph, dataset.BASE_SIZE)
        assert extension_to_graph(ext) == report.graph
        assert ext.inner.n == 5
