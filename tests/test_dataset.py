"""Ingestion checks for the bundled 40-vertex graphs and the extracted base."""

from importlib import resources

import pytest

from ramsey_abc import dataset
from ramsey_abc.construct import decompose_extension, extension_to_graph
from ramsey_abc.graph import emit_adjacency_list, parse_adjacency_list


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


def test_base_validation_passes():
    rows = dataset.validate_base(dataset.extract_base())
    assert all(ok for _, ok, _ in rows)


def test_appendix_graphs_decompose_and_reassemble():
    # vertices 36..40 as the added set; attachments here are NOT pairwise
    # disjoint (the bundled graphs predate that restriction), so only the
    # lenient decomposition applies
    for name, report in dataset.load_all().items():
        ext = decompose_extension(report.graph, dataset.BASE_SIZE)
        assert extension_to_graph(ext) == report.graph
        assert ext.inner.n == 5
