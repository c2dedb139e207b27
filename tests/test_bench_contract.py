"""The benchmark in bench/ reaches into the package by name; deleting or
renaming a traced function must fail here, not only in a traced bench run.
Its output check (exact re-certification of every search result) runs here
too, on the first seeds of both search workloads."""

import functools
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    importlib.import_module("workloads")
    for module, attr in spans.TRACED:
        owner = importlib.import_module(f"{spans.PACKAGE}.{module}")
        target = functools.reduce(getattr, attr.split("."), owner)
        assert callable(target), (module, attr)


@pytest.mark.parametrize("name", ["full_4_4_12", "ext_3_10_39"])
def test_search_workload_outputs_certify(monkeypatch, name):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    session = workloads.setup()
    spec = workloads.WORKLOADS[name]
    for seed in spec.seed_list(1)[:2]:
        outcome = workloads.run_search(spec, session, seed)
        assert outcome.problem is None, (seed, outcome.problem)
