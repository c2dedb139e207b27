"""The benchmark in bench/ reaches into the package by name; deleting or
renaming a traced function must fail here, not only in a traced bench run."""

import functools
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    importlib.import_module("workloads")
    for module, attr in spans.TRACED:
        owner = importlib.import_module(f"{spans.PACKAGE}.{module}")
        target = functools.reduce(getattr, attr.split("."), owner)
        assert callable(target), (module, attr)
