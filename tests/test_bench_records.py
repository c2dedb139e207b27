"""Every committed performance record (a root BENCH_*.json) must parse and
carry what a reader needs to weigh its claim: a label, the parent and change
it compares, a claim on a metric and workload that BENCHMARK.json declares,
and an entry for every declared workload."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
METRICS = {m["name"] for m in BENCHMARK["end_to_end"]}
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_fields(path):
    record = json.loads(path.read_text())
    assert isinstance(record.get("label"), str) and record["label"]
    provenance = record["provenance"]
    assert isinstance(provenance["parent"], dict) and isinstance(provenance["change"], dict)
    claim = record["claim"]
    assert claim["metric"] in METRICS
    assert claim["workload"] in WORKLOADS
    assert WORKLOADS <= set(record["workloads"])
