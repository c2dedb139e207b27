#!/usr/bin/env python3
"""Smoke test of the benchmark itself, in a few seconds:

    python3 bench/smoke.py

Runs every workload at tiny sizes, untraced and traced, and asserts that
each metric BENCHMARK.json names is emitted with its unit and no other; then
asserts that the output checks reject a wrong witness and a contradicted
dataset claim, and that such a failure marks the run incorrect.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from ramsey_abc import abc_search, verify  # noqa: E402
from ramsey_abc.abc_search import WITNESS_FOUND, SearchResult  # noqa: E402
from ramsey_abc.counting import FitnessReport  # noqa: E402
from ramsey_abc.graph import Graph  # noqa: E402

TINY = {
    "full_4_4_12": dict(seeds=3, budget=300, traced_seeds=1),
    "ext_3_10_39": dict(seeds=2, budget=40, traced_seeds=1),
    "certify_dataset": dict(min_passes=1, traced_passes=1),
}


def tiny(name: str):
    return dataclasses.replace(wl.WORKLOADS[name], **TINY[name])


def expected_units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in run.BENCH[section]}


def check_metrics_emitted() -> None:
    assert set(TINY) == {w["name"] for w in run.BENCH["workloads"]}
    for name in TINY:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            details, result = run.measure(wl, tiny(name), seed=3, seconds=0, trace=trace, probes=1)
            assert result["correct"], (name, trace, details["errors"])
            assert result["attempted"] >= 1 and result["failed"] == 0
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == expected_units(section), (name, section, units)
            values = [v["value"] for v in result["metrics"].values()]
            assert all(isinstance(v, (int, float)) for v in values)
            if section == "end_to_end":
                assert all(v > 0 for v in values), (name, result["metrics"])


def check_wrong_witness_rejected() -> None:
    print("checking rejection: the FAILED lines that follow are expected", file=sys.stderr)
    params = tiny("full_4_4_12").params(0)
    fake = SearchResult(
        best_position=Graph.complete(params.n),
        best_fitness=FitnessReport(0, 0),
        rounds=0,
        evaluations=1,
        history=(),
        reason=WITNESS_FOUND,
    )
    assert wl.check_search(params, fake) is not None

    real_run = abc_search.run
    abc_search.run = lambda params, base=None, cache=None: fake
    try:
        _, result = run.measure(wl, tiny("full_4_4_12"), seed=0, seconds=0, trace=False, probes=1)
    finally:
        abc_search.run = real_run
    assert not result["correct"] and result["failed"] == result["attempted"] == 3


def check_contradicted_claim_rejected() -> None:
    real = verify.verify_deletions

    def missing_one(*args, **kwargs):
        report = real(*args, **kwargs)
        return dataclasses.replace(report, scan_witnesses=report.scan_witnesses[:-1])

    verify.verify_deletions = missing_one
    try:
        assert wl.certify_pass() is not None
    finally:
        verify.verify_deletions = real
    assert wl.certify_pass() is None


def main() -> int:
    check_metrics_emitted()
    check_wrong_witness_rejected()
    check_contradicted_claim_rejected()
    print("bench smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
