#!/usr/bin/env python3
"""ramsey-abc benchmark: time to a certified witness, search throughput and
certification time, with an optional traced run for per-layer numbers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/``. It is a closed loop with one client in one process and one
thread: each operation (a search seed, a certification pass) starts when
the previous one has finished. Search seeds come from ``--seed``; the
program only ever sees the generated SearchParams.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run, whose spans go
to ``.bench_out/``. The line before it holds provenance, the expanded seed
list and the trajectory fingerprint. The exit code is 1 if any output check
failed and 2 if the package cannot be imported. See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from hostref import HostClock
from spans import SETUP, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_PROBES = 5


def percentile(keys: list, q: float):
    """Nearest-rank percentile: the ceil(q * n)-th smallest key."""
    ordered = sorted(keys)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def time_setup(probes: int) -> float:
    """Median scaled seconds of cold set-ups (import included), each in a
    fresh interpreter so that none reuses another's imports or data."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    samples = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, str(probe)], cwd=ROOT, capture_output=True, text=True,
            timeout=120, check=True,
        )
        seconds, factor = map(float, done.stdout.split())
        samples.append(seconds * factor)
    return statistics.median(samples)


def provenance() -> dict:
    import numpy

    rev = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            rev = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            rev = None
    source = hashlib.sha256()
    for path in sorted((SRC / "ramsey_abc").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": rev,
        "source_sha256": source.hexdigest(),
    }


class Ledger:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def attempt(self, label: str, fn, *args) -> tuple[bool, object]:
        """Run one operation; (False, None) if it raised."""
        self.attempted += 1
        try:
            return True, fn(*args)
        except Exception:
            self.fail(label, traceback.format_exc())
            return False, None

    def fail(self, label: str, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{label}: {message}")
        print(f"FAILED {label}: {message}", file=sys.stderr)


def traced_op(tracer, label: str):
    """Context that traces one operation, or does nothing without a tracer."""
    return nullcontext() if tracer is None else tracer.op(label)


@dataclass
class Traced:
    """Work of the traced operations, run once untraced and once traced,
    with both times scaled to nominal host speed."""

    evals: int = 0
    untraced_s: float = 0.0
    traced_s: float = 0.0


# --- search workloads -------------------------------------------------------

def search_pass(wl, spec, session, seeds, ledger, clock, first=None, tracer=None) -> dict:
    """One pass over seeds; returns {seed: SeedOutcome} of the ops that ran,
    with times scaled to nominal host speed. With first given, each outcome
    must repeat that seed's first trajectory. With a tracer, each seed is
    traced as one operation."""
    outcomes = {}
    for seed in seeds:
        with traced_op(tracer, f"seed:{seed}"):
            ok, out = ledger.attempt(f"seed {seed}", wl.run_search, spec, session, seed)
        factor = clock.factor()
        if tracer is not None:
            tracer.scale_op(factor)
        if not ok:
            continue
        out = dataclasses.replace(out, search_s=out.search_s * factor, op_s=out.op_s * factor)
        if out.problem:
            ledger.fail(f"seed {seed}", out.problem)
        elif first is not None and seed in first and out.digest != first[seed].digest:
            ledger.fail(f"seed {seed}", "trajectory differs from the same seed's first run")
        outcomes[seed] = out
    return outcomes


def search_outcomes(spec, seeds, first) -> dict:
    """Exact, timing-free results of the first pass over the seed list."""
    runs = [first[s] for s in seeds if s in first]
    fingerprint = hashlib.sha256()
    for out in runs:
        fingerprint.update(out.seed.to_bytes(8, "little") + out.digest)
    return {
        "trajectory_sha256": fingerprint.hexdigest(),
        "witness_rate": sum(out.witness for out in runs) / len(seeds),
        # a seed without a witness counts as budget + 1 evaluations
        "witness_evals_p50": percentile(
            [out.result.evaluations if out.witness else spec.budget + 1 for out in runs], 0.5),
        "best_fitness_p50": percentile([out.result.best_fitness.total for out in runs], 0.5),
    }


def measure_search(wl, spec, session, seed, seconds, ledger, clock):
    seeds = spec.seed_list(seed)
    t_start = perf_counter()
    first = search_pass(wl, spec, session, seeds, ledger, clock)
    samples = {s: [out.op_s] for s, out in first.items()}
    evals = sum(out.result.evaluations for out in first.values())
    search_s = sum(out.search_s for out in first.values())
    # repeat seeds while time remains: more timing samples of the same work
    repeats = 0
    while first and perf_counter() - t_start < seconds:
        s = seeds[repeats % len(seeds)]
        repeats += 1
        for out in search_pass(wl, spec, session, [s], ledger, clock, first).values():
            if s in samples:
                samples[s].append(out.op_s)
            evals += out.result.evaluations
            search_s += out.search_s
    details = {"seeds": seeds, "passes": (len(first) + repeats) / len(seeds)}
    if not first:
        return {}, details
    # an operation ends at its certified result; seeds without a witness rank
    # after every seed with one, as if slower than any witness time
    keys = [(not first[s].witness, statistics.median(samples[s])) for s in samples]
    metrics = {
        "op_s_p50": metric(percentile(keys, 0.5)[1], "s"),
        "op_s_p75": metric(percentile(keys, 0.75)[1], "s"),
        "evals_per_s": metric(evals / search_s, "1/s"),
    }
    return metrics, {**details, **search_outcomes(spec, seeds, first)}


def trace_search(wl, tracer, spec, session, seed, ledger, clock):
    seeds = spec.seed_list(seed)
    first = search_pass(wl, spec, session, seeds, ledger, clock)
    outcomes = search_outcomes(spec, seeds, first) if first else {}
    work = Traced()
    rounds = 0
    for s in seeds[: spec.traced_seeds]:
        plain = search_pass(wl, spec, session, [s], ledger, clock, first)
        traced = search_pass(wl, spec, session, [s], ledger, clock, first, tracer)
        if s in plain and s in traced:
            work.untraced_s += plain[s].search_s
            work.traced_s += traced[s].search_s
            work.evals += traced[s].result.evaluations
            rounds += traced[s].result.rounds
    return search_layer(outcomes, rounds, work.evals), work, {"seeds": seeds, **outcomes}


def search_layer(outcomes: dict, rounds: int, evals: int) -> dict:
    """Exact search outcomes and colony counts; zero where no search ran."""
    return {
        "search.witness_rate": metric(outcomes.get("witness_rate", 0.0), "ratio"),
        "search.witness_evals_p50": metric(outcomes.get("witness_evals_p50", 0), "count"),
        "search.best_fitness_p50": metric(outcomes.get("best_fitness_p50", 0), "count"),
        "abc_search.rounds": metric(rounds, "count"),
        "abc_search.evals": metric(evals, "count"),
    }


# --- certification workload -------------------------------------------------

def certify_once(wl, ledger, label, clock, tracer=None) -> float | None:
    """Seconds of one certification pass, scaled to nominal host speed;
    None if the pass failed. With a tracer, the pass is traced."""
    with traced_op(tracer, label):
        t0 = perf_counter()
        ok, problem = ledger.attempt(label, wl.certify_pass)
        elapsed = perf_counter() - t0
    factor = clock.factor()
    if tracer is not None:
        tracer.scale_op(factor)
    if ok and problem:
        ledger.fail(label, problem)
    return elapsed * factor if ok and not problem else None


def measure_certify(wl, spec, session, seconds, ledger, clock):
    t_start = perf_counter()
    times = []
    while ledger.attempted < spec.min_passes or perf_counter() - t_start < seconds:
        elapsed = certify_once(wl, ledger, f"pass {ledger.attempted}", clock)
        if elapsed is not None:
            times.append(elapsed)
    details = {"passes": len(times), "graphs_per_pass": wl.graphs_per_pass(session)}
    if not times:
        return {}, details
    return {
        "op_s_p50": metric(percentile(times, 0.5), "s"),
        "op_s_p75": metric(percentile(times, 0.75), "s"),
        "evals_per_s": metric(details["graphs_per_pass"] * len(times) / sum(times), "1/s"),
    }, details


def trace_certify(wl, tracer, spec, session, ledger, clock):
    work = Traced()
    for i in range(spec.traced_passes):
        plain = certify_once(wl, ledger, f"pass {i}", clock)
        traced = certify_once(wl, ledger, f"pass:{i}", clock, tracer)
        if plain is not None and traced is not None:
            work.untraced_s += plain
            work.traced_s += traced
            work.evals += wl.graphs_per_pass(session)
    return search_layer({}, 0, 0), work, {}


# --- entry point ------------------------------------------------------------

# functions that set-up calls; their set-up self time is reported apart
SETUP_FUNCTIONS = ("dataset.load_all", "graph.parse_adjacency_list",
                   "counting.build_indep_cache", "construct.enumerate_triangle_free")


def layer_metrics(tracer, work: Traced) -> dict:
    """Per-layer metrics from the spans of the traced operations, with set-up
    kept apart. Self seconds are scaled to nominal host speed."""
    summary = tracer.summary()
    out = {}
    for name, row in summary.items():
        if name.startswith("abc_search."):
            continue
        out[f"{name}.calls"] = metric(row["calls"], "count")
        out[f"{name}.self_s"] = metric(row["self_s"], "s")
    setup = tracer.summary(setup=True)
    for name in SETUP_FUNCTIONS:
        out[f"setup.{name}.self_s"] = metric(setup[name]["self_s"], "s")
    colony = sum(row["self_s"] for name, row in summary.items() if name.startswith("abc_search."))
    out["abc_search.colony.self_s"] = metric(colony, "s")
    evaluate = ("counting.extension_fitness" if summary["counting.extension_fitness"]["calls"]
                else "counting.fitness")
    out["abc_search.scout_restarts"] = metric(
        tracer.count_children(evaluate, "abc_search.scout_phase"), "count")
    compat = summary["counting.compatible_count"]["calls"]
    out["counting.compatible_count.calls_per_eval"] = metric(
        compat / work.evals if work.evals else 0.0, "count")
    mutate = summary["construct.mutate_extension"]
    out["construct.mutate_extension.null_ratio"] = metric(
        mutate["nulls"] / mutate["calls"] if mutate["calls"] else 0.0, "ratio")
    if work.untraced_s and work.traced_s:
        out["trace.evals_per_s_untraced"] = metric(work.evals / work.untraced_s, "1/s")
        out["trace.evals_per_s_traced"] = metric(work.evals / work.traced_s, "1/s")
    out["trace.overhead_pct"] = metric(tracer.overhead_pct(), "%")
    return out


def measure(wl, spec, seed: int, seconds: float, trace: bool, probes: int = SETUP_PROBES):
    """Run one workload; returns (details, result) for the last two lines."""
    ledger = Ledger()
    details = {"workload": spec.name, "seed": seed, "seconds": seconds, "trace": int(trace),
               "provenance": provenance()}
    search = isinstance(spec, wl.SearchSpec)
    if trace:
        tracer = Tracer()
        clock = HostClock()
        with tracer.op(SETUP):
            session = wl.setup()
        tracer.scale_op(clock.factor())
        if search:
            layer, work, extra = trace_search(wl, tracer, spec, session, seed, ledger, clock)
        else:
            layer, work, extra = trace_certify(wl, tracer, spec, session, ledger, clock)
        metrics = {**layer, **layer_metrics(tracer, work)}
        spans = OUT / f"{spec.name}-seed{seed}-spans.npz"
        tracer.write(spans)
        details.update(extra, spans=str(spans.relative_to(ROOT)))
    else:
        setup_s = time_setup(probes)
        session = wl.setup()
        clock = HostClock()
        if search:
            metrics, extra = measure_search(wl, spec, session, seed, seconds, ledger, clock)
        else:
            metrics, extra = measure_certify(wl, spec, session, seconds, ledger, clock)
        extra["host_factor_p50"] = statistics.median(clock.factors)
        metrics["setup_s"] = metric(setup_s, "s")
        metrics["peak_rss_mb"] = metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        details.update(extra)
    details["errors"] = ledger.errors
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in BENCH["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import ramsey_abc
        import workloads
    except ImportError as exc:
        print(f"cannot import the ramsey_abc package from {SRC}: {exc}", file=sys.stderr)
        return 2
    if SRC not in Path(ramsey_abc.__file__).resolve().parents:
        print(f"ramsey_abc was imported from {ramsey_abc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    details, result = measure(workloads, workloads.WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
