"""Command-line entry point.

Subcommands: search, verify, verify-appendix, verify-deletions, count,
bounds, enumerate-tf, extract-base. Graph files are accepted in the
1-indexed ``v:neighbours`` adjacency-list format or as graph6; outputs are
written in both.

Exit codes: 0 success / witness, 1 certified non-witness, 2 usage error,
3 data, file or parse error (including an independent-set cache over budget),
4 search budget exhausted, 5 a computed value contradicts a shipped claim
or a search's reported best fitness fails exact certification.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import __version__, bounds, dataset, verify
from .abc_search import (
    EXTENSION_MODE,
    FULL_MODE,
    WITNESS_FOUND,
    SearchParams,
    SearchResult,
    run,
)
from .construct import enumerate_triangle_free, serialize_extension
from .counting import CacheBudgetError, fitness, count_cliques, count_independent_sets
from .counting import find_clique, find_independent_set
from .graph import (
    Graph,
    ParseError,
    decode_graph6,
    emit_adjacency_list,
    encode_graph6,
    parse_adjacency_list,
)

EXIT_OK = 0
EXIT_NONWITNESS = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_BUDGET = 4
EXIT_CLAIM = 5

OUT_DIR_ENV = "RAMSEY_ABC_OUT"


@dataclass(frozen=True)
class RunConfig:
    """Everything a search run depends on: the search's parameters plus the
    files it reads and writes. Round-trips through one flat JSON object."""

    params: SearchParams
    base_file: str | None = None
    out_dir: str = "runs"

    def to_dict(self) -> dict:
        """The flat JSON object, whose degree_range is the band the run searched."""
        params = {k: getattr(self.params, k) for k in PARAM_FIELDS}
        params["degree_range"] = self.params.band
        return params | {k: getattr(self, k) for k in RUN_FILE_FIELDS}

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        unknown = set(d) - set(PARAM_FIELDS) - set(RUN_FILE_FIELDS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        params = {k: v for k, v in d.items() if k in PARAM_FIELDS}
        files = {k: v for k, v in d.items() if k in RUN_FILE_FIELDS}
        return cls(SearchParams(**params), **files)


PARAM_FIELDS = tuple(f.name for f in dataclasses.fields(SearchParams) if f.init)
RUN_FILE_FIELDS = tuple(f.name for f in dataclasses.fields(RunConfig) if f.name != "params")


def _read_text(path: str | Path) -> str:
    """A file's UTF-8 text; a file that is not UTF-8 is an OSError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_graph_file(path: str | Path) -> Graph:
    """Read an adjacency-list or graph6 file; note reconciled entries on stderr."""
    text = _read_text(path)
    stripped = text.strip()
    if not stripped:
        raise ParseError(f"{path}: empty graph file")
    if ":" not in stripped.splitlines()[0]:
        return decode_graph6(stripped)
    report = parse_adjacency_list(text)
    if report.warnings:
        u, v, reason = report.warnings[0]
        print(f"warning: {path}: reconciled adjacency entries: {len(report.warnings)} "
              f"(first {u}-{v}: {reason})", file=sys.stderr)
    return report.graph


def write_graph_files(g: Graph, stem: Path) -> list[str]:
    adj_path = stem.with_suffix(".adj")
    g6_path = stem.with_suffix(".g6")
    adj_path.write_text(emit_adjacency_list(g))
    g6_path.write_text(encode_graph6(g) + "\n")
    return [str(adj_path), str(g6_path)]


def _check_out_root(root: Path) -> None:
    """Raise OSError unless root, or its nearest existing ancestor, is a
    directory, so that a search whose record cannot be written never runs."""
    existing = next((p for p in (root, *root.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise OSError(f"output root {root}: {existing} is not a directory")


def _unique_run_dir(root: Path, seed: int) -> Path:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    candidate = root / f"{stamp}-seed{seed}"
    i = 1
    while candidate.exists():
        i += 1
        candidate = root / f"{stamp}-seed{seed}-{i}"
    candidate.mkdir(parents=True)
    return candidate


def _write_run_record(
    run_dir: Path, config: RunConfig, result: SearchResult, best_graph: Graph, wall_clock: float
) -> None:
    with open(run_dir / "config.json", "w") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(run_dir / "history.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["round", "best_fitness", "evaluations", "employed", "onlookers", "scouts"]
        )
        for row in result.history:
            writer.writerow(
                [row.round, row.best_total, row.evaluations, row.employed, row.onlookers, row.scouts]
            )
    record = {
        "version": __version__,
        "seed": config.params.seed,
        "reason": result.reason,
        "rounds": result.rounds,
        "evaluations": result.evaluations,
        "accepted_moves": result.accepted_moves,
        "scout_restarts": result.scout_restarts,
        "wall_clock_s": round(wall_clock, 3),
        "best_fitness": {
            "clique_count": result.best_fitness.clique_count,
            "indep_count": result.best_fitness.indep_count,
            "total": result.best_fitness.total,
        },
    }
    record["best_graph6"] = encode_graph6(best_graph)
    if config.params.mode == EXTENSION_MODE:
        record["best_extension"] = serialize_extension(result.best_position)
    with open(run_dir / "result.json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_search(args) -> int:
    config_dict = {}
    if args.config:
        text = _read_text(args.config)
        try:
            config_dict = json.loads(text)
        except json.JSONDecodeError as exc:
            print(f"config error: {args.config}: {exc}", file=sys.stderr)
            return EXIT_DATA
        if not isinstance(config_dict, dict):
            print(f"config error: {args.config} does not hold a JSON object", file=sys.stderr)
            return EXIT_DATA
    for key in PARAM_FIELDS + RUN_FILE_FIELDS:
        val = getattr(args, key)
        if val is not None:
            config_dict[key] = val
    if config_dict.get("out_dir") is None:
        config_dict["out_dir"] = os.environ.get(OUT_DIR_ENV, "runs")
    if "seed" not in config_dict:
        config_dict["seed"] = int.from_bytes(os.urandom(4), "big")
    for key in RUN_FILE_FIELDS:
        if config_dict.get(key) is not None and not isinstance(config_dict[key], str):
            raise ValueError(f"{key} must be a path, got {config_dict[key]!r}")

    base = None
    if config_dict.get("mode") == EXTENSION_MODE:
        base_file = config_dict.get("base_file")
        base = load_graph_file(base_file) if base_file else dataset.extract_base()
        config_dict.setdefault("n", base.n + 5)
    for field in ("p", "q", "n"):
        if field not in config_dict:
            raise ValueError(f"missing required parameter --{field}")
    config = RunConfig.from_dict(config_dict)
    params = config.params
    for key in ("degree_range", "base_file"):
        if params.mode == FULL_MODE and config_dict.get(key) is not None:
            raise ValueError(f"{key} applies to extension mode only")
    _check_out_root(Path(config.out_dir))

    t0 = time.perf_counter()
    result = run(params, base=base)
    wall = time.perf_counter() - t0

    best_graph, _ = verify.certify_search(result, params.p, params.q)
    witness = best_graph if result.reason == WITNESS_FOUND else None

    run_dir = _unique_run_dir(Path(config.out_dir), params.seed)
    _write_run_record(run_dir, config, result, best_graph, wall)
    witness_files = [] if witness is None else write_graph_files(witness, run_dir / "witness")

    print(f"run dir: {run_dir}")
    print(
        f"{result.reason}: best fitness {result.best_fitness.total} "
        f"(cliques {result.best_fitness.clique_count}, "
        f"independent sets {result.best_fitness.indep_count}) "
        f"after {result.evaluations} evaluations, {result.rounds} rounds"
    )
    for path in witness_files:
        print(f"witness written: {path}")
    return EXIT_OK if result.reason == WITNESS_FOUND else EXIT_BUDGET


def cmd_verify(args) -> int:
    all_witness = True
    for path in args.files:
        g = load_graph_file(path)
        cert = verify.certify(g, args.p, args.q)
        print(f"{path}: n={cert.n} p={cert.p} q={cert.q}")
        print(f"  clique count: {cert.clique_count}")
        print(f"  independent-set count: {cert.indep_count}")
        # the certificate holds counts only; the first violation is found here
        if cert.clique_count:
            clique = find_clique(g, args.p)
            print(f"  clique violation: {[v + 1 for v in clique]}")
        if cert.indep_count:
            indep = find_independent_set(g, args.q)
            print(f"  independent-set violation: {[v + 1 for v in indep]}")
        if cert.degree_feasible is not None:
            print(f"  degrees within witness range: {cert.degree_feasible}")
        print(f"  witness: {'yes' if cert.is_witness else 'no'}")
        all_witness = all_witness and cert.is_witness
    return EXIT_OK if all_witness else EXIT_NONWITNESS


def cmd_verify_appendix(args) -> int:
    report = verify.verify_appendix()
    if args.json:
        records = [dataclasses.asdict(row) | {"passed": row.passed} for row in report.rows]
        print(json.dumps(records, indent=2, sort_keys=True))
    else:
        print("\n".join(report.lines()))
    return EXIT_OK if report.ok else EXIT_CLAIM


def cmd_verify_deletions(args) -> int:
    report = verify.verify_deletions()
    if args.json:
        record = {
            "named": [
                dataclasses.asdict(row) | {"is_witness": row.is_witness}
                for row in report.named
            ],
            "scan_witnesses": [list(hit) for hit in report.scan_witnesses],
        }
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        print("\n".join(report.lines()))
    return EXIT_OK if report.ok else EXIT_CLAIM


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range {text!r}: expected K or LO..HI") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}: expected LO..HI with LO <= HI")
    return lo, hi


def cmd_count(args) -> int:
    if (args.p is None) != (args.q is None):
        given, missing = ("p", "q") if args.q is None else ("q", "p")
        raise ValueError(f"--{given} needs --{missing}")
    ranges = " and ".join(f"--{name}" for name in ("cliques", "indep")
                          if getattr(args, name) is not None)
    if args.p is not None and ranges:
        raise ValueError(f"--p/--q cannot be combined with {ranges}")
    g = load_graph_file(args.file)
    if args.p is not None:
        rep = fitness(g, args.p, args.q)
        print(
            f"cliques(p={args.p}): {rep.clique_count}  "
            f"independent(q={args.q}): {rep.indep_count}  total: {rep.total}"
        )
        return EXIT_OK
    if args.cliques is None and args.indep is None:
        raise ValueError("need --p/--q, --cliques or --indep")
    if args.cliques is not None:
        lo, hi = _parse_range(args.cliques)
        print(" ".join(str(count_cliques(g, k)) for k in range(lo, hi + 1)))
    if args.indep is not None:
        lo, hi = _parse_range(args.indep)
        print(" ".join(str(count_independent_sets(g, k)) for k in range(lo, hi + 1)))
    return EXIT_OK


def cmd_bounds(args) -> int:
    value = bounds.known_ramsey(args.p, args.q)
    record: dict = {
        "p": args.p,
        "q": args.q,
        "lower": value.lower,
        "upper": value.upper,
        "exact": value.exact,
        "source": value.source,
    }
    if args.n is not None:
        rng = bounds.degree_range(args.p, args.q, args.n)
        record["n"] = args.n
        record["degree_range"] = [rng.lo, rng.hi]
        record["feasible"] = rng.feasible
        if rng.note:
            record["note"] = rng.note
    if args.json:
        print(json.dumps(record, sort_keys=True))
        return EXIT_OK
    if not value.known:
        print(f"R({args.p},{args.q}): unknown")
    elif value.exact:
        print(f"R({args.p},{args.q}) = {value.lower}  [{value.source}]")
    else:
        print(f"R({args.p},{args.q}) in [{value.lower},{value.upper}]  [{value.source}]")
    if args.n is not None:
        print(f"degree range for ({args.p},{args.q},{args.n}) witnesses: [{rng.lo},{rng.hi}]")
        if not rng.feasible:
            print(f"empty: no ({args.p},{args.q},{args.n}) witness exists")
        if rng.note:
            print(f"note: {rng.note}")
    return EXIT_OK


def cmd_enumerate_tf(args) -> int:
    for g in enumerate_triangle_free(args.k):
        if args.adj:
            print(emit_adjacency_list(g), end="")
            print("--")
        else:
            print(encode_graph6(g))
    return EXIT_OK


def cmd_extract_base(args) -> int:
    base = dataset.extract_base()
    out = Path(args.out)
    files = write_graph_files(base, out)
    for path in files:
        print(f"wrote {path}")
    ok = True
    for check, passed, detail in dataset.validate_base(base):
        print(f"{'PASS' if passed else 'FAIL'}  {check} ({detail})")
        ok = ok and passed
    return EXIT_OK if ok else EXIT_CLAIM


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramsey-abc",
        description="Bee-colony search and exact certification for small Ramsey witness graphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_search = sub.add_parser("search", help="minimize the clique + independent-set fitness")
    p_search.add_argument("--config", help="JSON file with a RunConfig; flags override it")
    p_search.add_argument("--p", type=int)
    p_search.add_argument("--q", type=int)
    p_search.add_argument("--n", type=int)
    p_search.add_argument("--colony-size", type=int, dest="colony_size")
    p_search.add_argument("--maxlimit", type=int)
    p_search.add_argument("--alpha", type=float)
    p_search.add_argument("--seed", type=int)
    p_search.add_argument("--budget", type=int)
    p_search.add_argument("--mode", choices=[FULL_MODE, EXTENSION_MODE])
    p_search.add_argument(
        "--degree-range", type=_parse_range, dest="degree_range",
        help="LO..HI, extension mode only (default: the witness degree bound)",
    )
    p_search.add_argument(
        "--base", dest="base_file",
        help="base graph file for extension mode (default: bundled)",
    )
    p_search.add_argument(
        "--out", dest="out_dir", help=f"output root (default ${OUT_DIR_ENV} or ./runs)"
    )
    p_search.set_defaults(func=cmd_search)

    p_verify = sub.add_parser("verify", help="exactly certify graph files")
    p_verify.add_argument("files", nargs="+")
    p_verify.add_argument("--p", type=int, required=True)
    p_verify.add_argument("--q", type=int, required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_va = sub.add_parser("verify-appendix", help="adjudicate the bundled dataset claims")
    p_va.add_argument("--json", action="store_true")
    p_va.set_defaults(func=cmd_verify_appendix)

    p_vd = sub.add_parser("verify-deletions", help="check the claimed deletion witnesses and scan all deletions")
    p_vd.add_argument("--json", action="store_true")
    p_vd.set_defaults(func=cmd_verify_deletions)

    p_count = sub.add_parser("count", help="exact clique / independent-set counts")
    p_count.add_argument("--file", required=True)
    p_count.add_argument("--p", type=int)
    p_count.add_argument("--q", type=int)
    p_count.add_argument("--cliques", help="size or LO..HI range")
    p_count.add_argument("--indep", help="size or LO..HI range")
    p_count.set_defaults(func=cmd_count)

    p_bounds = sub.add_parser("bounds", help="known Ramsey values and witness degree ranges")
    p_bounds.add_argument("p", type=int)
    p_bounds.add_argument("q", type=int)
    p_bounds.add_argument("n", type=int, nargs="?")
    p_bounds.add_argument("--json", action="store_true")
    p_bounds.set_defaults(func=cmd_bounds)

    p_tf = sub.add_parser("enumerate-tf", help="canonical triangle-free graphs on k vertices")
    p_tf.add_argument("k", type=int)
    p_tf.add_argument("--adj", action="store_true", help="adjacency lists instead of graph6")
    p_tf.set_defaults(func=cmd_enumerate_tf)

    p_eb = sub.add_parser("extract-base", help="write and validate the 35-vertex base graph")
    p_eb.add_argument("--out", default="base35.adj")
    p_eb.set_defaults(func=cmd_extract_base)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CacheBudgetError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except verify.CertificationError as exc:
        print(f"error: {exc}; nothing written", file=sys.stderr)
        return EXIT_CLAIM
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
