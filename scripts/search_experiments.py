#!/usr/bin/env python3
"""Search-capability experiments over seed batches.

Default experiments hit targets where witnesses are known to exist, so the
success rate measures the optimizer, not the mathematics:

  (3,3,5)  budget 10^4   - witnesses are the 5-cycles
  (3,4,8)  budget 10^6   - 8-vertex triangle-free graphs without 4-independent sets

With --extension the script instead runs the extension-mode search over the
bundled 35-vertex base toward the open (3,10,40) target and reports the best
fitness reached per seed (0 has never been achieved; small totals are the
interesting output).

Every reported best is recounted exactly by verify.certify_search, which
compares both counts, and only certified witnesses count as successes. Exit
codes follow ``ramsey-abc search``: 2 for bad parameters, 5 when a reported
best fitness fails certification.
"""

import argparse
import dataclasses
import importlib.util
import sys
import time
from pathlib import Path

if importlib.util.find_spec("ramsey_abc") is None:  # a source checkout, not installed
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ramsey_abc import dataset, verify
from ramsey_abc.abc_search import EXTENSION_MODE, SearchParams, extension_cache, run
from ramsey_abc.cli import EXIT_CLAIM, EXIT_OK, EXIT_USAGE


def batch(params: SearchParams, seeds, base=None) -> int | None:
    """Search params once per seed; the number of certified witnesses, or
    None once a reported best fitness fails certification. In extension mode
    every seed shares one base cache."""
    cache = extension_cache(params, base) if params.mode == EXTENSION_MODE else None
    wins = 0
    for seed in seeds:
        t0 = time.perf_counter()
        result = run(dataclasses.replace(params, seed=seed), base=base, cache=cache)
        try:
            _, cert = verify.certify_search(result, params.p, params.q)
        except verify.CertificationError as exc:
            print(f"error: seed {seed}: {exc}", file=sys.stderr)
            return None
        wins += cert.is_witness
        print(
            f"  seed {seed:>3}: best {cert.total:>4}  {result.reason:<16} "
            f"evals {result.evaluations:>7}  {time.perf_counter() - t0:.1f}s"
        )
    return wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--extension", action="store_true",
                        help="run the (3,10,40) extension search instead")
    parser.add_argument("--budget", type=int, default=None)
    parser.add_argument("--colony-size", type=int, default=20)
    parser.add_argument("--maxlimit", type=int, default=15)
    args = parser.parse_args(argv)
    seeds = range(args.seeds)

    def params(p, q, n, budget, **mode) -> SearchParams:
        return SearchParams(
            p, q, n, colony_size=args.colony_size, maxlimit=args.maxlimit,
            budget=budget if args.budget is None else args.budget, **mode,
        )

    try:
        if args.extension:
            targets = [params(3, 10, 40, 20_000, mode=EXTENSION_MODE)]
        else:
            targets = [params(3, 3, 5, 10_000), params(3, 4, 8, 1_000_000)]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    base = dataset.extract_base() if args.extension else None

    summary = []
    for target in targets:
        name = f"({target.p},{target.q},{target.n})"
        print(f"{name} {target.mode} search, budget {target.budget} per seed")
        wins = batch(target, seeds, base)
        if wins is None:
            return EXIT_CLAIM
        summary.append(f"{name} {wins}/{len(seeds)}")
    print(f"success (certified): {', '.join(summary)}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
