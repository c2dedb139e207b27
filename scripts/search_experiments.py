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
"""

import argparse
import sys
import time

from ramsey_abc import dataset
from ramsey_abc.abc_search import SearchParams, run


def batch(params_for_seed, seeds) -> int:
    wins = 0
    for seed in seeds:
        t0 = time.perf_counter()
        result = run(**params_for_seed(seed))
        total = result.best_fitness.total
        wins += total == 0
        print(
            f"  seed {seed:>3}: best {total:>4}  {result.reason:<16} "
            f"evals {result.evaluations:>7}  {time.perf_counter() - t0:.1f}s"
        )
    return wins


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--extension", action="store_true",
                        help="run the (3,10,40) extension search instead")
    parser.add_argument("--budget", type=int, default=None)
    parser.add_argument("--colony-size", type=int, default=20)
    parser.add_argument("--maxlimit", type=int, default=15)
    args = parser.parse_args()
    seeds = range(args.seeds)

    if args.extension:
        base = dataset.extract_base()
        budget = args.budget or 20_000
        print(f"extension search toward (3,10,40), budget {budget} per seed")
        batch(
            lambda seed: dict(
                params=SearchParams(
                    p=3, q=10, n=40, mode="extension", seed=seed, budget=budget,
                    colony_size=args.colony_size, maxlimit=args.maxlimit,
                ),
                base=base,
            ),
            seeds,
        )
        return 0

    print(f"(3,3,5) with budget {args.budget or 10_000}")
    wins_small = batch(
        lambda seed: dict(
            params=SearchParams(
                p=3, q=3, n=5, seed=seed, budget=args.budget or 10_000,
                colony_size=args.colony_size, maxlimit=args.maxlimit,
            )
        ),
        seeds,
    )
    print(f"(3,4,8) with budget {args.budget or 1_000_000}")
    wins_large = batch(
        lambda seed: dict(
            params=SearchParams(
                p=3, q=4, n=8, seed=seed, budget=args.budget or 1_000_000,
                colony_size=args.colony_size, maxlimit=args.maxlimit,
            )
        ),
        seeds,
    )
    print(f"success: (3,3,5) {wins_small}/{len(seeds)}, (3,4,8) {wins_large}/{len(seeds)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
