#!/usr/bin/env python3
"""End-to-end reproduction of the certified results, printed as one report.

Steps:
  1. Extract the 35-vertex base from bundled graph A and validate it
     (8-regular, triangle-free, independence number 8, independent-set census).
  2. Recompute witness degree ranges for the headline targets.
  3. Enumerate the triangle-free graphs on 5 vertices (the 14 inner graphs).
  4. Adjudicate the bundled dataset claims (triangle counts, 10-independent
     sets) and the four claimed single-vertex deletion witnesses, including
     the full 160-deletion scan.

Exits nonzero if any computed value contradicts a shipped claim.
"""

import argparse
import importlib.util
import sys
import time
from pathlib import Path

if importlib.util.find_spec("ramsey_abc") is None:  # a source checkout, not installed
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ramsey_abc import dataset, verify
from ramsey_abc.bounds import degree_range
from ramsey_abc.construct import enumerate_triangle_free
from ramsey_abc.graph import encode_graph6


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()

    ok = True
    t0 = time.perf_counter()

    print("== base graph (vertices 1-35 of graph A) ==")
    base = dataset.extract_base()
    for check, passed, detail in dataset.validate_base(base):
        ok &= passed
        print(f"  {'PASS' if passed else 'FAIL'}  {check} ({detail})")
    same = dataset.bases_identical()
    ok &= same
    print(f"  {'PASS' if same else 'FAIL'}  all four graphs induce the same base")

    print("== witness degree ranges ==")
    for p, q, n in [(3, 10, 40), (5, 5, 43), (4, 6, 36)]:
        rng = degree_range(p, q, n)
        print(f"  ({p},{q},{n}) -> [{rng.lo},{rng.hi}]")
        if rng.note:
            print(f"    note: {rng.note}")

    print("== triangle-free inner graphs on 5 vertices ==")
    catalog = enumerate_triangle_free(5)
    print(f"  {len(catalog)} isomorphism classes (expected 14)")
    ok &= len(catalog) == 14
    for idx, g in enumerate(catalog):
        print(f"  [{idx:>2}] {encode_graph6(g)}  degrees {g.degrees()}")

    print("== dataset claims ==")
    report = verify.verify_appendix()
    for line in report.lines():
        print(f"  {line}")
    ok &= report.ok

    print("== deletion witnesses ==")
    deletions = verify.verify_deletions(appendix=report)
    for line in deletions.lines():
        print(f"  {line}")
    ok &= deletions.ok

    print(f"== {'ALL CHECKS PASS' if ok else 'CLAIM CONTRADICTIONS FOUND'} "
          f"({time.perf_counter() - t0:.3f}s) ==")
    return 0 if ok else 5


if __name__ == "__main__":
    sys.exit(main())
