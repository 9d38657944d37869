#!/usr/bin/env python3
"""Sample random block-separated configurations and tabulate their collapse.

For each case: node count r, block count |B|, collapse r -> |B|, whether the
surviving blocks still couple, and the block-structure verification result.
Deterministic for a fixed seed.

Usage:
  python scripts/block_collapse_experiment.py [--cases 50] [--seed 7] \
      [--max-nodes 12] [--max-genus 6]
"""

import argparse
import random
from collections import Counter

from lightsectors.modelgen import random_block_scenario
from lightsectors.package import verify_block_structure
from lightsectors.scenarios import to_package


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cases", type=int, default=50)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--max-nodes", type=int, default=12)
    parser.add_argument("--max-genus", type=int, default=6)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    residual_counts: Counter[str] = Counter()
    all_verified = True

    print(f"{'case':>4}  {'r':>3}  {'|B|':>3}  {'collapse':>9}  {'residual':>9}  verify")
    for i in range(args.cases):
        scenario = random_block_scenario(
            rng, max_nodes=args.max_nodes, max_genus=args.max_genus, name=f"case_{i}"
        )
        pkg = to_package(scenario)
        report = verify_block_structure(pkg)
        residual = "coupled" if not pkg.blockwise.is_split else "split"
        residual_counts[residual] += 1
        all_verified &= report.overall
        verdict = "pass" if report.overall else "FAIL"
        collapse = f"{pkg.r}->{pkg.reduced.r}"
        print(f"{i:>4}  {pkg.r:>3}  {pkg.reduced.r:>3}  {collapse:>9}  {residual:>9}  {verdict}")

    print()
    print(f"residual coupling: {residual_counts['coupled']} coupled, "
          f"{residual_counts['split']} split")
    print(f"block-structure checks: {'all pass' if all_verified else 'FAILURES PRESENT'}")
    return 0 if all_verified else 1


if __name__ == "__main__":
    raise SystemExit(main())
