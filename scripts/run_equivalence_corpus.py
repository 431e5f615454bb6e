#!/usr/bin/env python3
"""Run the four-route agreement audit over the seeded instance corpus.

Prints one line per instance (sizes, prior rank, worst pairwise mean
discrepancy, covariance discrepancy) and a summary. Exits nonzero if any
instance fails its tolerance.
"""

import argparse
import sys
import time

from enscgp.experiments import COV_TOL, MEAN_PAIRS, MEAN_TOL, equivalence_corpus


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(f"routes: {' '.join(f'{a}:{b}' for a, b in MEAN_PAIRS)}")
    print(f"{'idx':>4} {'n':>3} {'m':>3} {'rank':>4} {'mean_disc':>10} "
          f"{'cov_disc':>10} pass")
    start = time.monotonic()
    passes = 0
    for report in equivalence_corpus(args.count, args.seed):
        print(f"{report.seed:4d} {report.n:3d} {report.m:3d} {report.rank:4d} "
              f"{report.max_mean_discrepancy:10.2e} {report.cov_discrepancy:10.2e} "
              f"{'yes' if report.passed else 'NO'}")
        passes += report.passed
    elapsed = time.monotonic() - start
    print(f"\n{passes}/{args.count} pass "
          f"(mean tol {MEAN_TOL:g}, cov tol {COV_TOL:g}, {elapsed:.2f}s)")
    return 0 if passes == args.count else 1


if __name__ == "__main__":
    sys.exit(main())
