#!/usr/bin/env python3
"""Posterior collapse under k-fold reuse of a single observation.

Treating one realized datum as k independent observations drives the
posterior covariance to zero like 1/k; this is a double-counting artifact,
not a property of a correct single Bayesian update. The script traces the
scalar instance (prior variance 1, unit noise, y = 1) and prints selected
rows of the trace; use --out to save the full plot-ready table.
"""

import argparse
import sys

from enscgp import GaussianLaw, ObservationModel, repeated_reuse


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k-max", type=int, default=10_000)
    parser.add_argument("--out", default=None, help="write k / norm / mean rows here")
    args = parser.parse_args()

    prior = GaussianLaw.from_moments([0.0], [[1.0]])
    obs = ObservationModel([[1.0]], [[1.0]])
    trace = repeated_reuse(prior, obs, [1.0], k_max=args.k_max)
    # a scalar law with zero prior mean: the spectral norm is the variance and
    # the mean's shift from k = 0 is the mean itself, which stays positive
    cov, mean = trace.spectral_norms, trace.mean_shift_norms

    print(f"# {trace.label}")
    print(f"# closed form vs {min(args.k_max, 100)}-step recursive conditioning: "
          f"max discrepancy {trace.recursive_max_discrepancy:.2e}")
    print(f"{'k':>8} {'cov':>12} {'mean':>12}")
    shown = sorted({0, 1, 2, 5, 10, 100, 1000, args.k_max} & set(range(args.k_max + 1)))
    for k in shown:
        print(f"{k:8d} {cov[k]:12.6g} {mean[k]:12.6g}")

    if args.out:
        with open(args.out, "w") as handle:
            handle.write("# k cov mean\n")
            for k in range(args.k_max + 1):
                handle.write(f"{k} {cov[k]:.17g} {mean[k]:.17g}\n")
        print(f"\nfull trace written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
