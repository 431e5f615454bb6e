#!/usr/bin/env python3
"""Monte Carlo convergence of the perturbed-observation update.

The sample mean of the stochastic update realizes the exact gain-form mean
up to O(1/sqrt(E)) noise. For the scalar instance with an ensemble carrying
empirical moments exactly (0, 1), the exact posterior mean is 1; this
script reports the seed-averaged absolute error at a range of ensemble
sizes, which should fall like 1/sqrt(E).
"""

import argparse
import sys

import numpy as np

from enscgp import (Ensemble, NormalStream, ObservationModel, enkf_perturbed_obs,
                    ensemble_stats, kalman_gain)


def standardized_scalar_ensemble(size, seed):
    z = NormalStream(seed).substream(1).normals(size)
    z = (z - z.mean()) / z.std(ddof=1)
    return Ensemble(z[None, :])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[100, 400, 1600, 6400, 25600])
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--seed0", type=int, default=0)
    args = parser.parse_args()

    obs = ObservationModel([[1.0]], [[1.0]])
    print(f"{'E':>8} {'mean |err|':>12} {'3*sigma/sqrt(E)':>16} {'scaled err':>11}")
    for size in args.sizes:
        errs = []
        for seed in range(args.seed0, args.seed0 + args.seeds):
            ens = standardized_scalar_ensemble(size, seed)
            gain = kalman_gain(ensemble_stats(ens), obs)
            updated = enkf_perturbed_obs(ens, obs, [2.0], gain, seed)
            errs.append(abs(float(updated.members.mean()) - 1.0))
        mean_err = float(np.mean(errs))
        bound = 3.0 * np.sqrt(0.5) / np.sqrt(size)
        print(f"{size:8d} {mean_err:12.4e} {bound:16.4e} "
              f"{mean_err * np.sqrt(size):11.4f}")
    print("\nscaled err ~ constant confirms the 1/sqrt(E) rate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
