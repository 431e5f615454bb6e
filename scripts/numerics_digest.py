#!/usr/bin/env python3
"""Print one sha256 over the raw bytes of the package's numerical results.

Three sets of results are hashed, in this order:

- the equivalence corpus, instances 0 to CORPUS_COUNT-1 (``make_instance``): the
  prior's factor and eigenvalues, ``run_equivalence``'s route means, mean
  discrepancies and covariance discrepancy, and ``condition``'s posterior
  mean, factor and eigenvalues;
- KERNEL_PRIORS exponential-kernel priors on 600 sorted points with 60 of them
  observed, as in the benchmark's kernel-dense workload: ``gram_matrix``,
  ``GaussianLaw.from_moments``, ``run_equivalence``, ``condition``,
  ``kl_truncate`` at 99% energy and ``sample_kl``;
- a family rich in exact ties and exact zeros: priors c·I, diagonals with
  two repeated values and a rotated three-level spectrum, each observed at
  points and densely, for n in (3, 6, 12, 40), through ``canonical_sqrt``,
  ``canonicalize_factor``, ``condition`` and ``kl_truncate``.

Two source trees compute the same bits when they print the same digest:

    PYTHONPATH=old/src python scripts/numerics_digest.py
    PYTHONPATH=src python scripts/numerics_digest.py

BLAS runs on one thread, since its results' bits can depend on the count.
"""

import hashlib
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS

import numpy as np

from enscgp import experiments, kernels, psd
from enscgp.gaussian import GaussianLaw, ObservationModel, condition
from enscgp.rng import NormalStream

CORPUS_COUNT = 300
KERNEL_PRIORS = 6


def _update(digest, *arrays) -> None:
    for array in arrays:
        array = np.asarray(array, dtype=float)
        digest.update(repr(array.shape).encode())
        digest.update(np.ascontiguousarray(array).tobytes())


def _audit(digest, prior, obs, y) -> None:
    report = experiments.run_equivalence(prior, obs, y)
    posterior = condition(prior, obs, y)
    _update(digest, prior.cov_factor.factor, prior.cov_factor.eigenvalues,
            *report.means.values(), list(report.mean_discrepancies.values()),
            report.cov_discrepancy, posterior.mean, posterior.cov_factor.factor,
            posterior.cov_factor.eigenvalues)


def corpus(digest, count: int) -> None:
    for index in range(count):
        _audit(digest, *experiments.make_instance(index))


def kernel_priors(digest, count: int, n: int = 600, m: int = 60) -> None:
    for i in range(count):
        stream = NormalStream(20261019).substream(i)
        points = np.sort(stream.uniforms(n))
        lengthscale = 0.1 + 0.9 * float(stream.uniforms(1)[0])
        observed = np.sort(np.argsort(stream.uniforms(n), kind="stable")[:m])
        obs = ObservationModel(np.eye(n)[observed], 0.01 * np.eye(m))
        spec = kernels.KernelSpec("exponential", 1.0, lengthscale)
        gram = kernels.gram_matrix(spec, points)
        _audit(digest, GaussianLaw.from_moments(np.zeros(n), gram), obs, stream.normals(m))
        modes = kernels.kl_truncate(gram, 0.99)
        _update(digest, modes.factor.factor, modes.factor.eigenvalues, modes.residual,
                kernels.sample_kl(modes, 40, i))


def _tie_priors(stream, n: int):
    """Covariances with exact ties, exact zeros or both."""
    levels = np.array([3.0, 1.0, 0.0])
    rotation = np.linalg.qr(stream.normals((n, n)))[0]
    rotated = (rotation * levels[np.arange(n) % 3]) @ rotation.T
    return (2.0 * np.eye(n), 0.5 * np.eye(n),
            np.diag(np.where(np.arange(n) % 2, 1.0, 4.0)),  # two levels
            np.diag(np.where(np.arange(n) % 3, 2.0, 0.0)),  # two levels and zeros
            rotated)


def tie_family(digest) -> None:
    for n in (3, 6, 12, 40):
        stream = NormalStream(n)
        m = max(1, n // 3)
        # every third point, and a dense operator
        observations = (np.eye(n)[::3][:m], stream.normals((m, n)))
        for cov in _tie_priors(stream, n):
            prior = GaussianLaw.from_moments(np.zeros(n), cov)
            factor = psd.canonicalize_factor(np.hstack([cov, np.zeros((n, 2)), cov[:, :1]]))
            modes = kernels.kl_truncate(cov, 0.75)
            _update(digest, prior.cov_factor.factor, prior.cov_factor.eigenvalues,
                    factor.factor, factor.eigenvalues, modes.factor.factor, modes.residual)
            for h in observations:
                obs = ObservationModel(h, 0.25 * np.eye(m))
                posterior = condition(prior, obs, stream.normals(m))
                _update(digest, posterior.mean, posterior.cov_factor.factor,
                        posterior.cov_factor.eigenvalues)


def main() -> int:
    digest = hashlib.sha256()
    corpus(digest, CORPUS_COUNT)
    kernel_priors(digest, KERNEL_PRIORS)
    tie_family(digest)
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
