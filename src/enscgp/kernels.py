"""Kernel Gram matrices on point sets, eigenmode truncation, and sampling.

These are the prior generators: build K from a kernel family on a finite
point set, keep the leading eigenmodes, and draw Gaussian vectors through
the truncated expansion f = sum_i sqrt(lambda_i) z_i psi_i with z_i iid
standard normal from a seeded deterministic stream. The kept modes are a
truncated :class:`psd.PsdFactor`: the leading columns of
:func:`psd.canonical_sqrt`'s factor of K, which decides the rank and pins
the columns, so kernels has one path to them and no pinning of its own.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import psd
from .errors import DimensionError
from .psd import symmetrize
from .rng import NormalStream


class KernelFamily(str, enum.Enum):
    SQUARED_EXPONENTIAL = "squared-exponential"
    EXPONENTIAL = "exponential"
    LINEAR = "linear"
    WHITE = "white"


# lengthscale enters only for these
_STATIONARY = (KernelFamily.SQUARED_EXPONENTIAL, KernelFamily.EXPONENTIAL)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family with variance sigma^2 and (where it applies) lengthscale."""

    family: KernelFamily
    variance: float
    lengthscale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "family", KernelFamily(self.family))
        if not 0 < self.variance < math.inf:
            raise ValueError(f"variance must be positive and finite, got {self.variance}")
        if self.family in _STATIONARY and not self.lengthscale > 0:
            raise ValueError(f"lengthscale must be positive, got {self.lengthscale}")
        if self.family is KernelFamily.SQUARED_EXPONENTIAL and not _two_l2(self) > 0:
            raise ValueError(f"lengthscale {self.lengthscale} is too small: "
                             "2 * lengthscale**2 underflows to 0")


def _two_l2(spec: KernelSpec):
    """2 l^2, the squared-exponential kernel's scale; inf when it overflows.

    numpy's scalar power is C's pow, which Python's float ``**`` also calls,
    but it overflows to inf where ``**`` raises OverflowError.
    """
    with np.errstate(over="ignore"):
        return 2.0 * np.float64(spec.lengthscale) ** 2


def _points_2d(points) -> np.ndarray:
    x = np.asarray(points, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] < 1:
        raise DimensionError(f"points must be a nonempty (n, d) array, got shape {x.shape}")
    return x


def gram_matrix(spec: KernelSpec, points) -> np.ndarray:
    """K_ij = k(x_i, x_j) on the given point set.

    Any principal submatrix equals the Gram matrix of the corresponding
    point subset exactly, because each entry depends only on its own pair.
    K equals its transpose bit for bit with no symmetrize pass: numpy's
    product of x with its own transpose is exactly symmetric, and so is
    every elementwise step after it. A stationary kernel's exponent that
    overflows (a lengthscale tiny against the distances) is -inf, whose exp
    is the kernel's limit 0.
    """
    x = _points_2d(points)
    n = x.shape[0]
    if spec.family is KernelFamily.WHITE:
        return spec.variance * np.eye(n)
    if spec.family is KernelFamily.LINEAR:
        return spec.variance * (x @ x.T)
    sq = np.sum(x * x, axis=1)
    dist_sq = np.clip(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0, None)
    with np.errstate(over="ignore"):
        if spec.family is KernelFamily.SQUARED_EXPONENTIAL:
            return spec.variance * np.exp(-dist_sq / _two_l2(spec))
        # exponential / Matern-1/2
        return spec.variance * np.exp(-np.sqrt(dist_sq) / spec.lengthscale)


@dataclass(frozen=True)
class KlModes:
    """Truncated eigenmodes of a covariance, held as the canonical factor
    Psi sqrt(Lambda) of the kept modes, and the relative Frobenius
    reconstruction residual left by the truncation."""

    factor: psd.PsdFactor
    residual: float


def kl_truncate(cov, r, rank_tol: float | None = None) -> KlModes:
    """Keep the top eigenmodes of a PSD matrix.

    ``r`` is either an integer mode count in [1, rank] or a float energy
    fraction in (0, 1], in which case the smallest count reaching that
    fraction of the trace is kept. A bool ``r`` or a fraction outside
    (0, 1] is rejected before the matrix is eigendecomposed; a count is
    checked against the rank that the eigendecomposition finds. The kept
    modes are F_1 = F[:, :count] of :func:`psd.canonical_sqrt`'s factor F,
    pinned before the cut, so a tie block across it is settled as in F.
    When the caller still holds F (the prior of the same K, say, from
    ``GaussianLaw.from_moments``), :func:`psd.canonical_sqrt` returns it
    without a second eigendecomposition. F is released, unless such a
    caller still holds it, before K is symmetrized again for the residual
    |K - F_1 F_1^T|_F / |K|_F, with the kept factor's exactly symmetric
    ``gram()`` and :func:`psd._norm`, in range at any scale of K; it is
    nonincreasing in the kept count.
    """
    if isinstance(r, (bool, np.bool_)):
        raise ValueError("r must be an integer count or a float energy fraction")
    by_count = isinstance(r, (int, np.integer))
    if not by_count:
        fraction = float(r)
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"energy fraction {fraction} outside (0, 1]")
    factor = psd.canonical_sqrt(cov, rank_tol)
    values = factor.eigenvalues
    rank = values.size
    if by_count:
        count = int(r)
        if rank == 0 or not 1 <= count <= rank:
            raise ValueError(f"mode count {count} outside [1, rank={rank}]")
    elif rank == 0:
        count = 0
    else:
        ratios = np.cumsum(values) / np.sum(values)
        # tiny slack so fraction=1.0 is reached despite rounding
        count = int(np.argmax(ratios >= fraction - 1e-12)) + 1
    kept = psd.PsdFactor(factor.factor[:, :count].copy(), values[:count])
    del factor  # before K's n x n copies are made
    k = symmetrize(cov)
    norm_k = psd._norm(k)
    k -= kept.gram()
    return KlModes(kept, psd._norm(k) / norm_k if norm_k else 0.0)


# most samples the CLI's kl-sample command draws: sample_kl holds
# rank x count normals and an n x count result before anything is written
MEMBERS_CAP = 10**4
# most POINTS rows kl-sample reads: the n x n Gram matrix and its
# eigendecomposition take about 0.8 GB at the cap
POINTS_CAP = 4096


def sample_kl(modes: KlModes, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` zero-mean vectors Psi sqrt(Lambda) z, one per column.

    Identical seeds give bitwise-identical output.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    factor = modes.factor.factor
    return factor @ NormalStream(seed).normals((factor.shape[1], count))
