"""Discrete RKHS geometry induced by a PSD kernel matrix.

The space is Range(K) with inner product <u, v> = u^T K^+ v. Regularized
regression in this geometry shares its minimizer with exact conditioning
and the MAP program. The solver works in the kernel factor's orthonormal
range basis U_r, where the RKHS penalty is exactly diag(1/lambda), so its
normal equations diag(1/lambda) + (H U_r)^T R^(-1) (H U_r) never form K^+.
That system is a diag(lambda^(1/2)) rescaling of the quadratic program's
I + (H A)^T R^(-1) (H A), so the two routes are close relatives rather
than independent computations. It is also the restricted Hessian whose
inverse is the posterior covariance's r x r core in U_r
(:func:`enscgp.gaussian.posterior_cov_via_hessian`), so one audit factors
it once, with R whitened, and passes the factor to both; the audit compares
that core with the Schur core and holds no n x n array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .gaussian import ObservationModel, _check_data, _restricted_hessian
from .psd import PsdFactor, _chol_solve


@dataclass(frozen=True)
class DiscreteRkhs:
    """Range(K), carried by the kernel's canonical factor."""

    kernel_factor: PsdFactor

    @classmethod
    def from_factor(cls, factor: PsdFactor) -> "DiscreteRkhs":
        return cls(kernel_factor=factor)

    @property
    def dim(self) -> int:
        return self.kernel_factor.dim

    @property
    def rank(self) -> int:
        return self.kernel_factor.rank


def rkhs_solve(space: DiscreteRkhs, prior_mean, obs: ObservationModel, y, *,
               hessian_chol: np.ndarray | None = None) -> np.ndarray:
    """Regularized regression over g in prior_mean + Range(K).

    Minimizes |y - H g|^2 weighted by R^(-1) plus the squared RKHS norm of
    g - prior_mean. The normal equations are solved in the orthonormal
    basis of Range(K), where the penalty is diag(1/lambda) from the kernel
    factor's own eigenvalues. ``hessian_chol`` is the Cholesky factor of
    that system as ``gaussian._restricted_hessian(space.kernel_factor, obs)``
    returns it, for a caller that already holds it; by default it is
    computed here.
    """
    prior_mean = np.asarray(prior_mean, dtype=float)
    if prior_mean.shape != (space.dim,):
        raise DimensionError(
            f"prior mean must have shape ({space.dim},), got {prior_mean.shape}"
        )
    if obs.state_dim != space.dim:
        raise DimensionError(
            f"observation model expects state dim {obs.state_dim}, space has {space.dim}"
        )
    y = _check_data(obs, y)
    if obs.n_obs == 0 or space.rank == 0:
        return prior_mean.copy()
    d = y - obs.H @ prior_mean
    u = space.kernel_factor.basis()
    if hessian_chol is None:
        hessian_chol = _restricted_hessian(space.kernel_factor, obs)
    rhs = u.T @ (obs.H.T @ obs.noise_solve(d))
    return prior_mean + u @ _chol_solve(hessian_chol, rhs)
