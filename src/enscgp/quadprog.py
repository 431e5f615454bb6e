"""The MAP quadratic program of the linear-Gaussian model.

In displacement coordinates x = f - m with data shift d = y - H m, the
negative log-posterior is (up to an additive constant)

    J(x) = 1/2 x^T Q x + q^T x + c,    x in Range(K),

with Q = K^+ + H^T R^(-1) H, q = -H^T R^(-1) d, c = 1/2 d^T R^(-1) d.
Off the range the objective is infinite; evaluation there is rejected.

The solver never touches K^+. Substituting x = A w through the canonical
square root turns the prior penalty into |w|^2 exactly, and the normal
equations become the SPD system (A^T H^T R^(-1) H A + I) w = A^T H^T R^(-1) d,
solved by Cholesky. q and c are materialized with the solver payload; the
dense Q is built only on first access, for the objective/gradient/Hessian
oracles and for audits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateModelError, DimensionError, InfeasiblePointError
from .gaussian import GaussianLaw, ObservationModel, _check_compatible, _check_data
from .psd import PsdFactor, _chol_lower, _chol_solve, _norm

FEASIBILITY_TOL = 1e-8


@dataclass(frozen=True)
class QuadraticObjective:
    """Convex quadratic whose minimizer is the posterior mean shift."""

    q: np.ndarray
    c: float
    prior_mean: np.ndarray
    data_shift: np.ndarray
    cov_factor: PsdFactor
    reduced_gram: np.ndarray  # A^T H^T R^(-1) H A, assembled without K^+
    obs: ObservationModel

    @cached_property
    def Q(self) -> np.ndarray:
        """Dense Hessian K^+ + H^T R^(-1) H, built on first access; a sum of
        two exactly symmetric matrices, so exactly symmetric itself."""
        return self.cov_factor.pinv() + self.obs.information()

    @property
    def dim(self) -> int:
        return self.prior_mean.shape[0]

    @property
    def rank(self) -> int:
        return self.cov_factor.rank


def build_qp(prior: GaussianLaw, obs: ObservationModel, y) -> QuadraticObjective:
    """Assemble (q, c) plus the reduced solver payload; Q is built lazily."""
    _check_compatible(prior, obs)
    y = _check_data(obs, y)
    d = y - obs.H @ prior.mean
    rinv_d = obs.noise_solve(d)
    factor = prior.cov_factor
    # with no observations every product below is an empty sum: q and the
    # reduced Gram matrix are +0.0 zeros and c is 0.0. Negating rinv_d rather
    # than the product keeps every zero entry of q +0.0 with data too.
    return QuadraticObjective(q=obs.H.T @ -rinv_d, c=0.5 * float(d @ rinv_d),
                              prior_mean=prior.mean.copy(), data_shift=d,
                              cov_factor=factor,
                              reduced_gram=obs.weighted_gram(obs.H @ factor.factor),
                              obs=obs)


def solve_qp(obj: QuadraticObjective):
    """Minimize on Range(K); returns (x_star, posterior_mean).

    The zero-data-shift case is returned exactly, without a solve.
    """
    if obj.rank == 0 or not np.any(obj.data_shift):
        x_star = np.zeros(obj.dim)
        return x_star, obj.prior_mean + x_star
    lhs = obj.reduced_gram + np.eye(obj.rank)
    rhs = -(obj.cov_factor.factor.T @ obj.q)
    try:
        chol = _chol_lower(lhs)
    except np.linalg.LinAlgError:
        raise DegenerateModelError(
            "reduced normal equations are singular; rank tolerance is inconsistent"
        ) from None
    w = _chol_solve(chol, rhs)
    x_star = obj.cov_factor.factor @ w
    return x_star, obj.prior_mean + x_star


def _feasible_point(obj: QuadraticObjective, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (obj.dim,):
        raise DimensionError(f"point must have shape ({obj.dim},), got {x.shape}")
    u = obj.cov_factor.basis()
    residual = _norm(x - u @ (u.T @ x))
    if residual > FEASIBILITY_TOL * (1.0 + _norm(x)):
        raise InfeasiblePointError(
            f"point lies off Range(K): projection residual {residual:.3e}; "
            "the objective is infinite there"
        )
    return x


def objective(obj: QuadraticObjective, x) -> float:
    """J(x) = 1/2 x^T Q x + q^T x + c for feasible x."""
    x = _feasible_point(obj, x)
    return 0.5 * float(x @ obj.Q @ x) + float(obj.q @ x) + obj.c


def gradient(obj: QuadraticObjective, x) -> np.ndarray:
    """Gradient Q x + q; vanishes at the minimizer."""
    x = _feasible_point(obj, x)
    return obj.Q @ x + obj.q


def hessian(obj: QuadraticObjective) -> np.ndarray:
    """Constant Hessian Q (independent of the evaluation point)."""
    return obj.Q.copy()
