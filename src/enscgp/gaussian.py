"""Gaussian laws on a fixed discretization and exact conditioning.

A law carries its covariance in factored form K = A A^T, so singular
(low-rank, ensemble-derived) priors are first-class citizens. Conditioning
on linear observations y = H f + noise is the Schur-complement update

    mean_post = m + K H^T (H K H^T + R)^(-1) (y - H m)
    cov_post  = K - K H^T (H K H^T + R)^(-1) H K

which :func:`condition` evaluates from one matrix, W = L^(-1) H A, where
L L^T = (H A)(H A)^T + R is SPD whenever R is, even for singular K. With
the canonical prior factor A = U S, the mean is m + A W^T L^(-1) (y - H m)
and the covariance is U C U^T with the r x r core C = S (I - W^T W) S, so
no gain, no n x m and no n x n array is formed, only C is
eigendecomposed, and a step costs O(n r m + n r^2 + m^2 r + m^3 + r^3).
:func:`kalman_gain` forms the gain K H^T (H K H^T + R)^(-1) itself, for
the ensemble update that applies it. The same core is also available as
the inverse of the quadratic-form Hessian restricted to Range(K), which in
the range basis is diag(1/lambda) + (H U)^T R^(-1) (H U)
(:func:`posterior_cov_via_hessian`). The equivalence audit compares the
two as r x r cores in U: U has orthonormal columns, so their relative
Frobenius difference is that of the n x n covariances, and the audit holds
no n x n array and eigendecomposes nothing. Tier-1 tests check the
canonical form :func:`condition` builds from C (its rank decision, pinning
and embedding) against U times the Hessian core times U^T.

R is factored once, R = L_R L_R^T, when the observation model is built.
Every R^(-1)-weighted Gram matrix X^T R^(-1) X (the restricted Hessian's,
the quadratic program's, the information matrix) is formed from the
whitened X, L_R^(-1) X, as an exactly symmetric product of that matrix
with its own transpose. The Schur route keeps R itself: the innovation
covariance is H K H^T + R, so a fault in the whitening cannot cancel out
of the audit.

Every Cholesky factorization, Cholesky inverse and triangular solve here
goes through the LAPACK helpers in :mod:`enscgp.psd`, which check every
matrix they factor and every right-hand side for finiteness (a factor, made
only by potrf, is not checked again). Non-finite values are also rejected
with ``ValueError`` where they enter: a law's mean, the model's H and R,
and the data y.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import psd
from .errors import DegenerateModelError, DimensionError, NotSpdError
from .psd import (PsdFactor, _check_finite, _chol_inverse, _chol_lower,
                  _chol_solve, _tril_solve, symmetrize)


@dataclass(frozen=True)
class GaussianLaw:
    """Gaussian law N(mean, K) with K carried as a canonical square root."""

    mean: np.ndarray
    cov_factor: PsdFactor

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        if mean.ndim != 1:
            raise DimensionError(f"mean must be a vector, got shape {mean.shape}")
        if mean.shape[0] != self.cov_factor.dim:
            raise DimensionError(
                f"mean length {mean.shape[0]} != covariance dim {self.cov_factor.dim}"
            )
        _check_finite(mean)
        object.__setattr__(self, "mean", mean)

    @property
    def dim(self) -> int:
        return self.cov_factor.dim

    @property
    def rank(self) -> int:
        return self.cov_factor.rank

    @property
    def covariance(self) -> np.ndarray:
        return self.cov_factor.gram()

    @classmethod
    def from_moments(cls, mean, cov, rank_tol: float | None = None) -> "GaussianLaw":
        """Build from a dense covariance; symmetrizes and factors on ingestion."""
        return cls(np.asarray(mean, dtype=float), psd.canonical_sqrt(cov, rank_tol))


def _spd_chol(matrix: np.ndarray, name: str) -> np.ndarray:
    """Lower Cholesky factor of an SPD matrix; NotSpdError names it if it is
    not positive definite, and ValueError if it is not finite.

    The innovation covariance is formed with overflow warnings silenced, so
    a product that overflows at extreme magnitudes of H or the prior is
    reported here, once, by name.
    """
    try:
        return _chol_lower(matrix)
    except np.linalg.LinAlgError:
        raise NotSpdError(f"{name} is not positive definite") from None
    except ValueError:  # raised by _chol_lower's finiteness check
        raise ValueError(f"{name} must not contain infs or NaNs") from None


@dataclass(frozen=True)
class ObservationModel:
    """Linear observation model y = H f + e with e ~ N(0, R), R SPD.

    R is symmetrized on construction and factored once, R = L L^T. The
    model is the only code that applies R: every solve with R, every
    whitening L^(-1) X (and through it every R^(-1)-weighted Gram matrix)
    and every N(0, R) draw goes through L. An empty model (zero
    observations) is allowed and acts as "no data" throughout: the LAPACK
    helpers return empty solves for it.
    """

    H: np.ndarray
    R: np.ndarray
    _noise_chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h = np.asarray(self.H, dtype=float)
        if h.ndim != 2:
            raise DimensionError(f"H must be a matrix, got shape {h.shape}")
        r = symmetrize(self.R)
        if r.shape[0] != h.shape[0]:
            raise DimensionError(
                f"R is {r.shape[0]}x{r.shape[0]} but H has {h.shape[0]} rows"
            )
        _check_finite(h)
        chol = _spd_chol(r, "noise covariance R")
        object.__setattr__(self, "H", h)
        object.__setattr__(self, "R", r)
        object.__setattr__(self, "_noise_chol", chol)

    @property
    def n_obs(self) -> int:
        return self.H.shape[0]

    @property
    def state_dim(self) -> int:
        return self.H.shape[1]

    def noise_solve(self, b: np.ndarray) -> np.ndarray:
        """R^(-1) b via the Cholesky factor of R."""
        return _chol_solve(self._noise_chol, np.asarray(b, dtype=float))

    def whiten(self, x: np.ndarray) -> np.ndarray:
        """L^(-1) X for X with n_obs rows: one triangular solve with R's factor."""
        return _tril_solve(self._noise_chol, np.asarray(x, dtype=float))

    def weighted_gram(self, x: np.ndarray) -> np.ndarray:
        """X^T R^(-1) X = W^T W with W = L^(-1) X, for X with n_obs rows.

        numpy's product of W^T with W is exactly symmetric.
        """
        w = self.whiten(x)
        return w.T @ w

    def noise(self, z: np.ndarray) -> np.ndarray:
        """N(0, R) draws L z from standard normals z with n_obs rows."""
        # potrf leaves R's upper triangle in the cached factor
        return np.tril(self._noise_chol) @ z

    def information(self) -> np.ndarray:
        """Observation information matrix H^T R^(-1) H."""
        return self.weighted_gram(self.H)


def _check_compatible(prior: GaussianLaw, obs: ObservationModel) -> None:
    if obs.state_dim != prior.dim:
        raise DimensionError(
            f"observation model expects state dim {obs.state_dim}, prior has {prior.dim}"
        )


def _check_data(obs: ObservationModel, y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (obs.n_obs,):
        raise DimensionError(f"data must have shape ({obs.n_obs},), got {y.shape}")
    _check_finite(y)
    return y


_INNOVATION = "innovation covariance H K H^T + R"  # _schur_core and kalman_gain factor it


def kalman_gain(prior: GaussianLaw, obs: ObservationModel) -> np.ndarray:
    """Gain G = K H^T (H K H^T + R)^(-1), solved by Cholesky.

    K H^T is assembled through the covariance factor, so every column of G
    lies in Range(K) by construction.
    """
    _check_compatible(prior, obs)
    a = prior.cov_factor.factor
    with np.errstate(over="ignore", invalid="ignore"):
        kht = a @ (a.T @ obs.H.T)
        innovation = symmetrize(obs.H @ kht) + obs.R
    return _chol_solve(_spd_chol(innovation, _INNOVATION), kht.T).T


def _schur_core(prior: GaussianLaw, obs: ObservationModel,
                y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and r x r covariance core in the prior's range basis U.

    L is the Cholesky factor of (H A)(H A)^T + R, with R as given, and
    W = L^(-1) H A; the mean is m + A W^T L^(-1) (y - H m) and the core
    S (I - W^T W) S, so the posterior covariance is U core U^T (see the
    module docstring) and no n x n array is formed. ``y`` must be checked
    data; a data shift y - H m that overflows raises ``ValueError``, without
    a numpy warning.
    """
    a = prior.cov_factor.factor
    with np.errstate(over="ignore", invalid="ignore"):
        ha = obs.H @ a
        innovation = ha @ ha.T + obs.R
        chol = _spd_chol(innovation, _INNOVATION)
        w = _tril_solve(chol, ha)
        try:
            mean = prior.mean + a @ (w.T @ _tril_solve(chol, y - obs.H @ prior.mean))
        except ValueError:  # raised by _tril_solve's finiteness check
            raise ValueError("data shift y - H m must not contain infs or NaNs") from None
    w *= np.sqrt(prior.cov_factor.eigenvalues)  # W S
    return mean, np.diag(prior.cov_factor.eigenvalues) - w.T @ w


def condition(prior: GaussianLaw, obs: ObservationModel, y,
              rank_tol: float | None = None) -> GaussianLaw:
    """Exact Gaussian conditioning on y = H f + e, from W = L^(-1) H A alone.

    The mean and the r x r covariance core come from :func:`_schur_core`,
    and only the core is eigendecomposed, so a step costs
    O(n r m + n r^2 + m^2 r + m^3 + r^3), not O(n^3). The rank decision is
    the one the dense n x n posterior would get: default cutoff from n,
    threshold floored at the prior's largest eigenvalue. The factored form
    stays closed under conditioning and the posterior rank never exceeds
    the prior rank. With zero observations the prior is returned unchanged.
    """
    _check_compatible(prior, obs)
    y = _check_data(obs, y)
    if obs.n_obs == 0:
        return prior
    mean, core = _schur_core(prior, obs, y)
    # round-off in the update lives at the prior's scale, so the
    # re-factoring threshold is floored there
    scale = float(prior.cov_factor.eigenvalues[0]) if prior.rank else 0.0
    factor = psd.canonical_sqrt_in_basis(prior.cov_factor.basis(), core, rank_tol,
                                         scale_floor=scale)
    try:
        return GaussianLaw(mean, factor)
    except ValueError:  # raised by GaussianLaw's finiteness check
        raise ValueError("posterior mean must not contain infs or NaNs") from None


def _restricted_hessian(factor: PsdFactor, obs: ObservationModel) -> np.ndarray:
    """Lower Cholesky factor of the restricted Hessian U_r^T (K^+ + H^T R^(-1) H) U_r.

    In the factor's own range basis, U_r^T K^+ U_r is exactly diag(1/lambda),
    so the restriction is assembled as diag(1/lambda) + (H U_r)^T R^(-1) (H U_r)
    from the whitened L^(-1) H U_r. No n x n matrix is formed, and the
    eps / lambda_min error of a round trip through a dense K^+ is avoided.
    One audit factors it once and hands the factor to both routes that
    solve with it (:func:`posterior_cov_via_hessian` and ``rkhs_solve``).
    """
    reduced = obs.weighted_gram(obs.H @ factor.basis())
    # the Gram product is a fresh C-ordered array, so ravel() is a view and
    # every (rank + 1)-th entry of it is a diagonal entry
    reduced.ravel()[:: factor.rank + 1] += 1.0 / factor.eigenvalues
    try:
        return _chol_lower(reduced)
    except np.linalg.LinAlgError:
        raise DegenerateModelError(
            "restricted Hessian is numerically singular; rank tolerance is inconsistent"
        ) from None


def posterior_cov_via_hessian(prior: GaussianLaw, obs: ObservationModel, *,
                              hessian_chol: np.ndarray | None = None) -> np.ndarray:
    """Posterior covariance core as the inverse Hessian on Range(K).

    With the restricted Hessian U_r^T (K^+ + H^T R^(-1) H) U_r = L L^T (see
    :func:`_restricted_hessian`), the core is (L L^T)^(-1), r x r and
    exactly symmetric: X^T X with X = L^(-1) from one triangular solve
    below r = 65, and one LAPACK Cholesky inverse (potri) of L, a third of
    the flops, from there on (``psd._chol_inverse``). It is a core in the
    prior's range basis U_r: the posterior covariance is
    U_r (L L^T)^(-1) U_r^T, and it must equal the Schur-complement core of
    :func:`_schur_core`, whose canonical square root :func:`condition`
    returns. ``hessian_chol`` is L as :func:`_restricted_hessian` returns it
    for this prior and model, for a caller that already holds it; by default
    it is computed here.
    """
    _check_compatible(prior, obs)
    if hessian_chol is None:
        hessian_chol = _restricted_hessian(prior.cov_factor, obs)
    return _chol_inverse(hessian_chol)
