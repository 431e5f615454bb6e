"""Ensemble moments as a Gaussian prior, and ensemble-prior conditioning.

An ensemble of E members in R^n defines an empirical mean and the scaled
anomaly matrix A = [f_e - mean] / sqrt(E - 1), so that K = A A^T is the
divisor-(E-1) empirical covariance with rank at most E - 1;
``ensemble_stats`` returns this empirical law. Conditioning it gives the
exact posterior law on the ensemble span. Its gain belongs to that law; the
stochastic perturbed-observation update is one way to apply it, a Monte
Carlo realization whose sample mean matches the posterior mean up to
O(1/sqrt(E)) noise.

Localization and inflation are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gaussian, psd
from .errors import DimensionError
from .gaussian import GaussianLaw, ObservationModel
from .rng import blocked_normals


@dataclass(frozen=True)
class Ensemble:
    """Member-per-column matrix, at least two members, all entries finite."""

    members: np.ndarray

    def __post_init__(self):
        members = np.asarray(self.members, dtype=float)
        if members.ndim != 2:
            raise DimensionError(f"members must be an (n, E) matrix, got shape {members.shape}")
        if members.shape[1] < 2:
            raise ValueError(f"need at least 2 members, got {members.shape[1]}")
        if not np.all(np.isfinite(members)):
            raise ValueError("ensemble contains non-finite entries")
        object.__setattr__(self, "members", members)

    @property
    def dim(self) -> int:
        return self.members.shape[0]

    @property
    def size(self) -> int:
        return self.members.shape[1]


def _member_mean(members: np.ndarray) -> np.ndarray:
    """Row means of a finite (n, E) matrix, in range whenever they are finite
    doubles.

    numpy sums before it divides, so a row of finite members can have an
    infinite or NaN plain mean. Only such a row is averaged again, scaled
    by the power of two just above its largest magnitude (exact, as
    :func:`psd._norm` rescales), and its mean scaled back; every other row
    keeps the plain mean's bits. No numpy warning is raised.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = members.mean(axis=1)
        bad = np.flatnonzero(~np.isfinite(mean))
        if bad.size:
            rows = members[bad]
            exponent = np.frexp(np.abs(rows).max(axis=1))[1]
            mean[bad] = np.ldexp(np.ldexp(rows, -exponent[:, None]).mean(axis=1),
                                 exponent)
    return mean


def ensemble_stats(ens: Ensemble, rank_tol: float | None = None) -> GaussianLaw:
    """Empirical law N(mean, A A^T) with the divisor-(E-1) convention.

    The mean is finite whenever it is a finite double, even where the
    members' sum overflows (:func:`_member_mean`); one that is not raises
    ``ValueError`` naming the ensemble mean, without a numpy warning.
    """
    mean = _member_mean(ens.members)
    if not np.isfinite(mean).all():
        raise ValueError("ensemble mean must not contain infs or NaNs")
    anomaly = (ens.members - mean[:, None]) / np.sqrt(ens.size - 1)
    return GaussianLaw(mean, psd.canonicalize_factor(anomaly, rank_tol))


def ens_cgp(ens: Ensemble, obs: ObservationModel, y,
            rank_tol: float | None = None) -> GaussianLaw:
    """Condition the ensemble-defined prior N(mean, A A^T) on the data.

    The posterior mean shift is confined to the anomaly span. A zero-spread
    ensemble has zero gain, so the posterior collapses to the prior point
    mass at the empirical mean.
    """
    return gaussian.condition(ensemble_stats(ens, rank_tol), obs, y, rank_tol)


def enkf_mean_update(prior: GaussianLaw, obs: ObservationModel, y) -> np.ndarray:
    """Gain-form mean update mean + G (y - H mean) with the prior's K."""
    y = gaussian._check_data(obs, y)
    gain = gaussian.kalman_gain(prior, obs)
    return prior.mean + gain @ (y - obs.H @ prior.mean)


def enkf_perturbed_obs(ens: Ensemble, obs: ObservationModel, y, gain, seed: int,
                       perturb: bool = True,
                       center_perturbations: bool = False) -> Ensemble:
    """Stochastic analysis update f_e <- f_e + G (y + eta_e - H f_e).

    The gain G, shape (n, m), belongs to the conditional law and is shared by
    all members; normally it is ``kalman_gain(ensemble_stats(ens), obs)``.
    Perturbations eta_e ~ N(0, R) come from ``ObservationModel.noise``
    applied to per-member counter substreams (substream index = member
    index): member e's draw depends only on (seed, e), so results are
    reproducible and member updates could run in parallel.
    ``perturb=False`` sets eta = 0, the deterministic limit of the scheme;
    ``center_perturbations`` subtracts the perturbation sample mean.
    """
    y = gaussian._check_data(obs, y)
    gain = np.asarray(gain, dtype=float)
    n, m = ens.dim, obs.n_obs
    if obs.state_dim != n:
        raise DimensionError(f"observation model expects state dim {obs.state_dim}, "
                             f"ensemble has {n}")
    if gain.shape != (n, m):
        raise DimensionError(f"gain must have shape ({n}, {m}), got {gain.shape}")
    if perturb:
        eta = obs.noise(blocked_normals(seed, m, ens.size))
        if center_perturbations:
            eta = eta - eta.mean(axis=1, keepdims=True)
    else:
        eta = np.zeros((m, ens.size))
    with np.errstate(over="ignore", invalid="ignore"):
        innovations = y[:, None] + eta - obs.H @ ens.members
        updated = ens.members + gain @ innovations
    try:
        return Ensemble(updated)
    except ValueError:  # raised by Ensemble's finiteness check
        raise ValueError("updated ensemble must not contain infs or NaNs") from None
