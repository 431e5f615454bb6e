"""Scripted studies: the four-route equivalence audit and the
repeated-reuse posterior-collapse demonstration.

``run_equivalence`` computes one posterior four ways (Schur conditioning,
quadratic-program normal equations, RKHS-regularized regression, the
ensemble gain-form update) plus the covariance two ways (Schur,
restricted-Hessian inverse) and reports every pairwise discrepancy. The
two covariances are compared as r x r cores in the prior's range basis U,
which equals the n x n comparison because U has orthonormal columns, so
the audit holds no n x n array and eigendecomposes nothing; the canonical
form that ``condition`` builds from the Schur core is checked by tier-1
tests, not by the audit.
``equivalence_corpus`` runs it, one report at a time, over the seeded
instance family: full-rank, rank-1, and ensemble (``ensemble_stats``)
priors against tall, wide, and zero observation operators.

``repeated_reuse`` traces what happens when one realized observation is
(incorrectly) treated as k independent ones: the covariance follows
K_k = (K_0^(-1) + k H^T R^(-1) H)^(-1) and collapses as k grows, while
the mean moves by K_k (k H^T R^(-1) (y - H m_0)). It makes one pass over k
and keeps per-k norms and the final law, so its memory is O(n^2 + k_max).
The trace is labeled a double-counting demonstration because that
collapse is a property of data reuse, not of correct single-observation
inference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import ensemble, gaussian, psd, quadprog, rkhs
from .errors import NotSpdError
from .gaussian import GaussianLaw, ObservationModel
from .psd import _chol_solve, _norm, symmetrize
from .rng import NormalStream

MEAN_TOL = 1e-8
COV_TOL = 1e-8

MEAN_ROUTES = ("schur", "qp", "rkhs", "gain")
MEAN_PAIRS = tuple(itertools.combinations(MEAN_ROUTES, 2))


def _relative(diff: np.ndarray, norm_a: float, norm_b: float) -> float:
    """|a - b| / max(1, |a|, |b|) from diff = a - b and the norms of a and b.

    A NaN or infinite entry of a or b makes diff's norm, and so the result,
    NaN or inf, which no tolerance passes.
    """
    return _norm(diff) / max(1.0, norm_a, norm_b)


def rel_vec_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric relative (Frobenius for matrices) difference with a unit
    floor, with norms that are in range at any scale (:func:`psd._norm`)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return _relative(a - b, _norm(a), _norm(b))


@dataclass(frozen=True)
class EquivalenceReport:
    """Per-route posteriors and their pairwise discrepancies for one instance."""

    n: int
    m: int
    rank: int
    seed: int | None
    means: dict
    mean_discrepancies: dict
    cov_discrepancy: float
    passed: bool

    @property
    def max_mean_discrepancy(self) -> float:
        """The largest mean discrepancy, NaN if any is NaN."""
        return float(np.max(list(self.mean_discrepancies.values())))


def run_equivalence(prior: GaussianLaw, obs: ObservationModel, y,
                    seed: int | None = None) -> EquivalenceReport:
    """Compute the posterior along every route and audit the agreement;
    the covariances are compared as r x r cores (see the module docstring)."""
    gaussian._check_compatible(prior, obs)
    y = gaussian._check_data(obs, y)

    schur_mean, schur_core = gaussian._schur_core(prior, obs, y)
    x_star, qp_mean = quadprog.solve_qp(quadprog.build_qp(prior, obs, y))
    # the RKHS mean and the Hessian covariance are close relatives, not
    # independent routes, so one restricted-Hessian factor serves both
    hessian_chol = gaussian._restricted_hessian(prior.cov_factor, obs)
    space = rkhs.DiscreteRkhs.from_factor(prior.cov_factor)
    rkhs_mean = rkhs.rkhs_solve(space, prior.mean, obs, y, hessian_chol=hessian_chol)
    gain_mean = ensemble.enkf_mean_update(prior, obs, y)

    means = {"schur": schur_mean, "qp": qp_mean, "rkhs": rkhs_mean,
             "gain": gain_mean}
    # rel_vec_diff, with each mean's norm taken once, not per pair
    norms = {route: _norm(mean) for route, mean in means.items()}
    mean_disc = {(a, b): _relative(means[a] - means[b], norms[a], norms[b])
                 for a, b in MEAN_PAIRS}
    cov_disc = rel_vec_diff(schur_core, gaussian.posterior_cov_via_hessian(
        prior, obs, hessian_chol=hessian_chol))
    # every comparison with a NaN is false, so a NaN discrepancy fails
    passed = all(d <= MEAN_TOL for d in mean_disc.values()) and cov_disc <= COV_TOL
    return EquivalenceReport(n=prior.dim, m=obs.n_obs, rank=prior.rank, seed=seed,
                             means=means, mean_discrepancies=mean_disc,
                             cov_discrepancy=cov_disc, passed=passed)


COV_KINDS = ("full", "rank1", "ensemble")
OBS_KINDS = ("tall", "wide", "zero")


def _spd_matrix(stream: NormalStream, size: int) -> np.ndarray:
    b = stream.normals((size, size))
    # b @ b.T is exactly symmetric (numpy's product of b with its transpose)
    return b @ b.T / size + (0.5 + float(stream.uniforms(1)[0])) * np.eye(size)


def make_instance(index: int, base_seed: int = 0):
    """Deterministic corpus instance: (prior, obs, y) for the given index.

    Covariance kind cycles full / rank-1 / ensemble-derived; observation
    kind cycles tall / wide / zero, so any 9 consecutive indices cover all
    combinations.
    """
    cov_kind = COV_KINDS[index % 3]
    obs_kind = OBS_KINDS[(index // 3) % 3]
    stream = NormalStream(base_seed).substream(index)

    if obs_kind == "tall":
        n = int(stream.integers(3, 16))
        m = int(stream.integers(n + 1, min(21, n + 6)))
    elif obs_kind == "wide":
        n = int(stream.integers(5, 51))
        m = int(stream.integers(1, min(21, n)))
    else:
        n = int(stream.integers(3, 51))
        m = int(stream.integers(1, 21))

    mean = stream.normals(n)
    if cov_kind == "full":
        prior = GaussianLaw(mean, psd.canonical_sqrt(_spd_matrix(stream, n)))
    elif cov_kind == "rank1":
        direction = stream.normals((n, 1))
        prior = GaussianLaw(mean, psd.canonicalize_factor(direction))
    else:
        n_members = int(stream.integers(2, min(n, 12) + 1))
        members = mean[:, None] + stream.normals((n, n_members))
        prior = ensemble.ensemble_stats(ensemble.Ensemble(members))

    h = np.zeros((m, n)) if obs_kind == "zero" else stream.normals((m, n))
    obs = ObservationModel(h, _spd_matrix(stream, m))
    y = stream.normals(m)
    return prior, obs, y


def equivalence_corpus(count: int = 100, base_seed: int = 0):
    """Run the audit on ``count`` seeded instances, yielding each report as it
    is made, so memory does not grow with ``count``."""
    for index in range(count):
        prior, obs, y = make_instance(index, base_seed)
        yield run_equivalence(prior, obs, y, seed=index)


COUNT_CAP = 10**5  # largest corpus the CLI's equivalence command runs
K_MAX_CAP = 10**6
RECURSION_LIMIT = 100  # conditioning-based cross-check stops here


@dataclass(frozen=True)
class CollapseTrace:
    """Per-k summary of the closed-form law under k-fold reuse of one datum.

    Only O(k_max) numbers and the final law are kept: ``spectral_norms[k]``
    is ||K_k||_2 and ``mean_shift_norms[k]`` is ||m_k - m_0||_2 for k = 0..k_max,
    while ``final_mean`` and ``final_cov`` are m_k and K_k at k = k_max.
    """

    ks: np.ndarray
    spectral_norms: np.ndarray
    mean_shift_norms: np.ndarray
    final_mean: np.ndarray
    final_cov: np.ndarray
    recursive_max_discrepancy: float
    label: str = "double-counting demonstration"


@np.errstate(over="ignore", invalid="ignore")  # an overflow is named, not warned about
def repeated_reuse(prior: GaussianLaw, obs: ObservationModel, y,
                   k_max: int) -> CollapseTrace:
    """Trace K_k = (K_0^(-1) + k H^T R^(-1) H)^(-1) and the matching means.

    Requires an SPD prior covariance. One pass over k computes each K_k and
    the shift m_k - m_0 = K_k (k H^T R^(-1) (y - H m_0)), and keeps only
    their norms, so memory is O(n^2 + k_max). For k up to
    ``RECURSION_LIMIT`` the closed form is cross-checked, in the same pass,
    against literally conditioning k times; the largest relative discrepancy
    observed is recorded in the trace. A data shift, precision, mean or
    discrepancy that overflows raises ``ValueError``.
    """
    if prior.rank != prior.dim:
        raise NotSpdError(
            f"prior covariance has rank {prior.rank} < dim {prior.dim}; "
            "the collapse formula needs an SPD prior"
        )
    if not 1 <= k_max <= K_MAX_CAP:
        raise ValueError(f"k_max must be in [1, {K_MAX_CAP}], got {k_max}")
    y = gaussian._check_data(obs, y)

    k0_inv = prior.cov_factor.pinv()  # full rank, so this is the inverse
    info = obs.information()
    try:
        pulled_data = obs.H.T @ obs.noise_solve(y - obs.H @ prior.mean)
    except ValueError:  # raised by noise_solve's finiteness check
        raise ValueError("data shift y - H m_0 must not contain infs or NaNs") from None

    ks = np.arange(k_max + 1)
    spectral_norms = np.empty(k_max + 1)
    mean_shift_norms = np.empty(k_max + 1)
    identity = np.eye(prior.dim)
    worst = 0.0
    law = prior
    for k in ks:
        precision = k0_inv + k * info
        chol = gaussian._spd_chol(precision, "precision K_0^(-1) + k H^T R^(-1) H")
        cov_k = symmetrize(_chol_solve(chol, identity))
        shift = cov_k @ (k * pulled_data)
        mean_k = prior.mean + shift
        mean_shift_norms[k] = _norm(shift)
        spectral_norms[k] = float(np.max(np.abs(np.linalg.eigvalsh(cov_k))))
        if 1 <= k <= RECURSION_LIMIT:
            law = gaussian.condition(law, obs, y)
            # np.max keeps a NaN, which the builtin max would drop
            worst = float(np.max([worst, rel_vec_diff(law.mean, mean_k),
                                  rel_vec_diff(law.covariance, cov_k)]))
    if not (np.isfinite(mean_shift_norms).all() and np.isfinite(mean_k).all()
            and np.isfinite(worst)):
        raise ValueError("the collapse trace is not finite: a posterior mean m_0 + K_k "
                         "(k H^T R^(-1) (y - H m_0)) or the recursive cross-check overflows")
    return CollapseTrace(ks=ks, spectral_norms=spectral_norms,
                         mean_shift_norms=mean_shift_norms, final_mean=mean_k,
                         final_cov=cov_k, recursive_max_discrepancy=worst)
