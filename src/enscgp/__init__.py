"""Finite-dimensional Gaussian inference with singular priors.

One posterior, four equivalent routes: exact Schur-complement conditioning,
the MAP quadratic program on the covariance range, RKHS-regularized
regression in the covariance geometry, and the gain-form mean update used
by ensemble analysis. The package keeps covariances in factored
(square-root) form so low-rank ensemble priors are handled without
regularization tricks, and it ships an audit that checks the four routes
against each other on every run.
"""

from .ensemble import (Ensemble, enkf_mean_update, enkf_perturbed_obs, ens_cgp,
                       ensemble_stats)
from .errors import (DegenerateModelError, DimensionError, InfeasiblePointError,
                     MatrixParseError, NotPsdError, NotSpdError)
from .experiments import (CollapseTrace, EquivalenceReport, equivalence_corpus,
                          make_instance, repeated_reuse, run_equivalence)
from .gaussian import (GaussianLaw, ObservationModel, condition, kalman_gain,
                       posterior_cov_via_hessian)
from .kernels import KernelFamily, KernelSpec, KlModes, gram_matrix, kl_truncate, sample_kl
from .psd import (PsdFactor, canonical_sqrt, canonicalize_factor, default_rank_tol,
                  eig_psd, symmetrize)
from .quadprog import QuadraticObjective, build_qp, gradient, hessian, objective, solve_qp
from .rkhs import DiscreteRkhs, rkhs_solve
from .rng import NormalStream

__version__ = "0.1.0"

__all__ = [
    "CollapseTrace", "DegenerateModelError", "DimensionError", "DiscreteRkhs",
    "Ensemble", "EquivalenceReport", "GaussianLaw",
    "InfeasiblePointError", "KernelFamily", "KernelSpec", "KlModes",
    "MatrixParseError", "NormalStream", "NotPsdError", "NotSpdError",
    "ObservationModel", "PsdFactor", "QuadraticObjective", "build_qp",
    "canonical_sqrt", "canonicalize_factor", "condition", "default_rank_tol",
    "eig_psd", "enkf_mean_update", "enkf_perturbed_obs", "ens_cgp",
    "ensemble_stats", "equivalence_corpus", "gradient", "gram_matrix", "hessian",
    "kalman_gain", "kl_truncate", "make_instance", "objective",
    "posterior_cov_via_hessian", "repeated_reuse",
    "rkhs_solve", "run_equivalence", "sample_kl", "solve_qp", "symmetrize",
]
