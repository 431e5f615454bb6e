import numpy as np
import pytest

from enscgp import (DiscreteRkhs, GaussianLaw, ObservationModel, build_qp,
                    canonical_sqrt, canonicalize_factor, condition, rkhs_solve,
                    solve_qp)

from conftest import random_orthogonal, random_psd


def rank_deficient_setup():
    k = np.diag([4.0, 1.0, 0.0])
    space = DiscreteRkhs.from_factor(canonical_sqrt(k))
    obs = ObservationModel(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]), np.eye(2))
    return k, space, obs


class TestSolve:
    def test_zero_misfit_returns_prior_mean(self, rng):
        k, space, obs = rank_deficient_setup()
        mean = rng.normal(size=3)
        g = rkhs_solve(space, mean, obs, obs.H @ mean)
        np.testing.assert_allclose(g, mean, atol=1e-12)

    def test_scalar_midpoint(self):
        space = DiscreteRkhs.from_factor(canonical_sqrt([[1.0]]))
        obs = ObservationModel([[1.0]], [[1.0]])
        assert rkhs_solve(space, [0.0], obs, [2.0])[0] == pytest.approx(1.0)

    def test_matches_qp_on_rank_deficient_kernel(self, rng):
        k, space, obs = rank_deficient_setup()
        mean = rng.normal(size=3)
        y = rng.normal(size=2)
        prior = GaussianLaw(mean, space.kernel_factor)
        _, qp_mean = solve_qp(build_qp(prior, obs, y))
        g = rkhs_solve(space, mean, obs, y)
        assert np.linalg.norm(g - qp_mean) <= 1e-10 * max(1.0, np.linalg.norm(qp_mean))

    def test_matches_conditioning(self, rng):
        k = random_psd(rng, 6, rank=3)
        mean = rng.normal(size=6)
        obs = ObservationModel(rng.normal(size=(4, 6)), random_psd(rng, 4) + np.eye(4))
        y = rng.normal(size=4)
        prior = GaussianLaw.from_moments(mean, k)
        space = DiscreteRkhs.from_factor(prior.cov_factor)
        g = rkhs_solve(space, mean, obs, y)
        exact = condition(prior, obs, y).mean
        assert np.linalg.norm(g - exact) <= 1e-8 * max(1.0, np.linalg.norm(exact))


class TestGeometry:
    def test_projector_independent_of_factor(self, rng):
        k = random_psd(rng, 5, rank=3)
        space = DiscreteRkhs.from_factor(canonical_sqrt(k))
        factor = canonical_sqrt(k)
        omega = random_orthogonal(rng, factor.rank)
        alt = canonicalize_factor(factor.factor @ omega)
        u, v = space.kernel_factor.basis(), alt.basis()
        assert np.linalg.norm(u @ u.T - v @ v.T) <= 1e-10

    def test_reproducing_identity_in_coordinates(self, rng):
        k = random_psd(rng, 5, rank=3)
        space = DiscreteRkhs.from_factor(canonical_sqrt(k))
        # <k_i, k_j> = (K K^+ K)_ij = K_ij for PSD K
        inner = k @ space.kernel_factor.pinv() @ k
        assert np.linalg.norm(inner - k) <= 1e-10 * max(1.0, np.linalg.norm(k))
