import numpy as np
import pytest

from enscgp import (GaussianLaw, InfeasiblePointError, ObservationModel, build_qp,
                    condition, gradient, hessian, objective, solve_qp)
from enscgp.experiments import make_instance


def scalar_qp(y=2.0):
    prior = GaussianLaw.from_moments([0.0], [[1.0]])
    obs = ObservationModel([[1.0]], [[1.0]])
    return build_qp(prior, obs, [y]), prior, obs


def rank_deficient_instance():
    prior = GaussianLaw.from_moments(np.zeros(3), np.diag([2.0, 1.0, 0.0]))
    obs = ObservationModel(np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 1.0]]),
                           np.diag([0.5, 2.0]))
    y = np.array([1.0, -2.0])
    return prior, obs, y


class TestBuildQp:
    def test_scalar_coefficients(self):
        # hand evaluation: Q = 1/1 + 1*1/1 = 2, q = -1*(1/1)*2 = -2, c = 0.5*4 = 2
        qp, _, _ = scalar_qp()
        assert qp.Q[0, 0] == pytest.approx(2.0)
        assert qp.q[0] == pytest.approx(-2.0)
        assert qp.c == pytest.approx(2.0)

    def test_unobserved_components_of_q_are_positive_zero(self):
        # q = H^T (-R^(-1) d): a zero column of H gives a sum of zero
        # products, which is +0.0 with or without data
        prior = GaussianLaw.from_moments(np.zeros(3), np.eye(3))
        for h, y in ((np.array([[1.0, 0.0, 0.0]]), [2.0]), (np.zeros((0, 3)), [])):
            qp = build_qp(prior, ObservationModel(h, np.eye(h.shape[0])), y)
            assert not np.signbit(qp.q[1:]).any()

    def test_zero_data_shift(self):
        prior = GaussianLaw.from_moments([1.0, 2.0], np.eye(2))
        obs = ObservationModel(np.eye(2), np.eye(2))
        qp = build_qp(prior, obs, obs.H @ prior.mean)
        np.testing.assert_array_equal(qp.q, np.zeros(2))
        assert qp.c == 0.0
        x_star, m_post = solve_qp(qp)
        np.testing.assert_array_equal(x_star, np.zeros(2))
        np.testing.assert_array_equal(m_post, prior.mean)

    def test_zero_observation_matrix(self):
        k = np.diag([2.0, 1.0])
        prior = GaussianLaw.from_moments([3.0, -1.0], k)
        obs = ObservationModel(np.zeros((2, 2)), np.eye(2))
        qp = build_qp(prior, obs, np.ones(2))
        np.testing.assert_allclose(qp.Q, np.diag([0.5, 1.0]), atol=1e-14)
        np.testing.assert_array_equal(qp.q, np.zeros(2))
        x_star, m_post = solve_qp(qp)
        np.testing.assert_array_equal(x_star, np.zeros(2))
        np.testing.assert_array_equal(m_post, prior.mean)


class TestObjectiveInvariants:
    def test_assembled_matrix_matches_definition(self):
        prior, obs, y = rank_deficient_instance()
        qp = build_qp(prior, obs, y)
        r_inv = np.linalg.inv(obs.R)
        expected = (np.linalg.pinv(prior.covariance, hermitian=True)
                    + obs.H.T @ r_inv @ obs.H)
        assert np.linalg.norm(qp.Q - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_restricted_matrix_is_spd(self):
        prior, obs, y = rank_deficient_instance()
        qp = build_qp(prior, obs, y)
        u = qp.cov_factor.basis()
        restricted = u.T @ qp.Q @ u
        assert np.all(np.linalg.eigvalsh(restricted) > 0)

    def test_constant_term_nonnegative(self, rng):
        for _ in range(5):
            prior, obs, _ = rank_deficient_instance()
            qp = build_qp(prior, obs, rng.normal(size=2))
            assert qp.c >= 0.0

    def test_restricted_hessian_inverse_is_posterior_covariance(self):
        prior, obs, y = rank_deficient_instance()
        qp = build_qp(prior, obs, y)
        u = qp.cov_factor.basis()
        restricted = u.T @ hessian(qp) @ u
        recon = u @ np.linalg.inv(restricted) @ u.T
        exact = condition(prior, obs, y).covariance
        assert np.linalg.norm(recon - exact) <= 1e-8 * max(1.0, np.linalg.norm(exact))


class TestSolveQp:
    def test_scalar(self):
        qp, _, _ = scalar_qp()
        x_star, m_post = solve_qp(qp)
        assert x_star[0] == pytest.approx(1.0)
        assert m_post[0] == pytest.approx(1.0)

    def test_residual_on_range(self):
        prior, obs, y = rank_deficient_instance()
        qp = build_qp(prior, obs, y)
        x_star, _ = solve_qp(qp)
        residual = qp.cov_factor.basis().T @ (qp.Q @ x_star + qp.q)
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(qp.q)

    def test_matches_conditioning(self):
        prior, obs, y = rank_deficient_instance()
        _, m_post = solve_qp(build_qp(prior, obs, y))
        exact = condition(prior, obs, y).mean
        assert np.linalg.norm(m_post - exact) <= 1e-8 * max(1.0, np.linalg.norm(exact))

    def test_matches_conditioning_on_corpus_slice(self):
        for i in range(10):
            prior, obs, y = make_instance(i, base_seed=31)
            _, m_post = solve_qp(build_qp(prior, obs, y))
            exact = condition(prior, obs, y).mean
            assert np.linalg.norm(m_post - exact) <= 1e-8 * max(1.0, np.linalg.norm(exact))


class TestObjective:
    def test_value_at_origin_is_constant_term(self):
        qp, _, _ = scalar_qp()
        assert objective(qp, np.zeros(1)) == pytest.approx(qp.c)

    def test_scalar_hand_value(self):
        qp, _, _ = scalar_qp()
        # 0.5*2*1 - 2 + 2 = 1
        assert objective(qp, np.array([1.0])) == pytest.approx(1.0)

    def test_minimum_among_feasible_perturbations(self, rng):
        prior, obs, y = rank_deficient_instance()
        qp = build_qp(prior, obs, y)
        x_star, _ = solve_qp(qp)
        base = objective(qp, x_star)
        for _ in range(10):
            delta = qp.cov_factor.factor @ rng.normal(size=qp.rank) * 0.1
            assert objective(qp, x_star + delta) >= base - 1e-12

    def test_decomposition_identity(self, rng):
        # 1/2 x^T Q x + q^T x + c equals the misfit + prior-penalty form
        prior, obs, y = rank_deficient_instance()
        qp = build_qp(prior, obs, y)
        k_pinv = prior.cov_factor.pinv()
        r_inv = np.linalg.inv(obs.R)
        for _ in range(5):
            x = qp.cov_factor.factor @ rng.normal(size=qp.rank)
            direct = objective(qp, x)
            misfit = qp.data_shift - obs.H @ x
            split = 0.5 * misfit @ r_inv @ misfit + 0.5 * x @ k_pinv @ x
            assert abs(direct - split) <= 1e-10 * max(1.0, abs(direct))

    def test_rejects_infeasible_point(self):
        prior, obs, y = rank_deficient_instance()
        qp = build_qp(prior, obs, y)
        with pytest.raises(InfeasiblePointError):
            objective(qp, np.array([0.0, 0.0, 1.0]))  # e3 is in Null(K)


class TestGradient:
    def test_vanishes_at_minimizer(self):
        prior, obs, y = rank_deficient_instance()
        qp = build_qp(prior, obs, y)
        x_star, _ = solve_qp(qp)
        grad = gradient(qp, x_star)
        # stationarity holds on Range(K); off-range components of q persist
        on_range = qp.cov_factor.basis().T @ grad
        assert np.linalg.norm(on_range) <= 1e-10 * np.linalg.norm(qp.q)

    def test_vanishes_fully_for_spd_prior(self, rng):
        k = rng.normal(size=(3, 3))
        prior = GaussianLaw.from_moments(rng.normal(size=3), k @ k.T + np.eye(3))
        obs = ObservationModel(rng.normal(size=(2, 3)), np.eye(2))
        qp = build_qp(prior, obs, rng.normal(size=2))
        x_star, _ = solve_qp(qp)
        assert np.linalg.norm(gradient(qp, x_star)) <= 1e-10 * np.linalg.norm(qp.q)

    def test_at_origin_equals_linear_term(self):
        qp, _, _ = scalar_qp()
        np.testing.assert_array_equal(gradient(qp, np.zeros(1)), qp.q)

    def test_finite_difference_oracle(self, rng):
        prior, obs, y = rank_deficient_instance()
        qp = build_qp(prior, obs, y)
        basis = qp.cov_factor.basis()
        for _ in range(5):
            x = qp.cov_factor.factor @ rng.normal(size=qp.rank)
            step = 1e-5 * (1.0 + np.linalg.norm(x))
            fd = np.array([
                (objective(qp, x + step * basis[:, j]) -
                 objective(qp, x - step * basis[:, j])) / (2 * step)
                for j in range(basis.shape[1])
            ])
            analytic = basis.T @ gradient(qp, x)
            assert np.linalg.norm(fd - analytic) <= 1e-6 * max(1.0, np.linalg.norm(analytic))


class TestHessian:
    def test_constant_and_bitwise_identical(self):
        prior, obs, y = rank_deficient_instance()
        qp = build_qp(prior, obs, y)
        h1, h2 = hessian(qp), hessian(qp)
        assert h1.tobytes() == h2.tobytes()

    def test_no_data_gives_pseudoinverse(self):
        k = np.diag([2.0, 1.0])
        prior = GaussianLaw.from_moments(np.zeros(2), k)
        obs = ObservationModel(np.zeros((1, 2)), [[1.0]])
        qp = build_qp(prior, obs, [0.0])
        np.testing.assert_allclose(hessian(qp), np.diag([0.5, 1.0]), atol=1e-14)

    def test_scalar_value(self):
        qp, _, _ = scalar_qp()
        assert hessian(qp)[0, 0] == pytest.approx(2.0)
