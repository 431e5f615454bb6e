import tracemalloc
import warnings

import numpy as np
import pytest

from enscgp import (DimensionError, DiscreteRkhs, Ensemble, GaussianLaw, NotSpdError,
                    ObservationModel, PsdFactor, build_qp, canonical_sqrt,
                    canonicalize_factor, condition, default_rank_tol, eig_psd,
                    enkf_mean_update, ens_cgp, ensemble_stats, kalman_gain,
                    gaussian, kernels, posterior_cov_via_hessian, psd, rkhs_solve)
from enscgp.experiments import make_instance
from enscgp.psd import _tril_solve

from conftest import random_psd


def scalar_instance():
    prior = GaussianLaw.from_moments([0.0], [[1.0]])
    obs = ObservationModel([[1.0]], [[1.0]])
    return prior, obs


def rank1_instance():
    factor = np.array([[1.0], [2.0], [0.5]])
    prior = GaussianLaw([0.0, 0.0, 0.0], canonical_sqrt(factor @ factor.T))
    obs = ObservationModel(np.eye(3), np.eye(3))
    return prior, obs


def brute_force_condition(prior, obs, y):
    """Independent oracle: dense joint Gaussian + generic Schur complement."""
    k = prior.covariance
    cov_fy = k @ obs.H.T
    cov_yy = obs.H @ k @ obs.H.T + obs.R
    solve = np.linalg.solve(cov_yy, np.eye(obs.n_obs))
    mean = prior.mean + cov_fy @ solve @ (y - obs.H @ prior.mean)
    cov = k - cov_fy @ solve @ cov_fy.T
    return mean, (cov + cov.T) / 2


def ensemble_instance(rng, n, members=40, m=50):
    """Rank members-1 ensemble prior with m noisy point observations."""
    truth = np.cumsum(rng.normal(size=n)) / np.sqrt(n)
    ens = Ensemble(truth[:, None] + rng.normal(size=(n, members)))
    h = np.zeros((m, n))
    h[np.arange(m), rng.choice(n, size=m, replace=False)] = 1.0
    obs = ObservationModel(h, 0.5 * np.eye(m))
    return ens, obs, h @ truth + np.sqrt(0.5) * rng.normal(size=m)


def dense_schur_cov(prior, obs):
    """Dense oracle K - K H^T (H K H^T + R)^(-1) H K."""
    k = prior.covariance
    kht = k @ obs.H.T
    cov = k - kht @ np.linalg.solve(obs.H @ kht + obs.R, kht.T)
    return (cov + cov.T) / 2


class TestObservationModel:
    def test_rejects_non_spd_noise(self):
        with pytest.raises(NotSpdError):
            ObservationModel([[1.0]], [[-1.0]])
        with pytest.raises(NotSpdError):
            ObservationModel(np.eye(2), np.zeros((2, 2)))

    def test_rejects_mismatched_noise(self):
        with pytest.raises(DimensionError):
            ObservationModel(np.eye(2), np.eye(3))

    def test_empty_model_allowed(self):
        obs = ObservationModel(np.zeros((0, 3)), np.zeros((0, 0)))
        assert obs.n_obs == 0 and obs.state_dim == 3

    def test_rejects_non_finite_operator_and_noise(self):
        # a NaN R used to be accepted with an all-NaN cached factor
        with pytest.raises(ValueError, match="infs or NaNs"):
            ObservationModel(np.eye(2), np.array([[1.0, 0.0], [0.0, np.nan]]))
        with pytest.raises(ValueError, match="infs or NaNs"):
            ObservationModel(np.array([[1.0, np.inf]]), np.eye(1))

    def test_noise_solve_rejects_non_finite_right_hand_side(self):
        # R's factor is checked once, when the model is built; b at every call
        obs = ObservationModel(np.eye(2), np.diag([1.0, 4.0]))
        np.testing.assert_array_equal(obs.noise_solve(np.array([1.0, 2.0])), [1.0, 0.5])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="infs or NaNs"):
                obs.noise_solve(np.array([1.0, bad]))

    def test_weighted_gram_and_noise_are_the_factor_expressions_bitwise(self, rng):
        b = rng.normal(size=(5, 5))
        obs = ObservationModel(rng.normal(size=(5, 4)), b @ b.T + np.eye(5))
        x = rng.normal(size=(5, 3))
        w = obs.whiten(x)
        assert w.tobytes() == _tril_solve(obs._noise_chol, x).tobytes()
        assert obs.weighted_gram(x).tobytes() == (w.T @ w).tobytes()
        assert obs.information().tobytes() == obs.weighted_gram(obs.H).tobytes()
        np.testing.assert_allclose(obs.weighted_gram(x), x.T @ np.linalg.solve(obs.R, x),
                                   rtol=1e-12)
        z = rng.normal(size=(5, 7))
        eta = obs.noise(z)
        assert eta.tobytes() == (np.tril(obs._noise_chol) @ z).tobytes()
        # the cached potrf factor keeps R's upper triangle; noise must drop it
        np.testing.assert_allclose(eta, np.linalg.cholesky(obs.R) @ z, rtol=1e-12)

    @pytest.mark.parametrize("cols", [3, 8, 0])
    @pytest.mark.parametrize("rows", [6, 2, 0])
    def test_weighted_gram_exactly_symmetric(self, rows, cols, rng):
        # tall, wide and zero-row X; no symmetrize pass follows the product
        b = rng.normal(size=(rows, rows))
        obs = ObservationModel(np.zeros((rows, 1)), b @ b.T + np.eye(rows))
        g = obs.weighted_gram(rng.normal(size=(rows, cols)))
        assert g.shape == (cols, cols)
        assert np.array_equal(g, g.T)
        if rows == 0:
            assert g.tobytes() == np.zeros((cols, cols)).tobytes()


class TestNonFiniteInputs:
    """Non-finite values are rejected where they enter, not carried into results."""

    def test_nan_covariance_is_not_a_point_mass(self):
        cov = np.eye(2)
        cov[0, 1] = cov[1, 0] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            GaussianLaw.from_moments(np.zeros(2), cov)

    def test_non_finite_mean_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="infs or NaNs"):
                GaussianLaw([0.0, bad], canonical_sqrt(np.eye(2)))

    def test_non_finite_data_rejected(self):
        prior, obs = rank1_instance()
        for bad in (np.nan, -np.inf):
            with pytest.raises(ValueError, match="infs or NaNs"):
                condition(prior, obs, [1.0, bad, 0.0])

    def test_overflowing_innovation_is_named_without_a_warning(self):
        # H and the prior are finite, but (H A)(H A)^T and H K H^T overflow
        prior = GaussianLaw.from_moments(np.zeros(2), np.eye(2))
        obs = ObservationModel([[1e300, 1e300]], [[1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for route in (lambda: condition(prior, obs, [1.0]),
                          lambda: kalman_gain(prior, obs)):
                with pytest.raises(ValueError,
                                   match=r"innovation covariance .* infs or NaNs"):
                    route()


class TestKalmanGain:
    def test_zero_prior_covariance(self):
        prior = GaussianLaw.from_moments(np.zeros(2), np.zeros((2, 2)))
        obs = ObservationModel(np.eye(2), np.eye(2))
        np.testing.assert_array_equal(kalman_gain(prior, obs), np.zeros((2, 2)))

    def test_scalar_equal_variance(self):
        prior, obs = scalar_instance()
        assert kalman_gain(prior, obs)[0, 0] == pytest.approx(0.5)

    def test_rank1_gain_range(self):
        prior, obs = rank1_instance()
        gain = kalman_gain(prior, obs)
        assert np.linalg.matrix_rank(gain) == 1
        # oracle: dense formula with a general-purpose solver
        k = prior.covariance
        dense = k @ np.linalg.solve(k + np.eye(3), np.eye(3))
        np.testing.assert_allclose(gain, dense, atol=1e-12)
        u = prior.cov_factor.basis()
        proj = u @ u.T
        assert np.linalg.norm(gain - proj @ gain) <= 1e-10 * np.linalg.norm(gain)

    def test_columns_confined_to_range(self, rng):
        for i in (1, 4, 7):
            prior, obs, _ = make_instance(i)
            gain = kalman_gain(prior, obs)
            u = prior.cov_factor.basis()
            proj = u @ u.T
            assert np.linalg.norm(gain - proj @ gain) <= 1e-10 * max(1.0, np.linalg.norm(gain))


class TestCondition:
    def test_scalar_midpoint(self):
        prior, obs = scalar_instance()
        post = condition(prior, obs, [2.0])
        assert post.mean[0] == pytest.approx(1.0)
        assert post.covariance[0, 0] == pytest.approx(0.5)

    def test_zero_covariance_returns_prior(self):
        prior = GaussianLaw.from_moments([1.0, -1.0], np.zeros((2, 2)))
        obs = ObservationModel(np.eye(2), np.eye(2))
        post = condition(prior, obs, [5.0, 5.0])
        np.testing.assert_array_equal(post.mean, prior.mean)
        np.testing.assert_array_equal(post.covariance, np.zeros((2, 2)))

    def test_rank_deficient_against_joint_schur(self):
        # m=(0,0), K=diag(1,0), H=(1 1), R=1, y=3
        prior = GaussianLaw.from_moments([0.0, 0.0], np.diag([1.0, 0.0]))
        obs = ObservationModel([[1.0, 1.0]], [[1.0]])
        post = condition(prior, obs, [3.0])
        np.testing.assert_allclose(post.mean, [1.5, 0.0], atol=1e-12)
        np.testing.assert_allclose(post.covariance, np.diag([0.5, 0.0]), atol=1e-12)
        mean_oracle, cov_oracle = brute_force_condition(prior, obs, np.array([3.0]))
        np.testing.assert_allclose(post.mean, mean_oracle, atol=1e-12)
        np.testing.assert_allclose(post.covariance, cov_oracle, atol=1e-12)

    def test_empty_observation_is_identity(self):
        prior = GaussianLaw.from_moments([1.0, 2.0], np.eye(2))
        obs = ObservationModel(np.zeros((0, 2)), np.zeros((0, 0)))
        assert condition(prior, obs, np.zeros(0)) is prior

    def test_posterior_rank_bounded_by_prior(self, rng):
        for i in range(0, 12):
            prior, obs, y = make_instance(i)
            assert condition(prior, obs, y).rank <= prior.rank

    def test_monotone_uncertainty(self, rng):
        for i in range(0, 18, 3):
            prior, obs, y = make_instance(i)
            post = condition(prior, obs, y)
            before = np.sort(np.linalg.eigvalsh(prior.covariance))[::-1]
            after = np.sort(np.linalg.eigvalsh(post.covariance))[::-1]
            assert np.all(after <= before + 1e-10)

    def test_range_confinement(self):
        for i in range(9):
            prior, obs, y = make_instance(i)
            post = condition(prior, obs, y)
            shift = post.mean - prior.mean
            u = prior.cov_factor.basis()
            proj = u @ u.T
            leak = np.linalg.norm(shift - proj @ shift)
            assert leak <= 1e-10 * max(1.0, np.linalg.norm(shift))

    def test_agrees_with_brute_force_on_random_instances(self):
        for i in range(12):
            prior, obs, y = make_instance(i, base_seed=99)
            post = condition(prior, obs, y)
            mean_oracle, cov_oracle = brute_force_condition(prior, obs, y)
            scale = max(1.0, np.linalg.norm(mean_oracle))
            assert np.linalg.norm(post.mean - mean_oracle) <= 1e-8 * scale
            assert np.linalg.norm(post.covariance - cov_oracle) <= 1e-8 * max(
                1.0, np.linalg.norm(cov_oracle))


class TestConditionInRangeBasis:
    def test_low_rank_prior_needs_only_rank_sized_eigenwork(self, rng, monkeypatch):
        ens, obs, y = ensemble_instance(rng, 2000)
        prior = ensemble_stats(ens)
        r = prior.rank
        shapes = []
        dsyevd = psd.dsyevd

        def spy_dsyevd(matrix, *args, **kwargs):
            shapes.append(np.shape(matrix))
            return dsyevd(matrix, *args, **kwargs)

        def no_eigh(*args, **kwargs):
            raise AssertionError("an eigendecomposition bypassed psd.dsyevd")

        def no_gram(self):
            raise AssertionError("condition formed a dense n x n covariance")

        monkeypatch.setattr(psd, "dsyevd", spy_dsyevd)
        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        monkeypatch.setattr(PsdFactor, "gram", no_gram)
        post = condition(prior, obs, y)
        assert r == 39 and post.rank == r
        assert shapes and all(shape[0] <= r and shape[1] <= r for shape in shapes)

    @pytest.mark.parametrize("n", [500, 2000])
    def test_agrees_with_dense_schur(self, rng, n):
        ens, obs, y = ensemble_instance(rng, n)
        prior = ensemble_stats(ens)
        oracle = dense_schur_cov(prior, obs)
        cov = condition(prior, obs, y).covariance
        assert np.linalg.norm(cov - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_rank_rule_is_that_of_the_dense_posterior(self, rng):
        # one posterior eigenvalue ~1e-14 of the prior scale: above r*eps,
        # below n*eps, so only the n-sized default cutoff drops it
        n = 1000
        basis = np.linalg.qr(rng.normal(size=(n, 2)))[0]
        prior = GaussianLaw(np.zeros(n), canonicalize_factor(basis * np.sqrt([1.0, 0.5])))
        obs = ObservationModel(basis[:, 1:].T, [[1e-14]])
        post = condition(prior, obs, [0.3])
        dense = dense_schur_cov(prior, obs)
        lam_max = float(prior.cov_factor.eigenvalues[0])
        small = eig_psd(basis.T @ dense @ basis, default_rank_tol(2), scale_floor=lam_max)[0]
        assert 2 * default_rank_tol(2) < small[-1] / lam_max < default_rank_tol(n) / 2
        assert post.rank == eig_psd(dense, scale_floor=lam_max)[0].size == 1

    def test_ens_cgp_mean_agrees_with_the_gain_form_mean(self, rng):
        # condition shares no arithmetic with kalman_gain beyond the inputs,
        # so the two evaluations of one formula agree to round-off only
        ens, obs, y = ensemble_instance(rng, 300)
        update = enkf_mean_update(ensemble_stats(ens), obs, y)
        mean = ens_cgp(ens, obs, y).mean
        assert np.linalg.norm(mean - update) <= 1e-12 * np.linalg.norm(update)

    def test_innovation_not_spd_is_one_error_for_both_routes(self):
        # R's diagonal is lost to round-off against (H A)(H A)^T = 1e16 ones
        prior = GaussianLaw(np.zeros(1), canonicalize_factor([[1e8]]))
        obs = ObservationModel([[1.0], [1.0]], 1e-10 * np.eye(2))
        for route in (lambda: condition(prior, obs, [0.0, 0.0]),
                      lambda: kalman_gain(prior, obs)):
            with pytest.raises(NotSpdError, match="innovation covariance"):
                route()

    def test_forms_no_gain(self, rng, monkeypatch):
        def no_gain(*args, **kwargs):
            raise AssertionError("condition went through the Kalman gain")

        ens, obs, y = ensemble_instance(rng, 300)
        prior = ensemble_stats(ens)
        expected = condition(prior, obs, y)
        monkeypatch.setattr(gaussian, "kalman_gain", no_gain)
        monkeypatch.setattr(gaussian, "_chol_solve", no_gain)
        post = condition(prior, obs, y)
        assert post.mean.tobytes() == expected.mean.tobytes()

    def test_memory_is_rank_and_observation_sized(self, rng):
        # at the gain route's cost, K H^T alone is n m doubles, about 7.6 MiB
        n, m, r = 5000, 200, 4
        prior = GaussianLaw(rng.normal(size=n),
                            canonicalize_factor(rng.normal(size=(n, r))))
        h = np.zeros((m, n))
        h[np.arange(m), rng.choice(n, size=m, replace=False)] = 1.0
        obs = ObservationModel(h, 0.1 * np.eye(m))
        y = rng.normal(size=m)
        tracemalloc.start()
        try:
            post = condition(prior, obs, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert post.rank == r
        assert peak < 4 * 8 * (n * r + m * m), f"peak {peak / 2**20:.2f} MiB"


def assert_hessian_core_matches_schur(prior, obs, y):
    """The Hessian core equals the Schur core, and U core U^T equals
    condition's covariance, to a relative 1e-8."""
    hess = posterior_cov_via_hessian(prior, obs)
    assert hess.shape == (prior.rank, prior.rank)
    schur_core = gaussian._schur_core(prior, obs, y)[1]
    assert np.linalg.norm(schur_core - hess) <= 1e-8 * max(1.0, np.linalg.norm(hess))
    u = prior.cov_factor.basis()
    schur = condition(prior, obs, y).covariance
    assert np.linalg.norm(schur - u @ hess @ u.T) <= 1e-8 * max(1.0, np.linalg.norm(schur))


class TestPosteriorCovViaHessian:
    """The Hessian route gives an r x r core in the prior's range basis U."""

    def test_scalar(self):
        prior, obs = scalar_instance()
        np.testing.assert_allclose(posterior_cov_via_hessian(prior, obs), [[0.5]])

    def test_no_data_returns_prior_cov(self):
        prior = GaussianLaw.from_moments(np.zeros(2), np.eye(2))
        obs = ObservationModel(np.zeros((1, 2)), [[1.0]])
        core = posterior_cov_via_hessian(prior, obs)
        np.testing.assert_allclose(core, np.diag(prior.cov_factor.eigenvalues), atol=1e-12)
        u = prior.cov_factor.basis()
        np.testing.assert_allclose(u @ core @ u.T, np.eye(2), atol=1e-12)

    def test_rank1_matches_schur(self):
        assert_hessian_core_matches_schur(*rank1_instance(), np.array([1.0, 0.0, 2.0]))

    def test_matches_schur_on_random_instances(self):
        for i in range(15):
            assert_hessian_core_matches_schur(*make_instance(i, base_seed=7))

    def test_matches_the_inverse_factors_gram_product(self):
        """The core is X^T X, X = L^(-1) from a triangular solve: bitwise
        below psd._POTRI_MIN (the 300 corpus instances and a low-rank
        squared-exponential prior), and to a relative 1e-14 from potri on a
        full-rank exponential kernel prior."""
        instances = [make_instance(i) for i in range(300)]
        points = np.linspace(0.0, 1.0, 300)
        observed = np.eye(300)[::10]
        for family, lengthscale in (("exponential", 0.3), ("squared-exponential", 0.2)):
            gram = kernels.gram_matrix(kernels.KernelSpec(family, 1.0, lengthscale), points)
            instances.append((GaussianLaw.from_moments(np.zeros(300), gram),
                              ObservationModel(observed, 0.01 * np.eye(30)), None))
        assert max(prior.rank for prior, _, _ in instances) >= psd._POTRI_MIN
        for prior, obs, _ in instances:
            chol = gaussian._restricted_hessian(prior.cov_factor, obs)
            x = _tril_solve(chol, np.eye(prior.rank))
            core = posterior_cov_via_hessian(prior, obs, hessian_chol=chol)
            if prior.rank < psd._POTRI_MIN:
                assert core.tobytes() == (x.T @ x).tobytes()
            else:
                assert psd._norm(core - x.T @ x) <= 1e-14 * psd._norm(x.T @ x)


class TestMarginalConsistency:
    def test_condition_commutes_with_marginalization(self, rng):
        # H supported on the subset: conditioning then marginalizing equals
        # marginalizing then conditioning with the restricted model
        n, m = 6, 3
        idx = np.array([0, 2, 5])
        k = random_psd(rng, n, rank=4)
        prior = GaussianLaw.from_moments(rng.normal(size=n), k)
        h = np.zeros((m, n))
        h[:, idx] = rng.normal(size=(m, idx.size))
        r = random_psd(rng, m) + np.eye(m)
        y = rng.normal(size=m)
        obs = ObservationModel(h, r)

        sub = np.ix_(idx, idx)
        post = condition(prior, obs, y)
        route_a = GaussianLaw.from_moments(post.mean[idx], post.covariance[sub])
        obs_sub = ObservationModel(h[:, idx], r)
        route_b = condition(GaussianLaw.from_moments(prior.mean[idx], prior.covariance[sub]),
                            obs_sub, y)

        np.testing.assert_allclose(route_a.mean, route_b.mean, atol=1e-10)
        np.testing.assert_allclose(route_a.covariance, route_b.covariance, atol=1e-10)


def assert_bits(actual, expected):
    """Same shape and the same bits, so zero signs count."""
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes(), (actual, expected)


class TestDegenerateShapes:
    """Every R-applying route over m in {0, 1, 3} and prior rank in {0, 1, n}.

    Zero observations and rank-0 priors go through the same products as any
    other shape: empty sums give +0.0 zeros, and early returns keep the
    prior mean's -0.0 entries. n = 3, R = 4 I and dyadic factors keep most
    results exact, so the arrays are written out bit for bit.
    """

    MEAN = np.array([-0.0, 1.0, -0.0])
    FACTORS = {0: np.zeros((3, 0)), 1: np.array([[2.0], [0.0], [0.0]]),
               3: np.diag([2.0, 1.0, 0.5])}
    H = {0: np.zeros((0, 3)), 1: np.array([[1.0, 1.0, 1.0]]), 3: np.eye(3)}
    Y = {0: np.zeros(0), 1: np.array([3.0]), 3: np.array([1.0, 3.0, -2.0])}
    # per m: information, R^(-1) y, q, c
    BY_M = {0: (np.zeros((3, 3)), np.zeros(0), [0.0, 0.0, 0.0], 0.0),
            1: (np.full((3, 3), 0.25), [0.75], [-0.5, -0.5, -0.5], 0.5),
            3: (0.25 * np.eye(3), [0.25, 0.75, -0.5], [-0.25, -0.5, 0.5], 1.125)}
    # per (m, rank) with m > 0 and rank > 0: reduced Gram, Hessian covariance
    # core (in the range basis, which is e_1 at rank 1 and I at rank 3),
    # posterior mean (RKHS and Schur agree bitwise here), posterior eigenvalues
    SOLVED = {
        (1, 1): ([[1.0]], [[1.9999999999999996]],
                 [0.9999999999999998, 1.0, 0.0], [2.0000000000000004]),
        (3, 1): ([[1.0]], [[1.9999999999999996]],
                 [0.4999999999999999, 1.0, 0.0], [2.0000000000000004]),
        (3, 3): (np.diag([1.0, 0.25, 0.0625]),
                 np.diag([1.9999999999999996, 0.7999999999999999, 0.23529411764705882]),
                 [0.4999999999999999, 1.4, -0.11764705882352941],
                 [2.0000000000000004, 0.8, 0.23529411764705882]),
    }

    def instance(self, m, rank):
        f = self.FACTORS[rank]
        prior = GaussianLaw(self.MEAN, PsdFactor(f, np.sum(f * f, axis=0)))
        return prior, ObservationModel(self.H[m], 4.0 * np.eye(m)), self.Y[m]

    @pytest.mark.parametrize("m", [0, 1, 3])
    @pytest.mark.parametrize("rank", [0, 1, 3])
    def test_zero_size_shapes_are_pinned(self, m, rank):
        prior, obs, y = self.instance(m, rank)
        info, rinv_y, q, c = self.BY_M[m]
        assert_bits(obs.information(), info)
        assert_bits(obs.noise_solve(y), rinv_y)
        qp = build_qp(prior, obs, y)
        assert_bits(qp.q, q)
        assert qp.c == c and not np.signbit(qp.c)
        hess_core = posterior_cov_via_hessian(prior, obs)
        rkhs_mean = rkhs_solve(DiscreteRkhs.from_factor(prior.cov_factor), self.MEAN, obs, y)
        post = condition(prior, obs, y)
        if m == 0:
            assert_bits(qp.reduced_gram, np.zeros((rank, rank)))
            assert_bits(hess_core, np.diag(prior.cov_factor.eigenvalues))
            assert_bits(rkhs_mean, self.MEAN)
            assert post is prior
        elif rank == 0:
            assert_bits(qp.reduced_gram, np.zeros((0, 0)))
            assert_bits(hess_core, np.zeros((0, 0)))
            assert_bits(rkhs_mean, self.MEAN)
            # the gain-form update adds a +0.0 shift to the -0.0 entries
            assert_bits(post.mean, [0.0, 1.0, 0.0])
            assert post.rank == 0
        elif (m, rank) in self.SOLVED:
            gram, core, mean, eigenvalues = self.SOLVED[m, rank]
            assert_bits(qp.reduced_gram, gram)
            assert_bits(hess_core, core)
            assert_bits(rkhs_mean, mean)
            assert_bits(post.mean, mean)
            assert_bits(post.cov_factor.eigenvalues, eigenvalues)
        else:
            # one dense observation of a full-rank prior: no zeros to pin,
            # so the eigendecomposed results are checked to round-off
            assert_bits(qp.reduced_gram, [[1.0, 0.5, 0.25], [0.5, 0.25, 0.125],
                                          [0.25, 0.125, 0.0625]])
            expected_cov = [[2.2702702702702697, -0.4324324324324324, -0.1081081081081081],
                            [-0.4324324324324324, 0.8918918918918921, -0.027027027027027046],
                            [-0.1081081081081081, -0.027027027027027046, 0.2432432432432433]]
            expected_mean = [0.8648648648648649, 1.2162162162162162, 0.05405405405405406]
            # the range basis is I, so the core is the covariance
            np.testing.assert_allclose(hess_core, expected_cov, rtol=1e-13)
            np.testing.assert_allclose(post.covariance, expected_cov, rtol=1e-13)
            np.testing.assert_allclose(rkhs_mean, expected_mean, rtol=1e-13)
            np.testing.assert_allclose(post.mean, expected_mean, rtol=1e-13)
