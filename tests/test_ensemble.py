import warnings

import numpy as np
import pytest

from enscgp import (DimensionError, Ensemble, GaussianLaw, NormalStream,
                    ObservationModel, canonicalize_factor, condition,
                    enkf_mean_update, enkf_perturbed_obs, ens_cgp, ensemble_stats,
                    kalman_gain, psd)
from enscgp.rng import blocked_normals

from conftest import random_orthogonal, random_psd


def scalar_obs():
    return ObservationModel([[1.0]], [[1.0]])


def perturbed(ens, obs, y, seed, **kwargs):
    """The perturbed update with the ensemble's own gain, as its callers use it."""
    gain = kalman_gain(ensemble_stats(ens), obs)
    return enkf_perturbed_obs(ens, obs, y, gain, seed, **kwargs)


class TestEnsembleType:
    def test_rejects_single_member(self):
        with pytest.raises(ValueError):
            Ensemble(np.zeros((3, 1)))

    def test_rejects_non_finite(self):
        members = np.ones((2, 3))
        members[1, 2] = np.nan
        with pytest.raises(ValueError):
            Ensemble(members)


class TestEnsembleStats:
    def test_identical_members_have_zero_spread(self):
        ens = Ensemble(np.ones((3, 2)))
        prior = ensemble_stats(ens)
        np.testing.assert_array_equal(prior.mean, np.ones(3))
        assert prior.rank == 0 and prior.cov_factor.factor.shape == (3, 0)

    def test_two_member_hand_value(self):
        # members 0 and 2: mean 1, K = ((0-1)^2 + (2-1)^2) / 1 = 2
        prior = ensemble_stats(Ensemble(np.array([[0.0, 2.0]])))
        assert prior.mean[0] == pytest.approx(1.0)
        assert prior.covariance[0, 0] == pytest.approx(2.0)

    def test_gram_matches_empirical_covariance(self, rng):
        members = rng.normal(size=(5, 12))
        prior = ensemble_stats(Ensemble(members))
        emp = np.cov(members)  # divisor E-1
        assert np.linalg.norm(prior.covariance - emp) <= 1e-12 * np.linalg.norm(emp)

    def test_rank_bound(self, rng):
        for n_members in (2, 3, 5):
            members = rng.normal(size=(8, n_members))
            assert ensemble_stats(Ensemble(members)).rank <= n_members - 1

    def test_mean_of_members_whose_sum_overflows_is_finite(self):
        """A row whose sum overflows is averaged scaled by a power of two; the
        other rows keep the plain mean's bits, and numpy raises no warning."""
        members = np.array([[1.5e308, 1.5e308], [-1.7e308, -1.7e308], [0.1, 0.7]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            law = ensemble_stats(Ensemble(members))
        assert law.mean.tolist() == [1.5e308, -1.7e308, members[2].mean()]
        assert law.rank == 1

    def test_anomaly_whose_difference_overflows_is_scaled(self, monkeypatch):
        """A row whose f_e - mean overflows, though its anomaly does not, is
        recomputed scaled by a power of two; the other rows keep the plain
        formula's bits, numpy raises no warning, and the anomaly's
        overflowing Gram matrix is the named error."""
        members = np.array([[1.4e308, -1.4e308, -1.4e308], [0.1, 0.7, -0.3]])
        factored = []
        real = psd.canonicalize_factor
        monkeypatch.setattr(psd, "canonicalize_factor",
                            lambda a, tol=None: factored.append(a.copy()) or real(a, tol))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="Gram matrix overflows"):
                ensemble_stats(Ensemble(members))
        (anomaly,) = factored
        mean = members.mean(axis=1)
        mean[0] = -members[0, 0] / 3.0  # the mean of 1.4e308 and twice -1.4e308
        assert anomaly[1].tobytes() == ((members[1] - mean[1]) / np.sqrt(2)).tobytes()
        # halving is exact, so this is the anomaly row in range
        expected = (members[0] / 2 - mean[0] / 2) / np.sqrt(2) * 2
        np.testing.assert_allclose(anomaly[0], expected, rtol=2e-16)
        assert np.isfinite(anomaly).all()

    def test_monte_carlo_recovers_generating_covariance(self):
        k0 = np.array([[2.0, 0.6], [0.6, 1.0]])
        chol = np.linalg.cholesky(k0)
        z = NormalStream(42).normals((2, 10_000))
        emp = ensemble_stats(Ensemble(chol @ z)).covariance
        assert np.linalg.norm(emp - k0) <= 0.05 * np.linalg.norm(k0)


class TestEnsCgp:
    def test_zero_spread_keeps_point_mass(self):
        ens = Ensemble(np.full((2, 3), 5.0))
        post = ens_cgp(ens, ObservationModel(np.eye(2), np.eye(2)), [0.0, 0.0])
        np.testing.assert_array_equal(post.mean, [5.0, 5.0])
        assert post.rank == 0

    def test_definitional_pass_through(self, rng):
        # conditioning with the ensemble's own empirical moments
        members = rng.normal(size=(3, 20))
        ens = Ensemble(members)
        obs = ObservationModel(rng.normal(size=(2, 3)), random_psd(rng, 2) + np.eye(2))
        y = rng.normal(size=2)
        via_ens = ens_cgp(ens, obs, y)
        via_law = condition(ensemble_stats(ens), obs, y)
        np.testing.assert_allclose(via_ens.mean, via_law.mean, atol=1e-13)
        np.testing.assert_allclose(via_ens.covariance, via_law.covariance, atol=1e-13)

    def test_shift_confined_to_anomaly_span(self, rng):
        members = rng.normal(size=(5, 3))
        ens = Ensemble(members)
        obs = ObservationModel(np.eye(5), np.eye(5))
        y = rng.normal(size=5)
        post = ens_cgp(ens, obs, y)
        shift = post.mean - members.mean(axis=1)
        # oracle: explicit orthogonal complement of the anomaly span
        anomaly = members - members.mean(axis=1, keepdims=True)
        u, s, _ = np.linalg.svd(anomaly, full_matrices=True)
        complement = u[:, (s > 1e-12).sum():]
        assert np.linalg.norm(complement.T @ shift) <= 1e-10 * max(1.0, np.linalg.norm(shift))


class TestMeanUpdate:
    def test_zero_innovation(self, rng):
        members = rng.normal(size=(3, 6))
        prior = ensemble_stats(Ensemble(members))
        obs = ObservationModel(rng.normal(size=(2, 3)), np.eye(2))
        update = enkf_mean_update(prior, obs, obs.H @ prior.mean)
        np.testing.assert_allclose(update, prior.mean, atol=1e-13)

    def test_zero_spread(self):
        prior = ensemble_stats(Ensemble(np.full((2, 4), 3.0)))
        obs = ObservationModel(np.eye(2), np.eye(2))
        np.testing.assert_array_equal(enkf_mean_update(prior, obs, [9.0, 9.0]),
                                      [3.0, 3.0])

    def test_scalar_midpoint(self):
        prior = ensemble_stats(Ensemble(np.array([[-1.0, 1.0]])))
        # empirical mean 0, K = 2; gain 2/3; y = 2 -> update 4/3
        update = enkf_mean_update(prior, scalar_obs(), [2.0])
        assert update[0] == pytest.approx(4.0 / 3.0)

    def test_equals_ens_cgp_mean(self, rng):
        members = rng.normal(size=(6, 4))
        ens = Ensemble(members)
        obs = ObservationModel(rng.normal(size=(3, 6)), random_psd(rng, 3) + np.eye(3))
        y = rng.normal(size=3)
        update = enkf_mean_update(ensemble_stats(ens), obs, y)
        post = ens_cgp(ens, obs, y)
        assert np.linalg.norm(update - post.mean) <= 1e-10 * max(1.0, np.linalg.norm(update))


class TestPerturbedObs:
    def test_disabled_perturbations_match_mean_update(self, rng):
        members = rng.normal(size=(4, 15))
        ens = Ensemble(members)
        obs = ObservationModel(rng.normal(size=(2, 4)), np.eye(2))
        y = rng.normal(size=2)
        updated = perturbed(ens, obs, y, seed=0, perturb=False)
        exact = enkf_mean_update(ensemble_stats(ens), obs, y)
        np.testing.assert_allclose(updated.members.mean(axis=1), exact, atol=1e-13)

    def test_centered_perturbations_match_mean_update(self, rng):
        members = rng.normal(size=(3, 25))
        ens = Ensemble(members)
        obs = ObservationModel(rng.normal(size=(2, 3)), np.eye(2))
        y = rng.normal(size=2)
        updated = perturbed(ens, obs, y, seed=4, center_perturbations=True)
        exact = enkf_mean_update(ensemble_stats(ens), obs, y)
        np.testing.assert_allclose(updated.members.mean(axis=1), exact, atol=1e-12)

    def test_zero_spread_leaves_members_unchanged(self):
        ens = Ensemble(np.full((2, 5), 1.5))
        obs = ObservationModel(np.eye(2), np.eye(2))
        updated = perturbed(ens, obs, [7.0, 7.0], seed=3)
        np.testing.assert_array_equal(updated.members, ens.members)

    def test_seed_determinism_bitwise(self, rng):
        ens = Ensemble(rng.normal(size=(3, 10)))
        obs = ObservationModel(rng.normal(size=(2, 3)), np.eye(2))
        y = rng.normal(size=2)
        a = perturbed(ens, obs, y, seed=11)
        b = perturbed(ens, obs, y, seed=11)
        assert a.members.tobytes() == b.members.tobytes()

    def test_member_update_depends_only_on_seed_and_index(self, rng):
        # serial batch equals the per-member substream computation; the noise
        # draws are bitwise equal, the linear algebra to BLAS round-off
        ens = Ensemble(rng.normal(size=(2, 6)))
        obs = ObservationModel(rng.normal(size=(3, 2)), np.diag([1.0, 2.0, 0.5]))
        y = rng.normal(size=3)
        updated = perturbed(ens, obs, y, seed=21)
        batch = blocked_normals(21, 3, ens.size)
        gain = kalman_gain(ensemble_stats(ens), obs)
        chol = np.linalg.cholesky(obs.R)
        for e in range(ens.size):
            # member e's draws are column e of every batch that holds it
            draws = blocked_normals(21, 3, e + 1)[:, e]
            assert draws.tobytes() == batch[:, e].tobytes()
            eta = chol @ draws
            member = ens.members[:, e] + gain @ (y + eta - obs.H @ ens.members[:, e])
            np.testing.assert_allclose(updated.members[:, e], member,
                                       rtol=1e-14, atol=1e-15)

    def test_updated_covariance_approaches_posterior(self):
        # E = 1e4: empirical covariance of updated members within 10% of exact
        z = NormalStream(5).normals((1, 10_000))
        z = (z - z.mean()) / z.std(ddof=1)
        ens = Ensemble(z)
        obs = scalar_obs()
        post = ens_cgp(ens, obs, [2.0])
        updated = perturbed(ens, obs, [2.0], seed=5)
        emp = np.cov(updated.members)
        exact = post.covariance[0, 0]
        assert abs(float(emp) - exact) <= 0.10 * exact

    def test_perturbations_use_the_cached_noise_factor_bitwise(self):
        # a dense 40x40 R on which numpy's cholesky and LAPACK's potrf (the
        # factor ObservationModel caches) differ in the last bits on x86-64
        # OpenBLAS; the update must draw eta through the cached factor
        rng = np.random.default_rng(0)
        m, n, size = 40, 8, 12
        b = rng.normal(size=(m, m))
        obs = ObservationModel(rng.normal(size=(m, n)), b @ b.T + np.eye(m))
        ens = Ensemble(rng.normal(size=(n, size)))
        y = rng.normal(size=m)
        gain = kalman_gain(ensemble_stats(ens), obs)
        eta = np.tril(obs._noise_chol) @ blocked_normals(2, m, size)
        expected = ens.members + gain @ (y[:, None] + eta - obs.H @ ens.members)
        updated = enkf_perturbed_obs(ens, obs, y, gain, 2)
        assert updated.members.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", [(3, 2), (2, 3), (2,), (2, 2, 1)])
    def test_gain_of_wrong_shape_is_dimension_error(self, shape):
        ens = Ensemble(np.arange(6.0).reshape(2, 3))
        obs = ObservationModel(np.eye(2), np.eye(2))
        with pytest.raises(DimensionError):
            enkf_perturbed_obs(ens, obs, [0.0, 0.0], np.zeros(shape), 0)

    def test_observation_model_of_wrong_state_dim_is_dimension_error(self):
        ens = Ensemble(np.arange(6.0).reshape(2, 3))
        obs = ObservationModel(np.eye(3), np.eye(3))
        with pytest.raises(DimensionError):
            enkf_perturbed_obs(ens, obs, np.zeros(3), np.zeros((2, 3)), 0)

    @pytest.mark.parametrize("perturb", [True, False])
    def test_overflowing_update_is_named_without_a_warning(self, perturb):
        # zero spread and zero gain, but H f = 1e310 for every member
        ens = Ensemble(np.full((1, 3), 1e300))
        obs = ObservationModel([[1e10]], [[1.0]])
        gain = kalman_gain(ensemble_stats(ens), obs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="updated ensemble must not contain"):
                enkf_perturbed_obs(ens, obs, [1.0], gain, 0, perturb)


class TestFactorRouteIndependence:
    def test_rotated_anomaly_gives_identical_posterior(self, rng):
        members = rng.normal(size=(5, 4))
        prior = ensemble_stats(Ensemble(members))
        obs = ObservationModel(rng.normal(size=(3, 5)), random_psd(rng, 3) + np.eye(3))
        y = rng.normal(size=3)
        base = condition(prior, obs, y)
        anomaly = (members - prior.mean[:, None]) / np.sqrt(3)
        for trial in range(5):
            omega = random_orthogonal(np.random.default_rng(trial), 4)
            rotated = canonicalize_factor(anomaly @ omega)
            alt = condition(GaussianLaw(prior.mean, rotated), obs, y)
            assert np.linalg.norm(base.mean - alt.mean) <= 1e-10
            assert np.linalg.norm(base.covariance - alt.covariance) <= 1e-10
