import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from enscgp import (Ensemble, GaussianLaw, KernelSpec, NormalStream, NotSpdError,
                    ObservationModel, condition, ensemble_stats, experiments, gaussian,
                    gram_matrix, posterior_cov_via_hessian, psd, quadprog,
                    repeated_reuse, rkhs, run_equivalence)
from enscgp.experiments import (COV_KINDS, COV_TOL, MEAN_PAIRS, MEAN_ROUTES, MEAN_TOL,
                                OBS_KINDS, equivalence_corpus, make_instance)
from enscgp.psd import PsdFactor

from conftest import chol_inverse_reference, random_psd


def scalar_setup():
    prior = GaussianLaw.from_moments([0.0], [[1.0]])
    obs = ObservationModel([[1.0]], [[1.0]])
    return prior, obs


class TestRunEquivalence:
    def test_scalar_closed_forms(self):
        prior, obs = scalar_setup()
        report = run_equivalence(prior, obs, [2.0])
        for mean in report.means.values():
            assert mean[0] == pytest.approx(1.0, abs=1e-12)
        # n = r = 1: the covariance and both r x r cores are the 1 x 1 posterior variance
        for cov in (condition(prior, obs, [2.0]).covariance,
                    gaussian._schur_core(prior, obs, np.array([2.0]))[1],
                    posterior_cov_via_hessian(prior, obs)):
            assert cov.shape == (1, 1)
            assert cov[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert report.max_mean_discrepancy <= 1e-12
        assert report.cov_discrepancy <= 1e-12
        assert report.passed

    def test_rank_deficient_instance_with_joint_oracle(self, rng):
        n, m, rank = 8, 3, 3
        prior = GaussianLaw.from_moments(rng.normal(size=n), random_psd(rng, n, rank=rank))
        obs = ObservationModel(rng.normal(size=(m, n)), random_psd(rng, m) + np.eye(m))
        y = rng.normal(size=m)
        report = run_equivalence(prior, obs, y)
        assert report.passed and report.rank == rank
        # independent oracle: dense joint-Gaussian Schur complement on the n+m block
        k = prior.covariance
        cov_yy = obs.H @ k @ obs.H.T + obs.R
        mean_oracle = prior.mean + k @ obs.H.T @ np.linalg.solve(
            cov_yy, y - obs.H @ prior.mean)
        for route, mean in report.means.items():
            assert np.linalg.norm(mean - mean_oracle) <= 1e-8 * max(
                1.0, np.linalg.norm(mean_oracle)), route

    def test_zero_observation_matrix(self, rng):
        n, m = 5, 2
        prior = GaussianLaw.from_moments(rng.normal(size=n), random_psd(rng, n))
        obs = ObservationModel(np.zeros((m, n)), np.eye(m))
        y = rng.normal(size=m)
        report = run_equivalence(prior, obs, y)
        for mean in report.means.values():
            np.testing.assert_allclose(mean, prior.mean, atol=1e-12)
        np.testing.assert_allclose(condition(prior, obs, y).covariance, prior.covariance,
                                   atol=1e-12)
        assert report.passed

    def test_discrepancies_symmetric_and_nonnegative(self, rng):
        prior, obs, y = make_instance(5)
        report = run_equivalence(prior, obs, y)
        assert set(report.mean_discrepancies) == set(MEAN_PAIRS)
        assert all(v >= 0.0 for v in report.mean_discrepancies.values())
        assert report.cov_discrepancy >= 0.0


def squared_exponential_instance(seed, n=200, m=15, lengthscale=0.3):
    """Squared-exponential Gram prior on sorted uniform points, m distinct
    points observed with noise variance 1e-2; kappa on the kept range ~ 1e12."""
    stream = NormalStream(seed)
    points = np.sort(stream.uniforms(n))
    observed = np.sort(np.argsort(stream.uniforms(n), kind="stable")[:m])
    h = np.zeros((m, n))
    h[np.arange(m), observed] = 1.0
    gram = gram_matrix(KernelSpec("squared-exponential", 1.0, lengthscale), points)
    prior = GaussianLaw.from_moments(np.zeros(n), gram)
    return prior, ObservationModel(h, 1e-2 * np.eye(m)), stream.normals(m)


class TestIllConditionedPriors:
    """Priors on which a route through a dense K^+ loses eps / lambda_min."""

    @pytest.mark.parametrize("seed", range(10))
    def test_squared_exponential_prior_passes(self, seed):
        report = run_equivalence(*squared_exponential_instance(seed))
        assert report.passed, (report.mean_discrepancies, report.cov_discrepancy)

    def test_ensemble_draw_with_round_off_mode_passes(self):
        # an ensemble prior whose rank decision keeps a round-off singular value
        report = run_equivalence(*make_instance(11, 294443251))
        assert report.mean_discrepancies[("schur", "rkhs")] <= MEAN_TOL
        assert report.passed, (report.mean_discrepancies, report.cov_discrepancy)


class TestCorpus:
    def test_full_corpus_passes(self):
        reports = equivalence_corpus(100, base_seed=0)
        assert sum(r.passed for r in reports) == 100

    def test_reports_hold_no_covariances(self):
        list(equivalence_corpus(1))  # first-call imports and caches are not report memory
        tracemalloc.start()
        try:
            reports = list(equivalence_corpus(100))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # two n x n covariances per report would hold about 1.25 MiB
        assert held < 0.5 * 2**20, f"held {held / 2**20:.2f} MiB"
        assert len(reports) == 100

    def test_reports_are_yielded_one_at_a_time(self):
        corpus = equivalence_corpus(100)
        assert next(corpus).seed == 0
        assert [r.seed for r in corpus] == list(range(1, 100))

    def test_covers_all_kind_combinations(self):
        seen = set()
        for i in range(9):
            prior, obs, _ = make_instance(i)
            seen.add((COV_KINDS[i % 3], OBS_KINDS[(i // 3) % 3]))
            if OBS_KINDS[(i // 3) % 3] == "tall":
                assert obs.n_obs > prior.dim
            elif OBS_KINDS[(i // 3) % 3] == "wide":
                assert obs.n_obs < prior.dim
            else:
                assert not np.any(obs.H)
        assert len(seen) == 9

    def test_instances_deterministic(self):
        a_prior, a_obs, a_y = make_instance(17, base_seed=3)
        b_prior, b_obs, b_y = make_instance(17, base_seed=3)
        assert np.array_equal(a_prior.mean, b_prior.mean)
        assert np.array_equal(a_obs.H, b_obs.H)
        assert np.array_equal(a_y, b_y)

    def test_size_bounds(self):
        for i in range(30):
            prior, obs, _ = make_instance(i)
            assert 3 <= prior.dim <= 50
            assert 1 <= obs.n_obs <= 20


class TestRelVecDiff:
    def test_matches_numpy_norm_bitwise(self, rng):
        a = rng.normal(size=(7, 5)) * 3.0
        for x, y in ((a, a + 1e-9 * rng.normal(size=a.shape)), (a.T, np.asfortranarray(a.T)),
                     (a[::2, 1:], a[::2, :4]), (a[:, 0], a[:, 1] * 1e-3)):
            scale = max(1.0, float(np.linalg.norm(x)), float(np.linalg.norm(y)))
            assert experiments.rel_vec_diff(x, y) == float(np.linalg.norm(x - y)) / scale

    def test_audit_mean_discrepancies_are_rel_vec_diff_bitwise(self):
        # run_equivalence takes each route mean's norm once instead of per pair
        for index in range(30):
            report = run_equivalence(*make_instance(index))
            assert tuple(report.mean_discrepancies) == MEAN_PAIRS
            for a, b in MEAN_PAIRS:
                expected = experiments.rel_vec_diff(report.means[a], report.means[b])
                assert report.mean_discrepancies[a, b].hex() == expected.hex(), (index, a, b)


    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_in_range_at_any_scale(self, scale):
        # the plain sum of squares overflows at 1e160 and underflows at 1e-170
        a = scale * np.ones(10)
        for rel in (1e-7, 1e-6):
            # over |a (1 + rel)| above the unit floor, over 1 below it
            expected = rel / (1 + rel) if scale > 1 else np.sqrt(10) * scale * rel
            assert experiments.rel_vec_diff(a, a * (1 + rel)) == pytest.approx(
                expected, rel=1e-9, abs=0.0)

    def test_nan_discrepancy_fails_the_audit(self, monkeypatch):
        # the gain route's pairs come last, after finite pairs that pass
        prior, obs, y = make_instance(0)
        monkeypatch.setattr(experiments.ensemble, "enkf_mean_update",
                            lambda prior, obs, y: np.full(prior.dim, np.nan))
        report = run_equivalence(prior, obs, y)
        assert report.mean_discrepancies["schur", "qp"] <= MEAN_TOL
        assert np.isnan(report.mean_discrepancies["schur", "gain"])
        assert not report.passed
        assert np.isnan(report.max_mean_discrepancy)


def acceptance_audit():
    return [run_equivalence(*make_instance(j, 0)) for j in range(100)]


@pytest.fixture(scope="module")
def shipped_audit():
    return acceptance_audit()


def assert_same_audit_bits(new_reports, old_reports):
    for new, old in zip(new_reports, old_reports, strict=True):
        assert new.passed == old.passed
        assert new.cov_discrepancy == old.cov_discrepancy
        assert new.mean_discrepancies == old.mean_discrepancies
        for route in MEAN_ROUTES:
            assert new.means[route].tobytes() == old.means[route].tobytes()


class TestBasisSharedInAudit:
    def test_audit_bits_match_basis_recomputed_per_call(self, shipped_audit, monkeypatch):
        """Each factor's cached basis gives the audit the same bits as
        recomputing U_r = A diag(lambda)^(-1/2) at every call."""
        asked = []

        def recomputed(factor):
            asked.append(factor)
            if factor.rank == 0:
                return np.zeros((factor.dim, 0))
            return factor.factor / np.sqrt(factor.eigenvalues)

        monkeypatch.setattr(PsdFactor, "basis", recomputed)
        assert_same_audit_bits(shipped_audit, acceptance_audit())
        # the routes ask for one factor's basis more than once
        assert len(asked) > len({id(f) for f in asked})


class TestLapackHelpersInAudit:
    def test_audit_bits_match_scipy_wrappers(self, shipped_audit, monkeypatch):
        """The audit gives the same bits through the LAPACK helpers as through
        the scipy.linalg wrappers they replace, on this machine's BLAS."""
        calls = {"_chol_lower": 0, "_chol_solve": 0, "_tril_solve": 0, "_chol_inverse": 0}

        def chol_lower(a):
            calls["_chol_lower"] += 1
            return scipy.linalg.cholesky(a, lower=True)

        def chol_solve(c, b):
            calls["_chol_solve"] += 1
            return scipy.linalg.cho_solve((c, True), b)

        def tril_solve(c, b):
            calls["_tril_solve"] += 1
            return scipy.linalg.solve_triangular(c, b, lower=True)

        def chol_inverse(c):
            # trtri and potri have no scipy.linalg wrapper but their kernels
            calls["_chol_inverse"] += 1
            return chol_inverse_reference(c)

        wrappers = {"_chol_lower": chol_lower, "_chol_solve": chol_solve,
                    "_tril_solve": tril_solve, "_chol_inverse": chol_inverse}
        for module in (gaussian, quadprog, rkhs, experiments):
            for name, fn in wrappers.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, fn)
        through_scipy = acceptance_audit()
        assert all(calls.values()), calls
        assert_same_audit_bits(shipped_audit, through_scipy)


class TestOneRestrictedHessianPerAudit:
    def test_audit_factors_four_matrices(self, monkeypatch):
        """Innovation twice (Schur, gain), restricted Hessian once, QP once."""
        prior, obs, y = make_instance(0)  # full-rank prior, tall H
        assert prior.rank == prior.dim and obs.n_obs > 0
        factored, dpotrf = [], psd.dpotrf

        def counting(a, *args, **kwargs):
            factored.append(a.shape)
            return dpotrf(a, *args, **kwargs)

        monkeypatch.setattr(psd, "dpotrf", counting)
        assert run_equivalence(prior, obs, y).passed
        assert len(factored) == 4, factored

    @pytest.mark.parametrize("index", range(9))
    def test_passed_factor_gives_the_same_bits(self, index):
        prior, obs, y = make_instance(index)
        chol = gaussian._restricted_hessian(prior.cov_factor, obs)
        space = rkhs.DiscreteRkhs.from_factor(prior.cov_factor)
        assert (rkhs.rkhs_solve(space, prior.mean, obs, y, hessian_chol=chol).tobytes()
                == rkhs.rkhs_solve(space, prior.mean, obs, y).tobytes())
        core = posterior_cov_via_hessian(prior, obs, hessian_chol=chol)
        assert core.shape == (prior.rank, prior.rank)
        assert core.tobytes() == posterior_cov_via_hessian(prior, obs).tobytes()


class TestCoreAudit:
    """The audit compares the Schur and Hessian r x r cores in the prior's
    range basis; it forms no n x n array and eigendecomposes nothing."""

    def test_scaled_schur_core_fails_the_audit(self, monkeypatch):
        schur_core = gaussian._schur_core

        def scaled(prior, obs, y):
            mean, core = schur_core(prior, obs, y)
            return mean, core * (1.0 + 1e-6)

        prior, obs, y = make_instance(0)
        assert run_equivalence(prior, obs, y).passed
        monkeypatch.setattr(gaussian, "_schur_core", scaled)
        report = run_equivalence(prior, obs, y)
        assert report.cov_discrepancy > COV_TOL
        assert max(report.mean_discrepancies.values()) <= MEAN_TOL
        assert not report.passed

    def test_audit_runs_no_eigendecomposition_and_no_condition(self, monkeypatch):
        def forbidden(name):
            def fail(*args, **kwargs):
                raise AssertionError(f"the audit called {name}")
            return fail

        instances = [make_instance(j) for j in range(9)]  # built with dsyevd
        monkeypatch.setattr(psd, "dsyevd", forbidden("dsyevd"))
        monkeypatch.setattr(gaussian, "condition", forbidden("condition"))
        for instance in instances:
            assert run_equivalence(*instance).passed

    def test_peak_memory_is_a_multiple_of_n_times_r_plus_m(self):
        # ensemble prior of rank r = E - 1 = 40, point observations, R = 0.1 I
        n, members, m = 2000, 41, 50
        stream = NormalStream(5)
        prior = ensemble_stats(Ensemble(stream.normals((n, members))))
        h = np.zeros((m, n))
        h[np.arange(m), np.arange(0, n, n // m)] = 1.0
        obs = ObservationModel(h, 0.1 * np.eye(m))
        y = stream.normals(m)
        r = prior.rank
        assert r == members - 1
        run_equivalence(prior, obs, y)  # first-call caches are not audit memory
        tracemalloc.start()
        try:
            report = run_equivalence(prior, obs, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed
        # one n x n array alone would be 32 MB
        assert peak < 4 * 8 * n * (r + m), f"peak {peak / 2**20:.2f} MiB"


class TestRepeatedReuse:
    def test_scalar_closed_form(self):
        prior, obs = scalar_setup()
        trace = repeated_reuse(prior, obs, [1.0], k_max=9)
        # zero prior mean and a positive scalar mean: the shift norm is the mean
        for k in range(10):
            assert trace.spectral_norms[k] == pytest.approx(1.0 / (1.0 + k), rel=1e-12)
            assert trace.mean_shift_norms[k] == pytest.approx(k / (1.0 + k), rel=1e-12,
                                                              abs=1e-15)
        assert trace.recursive_max_discrepancy <= 1e-8

    def test_zero_observation_matrix_keeps_prior(self, rng):
        k0 = random_psd(rng, 3) + np.eye(3)
        prior = GaussianLaw.from_moments(rng.normal(size=3), k0)
        obs = ObservationModel(np.zeros((2, 3)), np.eye(2))
        y = rng.normal(size=2)
        for k in range(1, 6):
            trace = repeated_reuse(prior, obs, y, k_max=k)
            np.testing.assert_allclose(trace.final_cov, prior.covariance, atol=1e-10)
            np.testing.assert_allclose(trace.final_mean, prior.mean, atol=1e-10)

    def test_collapse_limit_full_observation(self, rng):
        n = 3
        k0 = random_psd(rng, n) + np.eye(n)
        prior = GaussianLaw.from_moments(rng.normal(size=n), k0)
        obs = ObservationModel(np.eye(n), np.eye(n))
        y = rng.normal(size=n)
        trace = repeated_reuse(prior, obs, y, k_max=10_000)
        # closed form: for H = I, R = I the spectrum of K_k is 1/(1/l0 + k)
        l_max = np.max(np.linalg.eigvalsh(k0))
        bound = 1.01 / (1.0 / l_max + 10_000)
        assert trace.spectral_norms[-1] <= bound
        np.testing.assert_allclose(trace.final_mean, y, atol=1e-3)

    def test_rejects_singular_prior(self):
        prior = GaussianLaw.from_moments(np.zeros(2), np.diag([1.0, 0.0]))
        obs = ObservationModel(np.eye(2), np.eye(2))
        with pytest.raises(NotSpdError):
            repeated_reuse(prior, obs, np.zeros(2), k_max=3)

    @pytest.mark.parametrize("k_max", [0, -2, 10**6 + 1])
    def test_rejects_bad_k_max(self, k_max):
        prior, obs = scalar_setup()
        with pytest.raises(ValueError):
            repeated_reuse(prior, obs, [1.0], k_max=k_max)

    def test_closed_form_matches_recursion_multidimensional(self, rng):
        n, m = 4, 2
        prior = GaussianLaw.from_moments(rng.normal(size=n),
                                         random_psd(rng, n) + 0.5 * np.eye(n))
        obs = ObservationModel(rng.normal(size=(m, n)), random_psd(rng, m) + np.eye(m))
        trace = repeated_reuse(prior, obs, rng.normal(size=m), k_max=100)
        assert trace.recursive_max_discrepancy <= 1e-8

    def test_first_step_matches_condition(self, rng):
        n, m = 3, 2
        prior = GaussianLaw.from_moments(rng.normal(size=n),
                                         random_psd(rng, n) + np.eye(n))
        obs = ObservationModel(rng.normal(size=(m, n)), random_psd(rng, m) + np.eye(m))
        y = rng.normal(size=m)
        trace = repeated_reuse(prior, obs, y, k_max=1)
        post = condition(prior, obs, y)
        np.testing.assert_allclose(trace.final_mean, post.mean, atol=1e-10)
        np.testing.assert_allclose(trace.final_cov, post.covariance, atol=1e-10)

    def test_spectral_norms_strictly_decreasing_under_full_information(self, rng):
        n = 3
        prior = GaussianLaw.from_moments(np.zeros(n), random_psd(rng, n) + np.eye(n))
        obs = ObservationModel(np.eye(n), np.eye(n))
        trace = repeated_reuse(prior, obs, np.ones(n), k_max=20)
        assert np.all(np.diff(trace.spectral_norms) < 0)

    def test_nan_discrepancy_is_not_dropped_from_the_maximum(self, monkeypatch):
        prior, obs = scalar_setup()
        results = iter([0.5, np.nan, 0.25])
        monkeypatch.setattr(experiments, "rel_vec_diff", lambda a, b: next(results, 0.0))
        with pytest.raises(ValueError, match="not finite"):
            repeated_reuse(prior, obs, [1.0], k_max=3)

    def test_tiny_prior_with_a_large_mean(self):
        # K_0^(-1) m_0 = 1e300 * 1e9 would overflow; the means come from the
        # data shift alone, which is empty here, and k runs past the
        # recursive cross-check
        prior = GaussianLaw.from_moments([1e9], [[1e-300]])
        obs = ObservationModel(np.zeros((0, 1)), np.zeros((0, 0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = repeated_reuse(prior, obs, np.zeros(0), k_max=150)
        assert trace.final_mean.tolist() == [1e9]
        assert trace.final_cov.tolist() == prior.covariance.tolist()
        assert (trace.mean_shift_norms == 0.0).all()
        assert (trace.spectral_norms == prior.covariance[0, 0]).all()
        assert trace.recursive_max_discrepancy == 0.0

    def test_memory_does_not_grow_with_k_max_times_n_squared(self, rng):
        n, m, k_max = 20, 5, 20_000
        prior = GaussianLaw.from_moments(rng.normal(size=n),
                                         random_psd(rng, n) + np.eye(n))
        obs = ObservationModel(rng.normal(size=(m, n)), random_psd(rng, m) + np.eye(m))
        y = rng.normal(size=m)
        tracemalloc.start()
        try:
            trace = repeated_reuse(prior, obs, y, k_max=k_max)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # storing every K_k would take (k_max + 1) n^2 doubles, about 61 MiB
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"
        assert trace.spectral_norms.shape == trace.mean_shift_norms.shape == (k_max + 1,)

    def test_label_marks_double_counting(self):
        prior, obs = scalar_setup()
        trace = repeated_reuse(prior, obs, [1.0], k_max=2)
        assert trace.label == "double-counting demonstration"
