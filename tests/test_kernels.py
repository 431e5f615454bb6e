import tracemalloc
from unittest import mock

import numpy as np
import pytest

from enscgp import psd
from enscgp import (KernelFamily, KernelSpec, NormalStream, canonical_sqrt, eig_psd,
                    gram_matrix, kl_truncate, sample_kl)
from enscgp.errors import NotPsdError

FAMILIES = [f.value for f in KernelFamily]


class TestKernelSpec:
    def test_accepts_family_string(self):
        spec = KernelSpec("white", 2.0)
        assert spec.family is KernelFamily.WHITE

    @pytest.mark.parametrize("variance", [0.0, -1.0])
    def test_rejects_nonpositive_variance(self, variance):
        with pytest.raises(ValueError):
            KernelSpec("squared-exponential", variance)

    @pytest.mark.parametrize("variance", [np.inf, np.nan])
    def test_rejects_non_finite_variance(self, variance):
        with pytest.raises(ValueError, match="variance"):
            KernelSpec("white", variance)

    @pytest.mark.parametrize("lengthscale", [0.0, -2.0])
    def test_rejects_nonpositive_lengthscale(self, lengthscale):
        with pytest.raises(ValueError):
            KernelSpec("exponential", 1.0, lengthscale)


class TestGramMatrix:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("dim", range(2, 8))
    def test_exactly_symmetric_without_a_symmetrize_pass(self, family, dim):
        pts = np.random.default_rng(dim).normal(size=(60, dim)) * 3.0
        k = gram_matrix(KernelSpec(family, 1.7, 0.4), pts)
        assert k.tobytes() == np.ascontiguousarray(k.T).tobytes()

    def test_white_is_scaled_identity(self, rng):
        spec = KernelSpec("white", 3.0)
        pts = rng.normal(size=(5, 2))
        np.testing.assert_array_equal(gram_matrix(spec, pts), 3.0 * np.eye(5))

    def test_squared_exponential_coincident_points(self):
        spec = KernelSpec("squared-exponential", 2.5, 1.0)
        pts = np.zeros((4, 3))
        np.testing.assert_array_equal(gram_matrix(spec, pts), np.full((4, 4), 2.5))

    def test_squared_exponential_hand_value(self):
        spec = KernelSpec("squared-exponential", 1.0, 1.0)
        k = gram_matrix(spec, [[0.0], [1.0]])
        assert k[0, 1] == pytest.approx(np.exp(-0.5), rel=1e-15)
        assert k[0, 0] == 1.0 and k[1, 1] == 1.0

    def test_exponential_hand_value(self):
        spec = KernelSpec("exponential", 2.0, 0.5)
        k = gram_matrix(spec, [[0.0], [1.0]])
        assert k[0, 1] == pytest.approx(2.0 * np.exp(-2.0), rel=1e-15)

    def test_linear_is_scaled_inner_products(self, rng):
        pts = rng.normal(size=(4, 2))
        k = gram_matrix(KernelSpec("linear", 2.0), pts)
        np.testing.assert_allclose(k, 2.0 * pts @ pts.T, atol=1e-14)

    def test_stationary_diagonal_is_variance(self, rng):
        pts = rng.normal(size=(6, 2))
        for family in ("squared-exponential", "exponential", "white"):
            k = gram_matrix(KernelSpec(family, 1.7, 0.8), pts)
            np.testing.assert_array_equal(np.diag(k), np.full(6, 1.7))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_psd_on_random_point_sets(self, family):
        # 100 point sets per family, all must pass the PSD gate
        rng = np.random.default_rng(hash(family) % 2**32)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            d = int(rng.integers(1, 4))
            pts = rng.normal(size=(n, d)) * float(rng.uniform(0.1, 5.0))
            spec = KernelSpec(family, float(rng.uniform(0.1, 4.0)),
                              float(rng.uniform(0.2, 3.0)))
            try:
                eig_psd(gram_matrix(spec, pts))
            except NotPsdError as exc:  # pragma: no cover
                pytest.fail(f"{family}: {exc}")

    @pytest.mark.parametrize("family", FAMILIES)
    def test_marginalization_consistency(self, family, rng):
        pts = rng.normal(size=(8, 2))
        spec = KernelSpec(family, 1.3, 0.9)
        full = gram_matrix(spec, pts)
        idx = np.array([1, 4, 6])
        sub = gram_matrix(spec, pts[idx])
        np.testing.assert_array_equal(full[np.ix_(idx, idx)], sub)

    def test_rejects_empty_points(self):
        with pytest.raises(Exception):
            gram_matrix(KernelSpec("white", 1.0), np.zeros((0, 1)))


class TestKlTruncate:
    def test_full_rank_residual(self, rng):
        b = rng.normal(size=(5, 5))
        k = b @ b.T
        modes = kl_truncate(k, 5)
        assert modes.residual <= 1e-10

    def test_rank1_of_diag_4_1(self):
        modes = kl_truncate(np.diag([4.0, 1.0]), 1)
        # Frobenius norm of the discarded block over the full norm
        assert modes.residual == pytest.approx(1.0 / np.sqrt(17.0), rel=1e-12)

    def test_energy_fraction_one_keeps_full_rank(self, rng):
        b = rng.normal(size=(6, 4))
        k = b @ b.T
        by_energy = kl_truncate(k, 1.0)
        by_count = kl_truncate(k, 4)
        assert by_energy.factor.rank == by_count.factor.rank == 4

    def test_residual_matches_frobenius_tail_identity(self, rng):
        b = rng.normal(size=(6, 6))
        k = b @ b.T
        values = np.linalg.eigvalsh(k)[::-1]
        norm = np.linalg.norm(k)
        for r in range(1, 7):
            modes = kl_truncate(k, r)
            tail = np.sqrt(np.sum(values[r:] ** 2)) / norm
            assert abs(modes.residual - tail) <= 1e-12

    def test_residual_monotone_in_r(self, rng):
        k = rng.normal(size=(7, 7))
        k = k @ k.T
        residuals = [kl_truncate(k, r).residual for r in range(1, 8)]
        assert all(a >= b - 1e-15 for a, b in zip(residuals, residuals[1:]))

    def test_modes_orthonormal(self, rng):
        b = rng.normal(size=(6, 3))
        modes = kl_truncate(b @ b.T, 3)
        basis = modes.factor.basis()
        np.testing.assert_allclose(basis.T @ basis, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("r", [3, 0.8])
    def test_modes_are_the_leading_columns_of_the_canonical_factor(self, r, rng):
        b = rng.normal(size=(8, 5))
        k = b @ b.T
        kept = kl_truncate(k, r).factor
        full = canonical_sqrt(k)
        assert 1 <= kept.rank < full.rank
        assert np.array_equal(kept.factor, full.factor[:, :kept.rank])
        assert np.array_equal(kept.eigenvalues, full.eigenvalues[:kept.rank])

    def test_peak_memory_holds_one_symmetric_copy(self):
        # K is symmetrized for the residual only after eig_psd has returned;
        # symmetrizing it first would peak near 5.1 n^2 doubles
        n = 300
        k = gram_matrix(KernelSpec("exponential", 1.0, 0.3), np.linspace(0.0, 1.0, n))
        tracemalloc.start()
        try:
            kl_truncate(k, 0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * n * n * 8

    @pytest.mark.parametrize("r", [0, 7, -1])
    def test_count_out_of_range(self, r, rng):
        k = rng.normal(size=(4, 4))
        with pytest.raises(ValueError):
            kl_truncate(k @ k.T, r)

    @pytest.mark.parametrize("fraction", [0.0, 1.5, -0.2])
    def test_fraction_out_of_range(self, fraction):
        with pytest.raises(ValueError):
            kl_truncate(np.eye(2), fraction)

    @pytest.mark.parametrize("r", [True, np.bool_(False), 0.0, 1.5, -0.2, float("nan")])
    def test_bad_r_is_rejected_before_the_eigendecomposition(self, r):
        ran = AssertionError("the matrix was eigendecomposed")
        with mock.patch.object(psd, "eig_psd", side_effect=ran):
            with pytest.raises(ValueError, match="r must be|energy fraction"):
                kl_truncate(np.eye(3), r)


class TestSampleKl:
    def test_zero_spectrum_gives_positive_zeros(self):
        modes = kl_truncate(np.zeros((3, 3)), 1.0)
        assert modes.factor.rank == 0
        samples = sample_kl(modes, 7, seed=0)
        assert samples.shape == (3, 7)
        assert samples.tobytes() == np.zeros((3, 7)).tobytes()

    def test_single_mode_spans_one_axis(self):
        modes = kl_truncate(np.diag([1.0, 0.0]), 1)
        samples = sample_kl(modes, 50, seed=1)
        np.testing.assert_array_equal(samples[1], np.zeros(50))
        assert np.std(samples[0]) > 0

    def test_seed_determinism_bitwise(self):
        modes = kl_truncate(np.diag([2.0, 1.0]), 2)
        a = sample_kl(modes, 64, seed=9)
        b = sample_kl(modes, 64, seed=9)
        assert a.tobytes() == b.tobytes()
        c = sample_kl(modes, 64, seed=10)
        assert not np.array_equal(a, c)

    def test_monte_carlo_covariance(self):
        # 1e5 draws from diag(2, 1): empirical covariance within 5% relative
        k = np.diag([2.0, 1.0])
        modes = kl_truncate(k, 2)
        samples = sample_kl(modes, 100_000, seed=0)
        emp = np.cov(samples)
        assert np.linalg.norm(emp - k) <= 0.05 * np.linalg.norm(k)

    @pytest.mark.parametrize("r", [2, 0.7])
    def test_samples_are_the_factor_times_the_stream_bitwise(self, r, rng):
        b = rng.normal(size=(6, 4))
        modes = kl_truncate(b @ b.T, r)
        factor = modes.factor.factor
        expected = factor @ NormalStream(5).normals((factor.shape[1], 9))
        assert sample_kl(modes, 9, seed=5).tobytes() == expected.tobytes()

    def test_rejects_nonpositive_count(self):
        modes = kl_truncate(np.eye(2), 1)
        with pytest.raises(ValueError):
            sample_kl(modes, 0, seed=0)
