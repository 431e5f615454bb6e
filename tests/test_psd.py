import gc
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from enscgp import (DimensionError, GaussianLaw, NotPsdError, ObservationModel,
                    PsdFactor, canonical_sqrt, canonicalize_factor, condition, eig_psd,
                    gaussian, kl_truncate, psd, quadprog, run_equivalence, symmetrize)
from enscgp.experiments import make_instance
from enscgp.psd import _chol_inverse, _chol_lower, _chol_solve, _tril_solve

from conftest import chol_inverse_reference, random_orthogonal, random_psd


class TestSymmetrize:
    def test_averages_transpose(self):
        np.testing.assert_array_equal(symmetrize([[1, 2], [0, 1]]), [[1, 1], [1, 1]])

    def test_identity_fixed_point(self):
        np.testing.assert_array_equal(symmetrize(np.eye(3)), np.eye(3))

    def test_off_diagonal_average(self):
        np.testing.assert_array_equal(symmetrize([[0, 4], [2, 0]]), [[0, 3], [3, 0]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            symmetrize(np.zeros((2, 3)))


def column_norms(x):
    """psd._norm of each column of a 2-D x, the way the enkf trace takes them."""
    return np.array([psd._norm(column) for column in x.T])


class TestNorm:
    """psd._norm is np.linalg.norm's formula wherever the sum of squares is a
    finite normal number, and the norm at any other scale, of a whole array
    or one column at a time."""

    @pytest.mark.parametrize("shape", [(1,), (7,), (40,), (5, 3), (30, 30)])
    def test_in_range_bits_are_numpys(self, shape, rng):
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-100, 100)
        for view in (x, x.T, x[::2]):
            assert psd._norm(view) == float(np.linalg.norm(view))
            for column in view.T if view.ndim == 2 else [view]:
                assert psd._norm(column) == float(np.linalg.norm(column))

    @pytest.mark.parametrize("scale", [1e300, 1e160, 1e-160, 1e-300, 5e-324])
    def test_out_of_range_scales_exactly(self, scale, rng):
        x = rng.normal(size=(12, 3))
        expected = np.linalg.norm(x, axis=0) * scale
        tol = 1e-14 if scale > 1e-300 else 1.0  # subnormal entries keep few bits
        assert psd._norm(x[:, 0] * scale) == pytest.approx(expected[0], rel=tol)
        np.testing.assert_allclose(column_norms(x * scale), expected, rtol=tol)
        assert psd._norm(x[:, 1] * scale) == pytest.approx(expected[1], rel=tol)
        assert (column_norms(x * scale) > 0).all()

    def test_non_finite_and_extreme_values(self):
        assert psd._norm(np.zeros(4)) == 0.0
        assert psd._norm(np.zeros(0)) == 0.0
        assert np.isnan(psd._norm(np.array([1.0, np.nan])))
        assert np.isnan(psd._norm(np.array([np.inf, np.nan])))
        assert psd._norm(np.array([1.0, -np.inf])) == np.inf
        # the norm itself is above the largest double
        assert psd._norm(np.full(4, 1e308)) == np.inf
        assert psd._norm(np.array([3e300, -4e300])) == pytest.approx(5e300, rel=1e-15)
        columns = np.array([[0.0, 1.5e308, 1.0, 3e300], [0.0, 1.5e308, np.nan, -4e300]])
        norms = column_norms(columns)
        assert norms[0] == 0.0 and norms[1] == np.inf and np.isnan(norms[2])
        assert norms[3] == pytest.approx(5e300, rel=1e-15)

    def test_no_warning_on_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert psd._norm(np.full(3, 1e200)) > 0
            assert (column_norms(np.full((3, 2), 1e200)) > 0).all()


class TestEigPsd:
    def test_diagonal(self):
        values, vectors = eig_psd(np.diag([4.0, 1.0, 0.0]))
        assert values.size == 2
        np.testing.assert_allclose(values, [4.0, 1.0])
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(2), atol=1e-12)

    def test_zero_matrix(self):
        values, vectors = eig_psd(np.zeros((2, 2)))
        assert values.size == 0
        assert vectors.shape == (2, 0)

    def test_low_rank_matches_independent_svd(self, rng):
        # oracle: eigenvalues of A A^T are the squared singular values of A
        a = rng.normal(size=(5, 2))
        values, vectors = eig_psd(a @ a.T)
        assert values.size == 2
        singular = np.linalg.svd(a, compute_uv=False)
        np.testing.assert_allclose(values, singular**2, rtol=1e-12)
        recon = (vectors * values) @ vectors.T
        assert np.linalg.norm(recon - a @ a.T) <= 1e-10 * np.linalg.norm(a @ a.T)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsdError):
            eig_psd(np.diag([1.0, -1.0]))

    def test_negative_rank_tol_rejected(self):
        with pytest.raises(ValueError):
            eig_psd(np.eye(2), rank_tol=-1e-3)

    def test_nan_rank_tol_rejected(self):
        with pytest.raises(ValueError):
            eig_psd(np.eye(2), rank_tol=float("nan"))

    def test_deterministic_repeat(self, rng):
        k = random_psd(rng, 6, rank=3)
        v1, u1 = eig_psd(k)
        v2, u2 = eig_psd(k)
        assert np.array_equal(v1, v2) and np.array_equal(u1, u2)

    def test_rejects_non_finite(self):
        # a NaN matrix used to come out as rank 0, i.e. a point mass
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="infs or NaNs"):
                eig_psd(np.array([[1.0, 0.0], [0.0, bad]]))

    def test_rank_invariant_under_permutation(self, rng):
        k = random_psd(rng, 7, rank=4)
        perm = rng.permutation(7)
        assert eig_psd(k)[0].size == eig_psd(k[np.ix_(perm, perm)])[0].size


class TestOneEigenPath:
    """Every symmetric eigendecomposition in the package is eig_psd's, by
    LAPACK's dsyevd; numpy's eigh wrapper is never called."""

    @pytest.mark.parametrize("case", ["from_moments", "condition", "kl_count", "kl_energy"])
    def test_every_eigh_runs_inside_eig_psd(self, case, rng, monkeypatch):
        k = random_psd(rng, 12, rank=7)
        # the prior factors another matrix: canonical_sqrt returns a live
        # factor of k itself without an eigendecomposition
        prior = GaussianLaw.from_moments(np.zeros(12), random_psd(rng, 12, rank=7))
        obs = ObservationModel(rng.normal(size=(3, 12)), np.eye(3))
        run = {"from_moments": lambda: GaussianLaw.from_moments(np.zeros(12), k),
               "condition": lambda: condition(prior, obs, np.ones(3)),
               "kl_count": lambda: kl_truncate(k, 4),
               "kl_energy": lambda: kl_truncate(k, 0.9)}[case]
        calls = {"eig_psd": 0, "dsyevd": 0, "eigh": 0}
        callers = []
        real_eig_psd, real_dsyevd = psd.eig_psd, psd.dsyevd

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                if name == "dsyevd":
                    callers.append(sys._getframe(1).f_code)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(psd, "eig_psd", spy("eig_psd", real_eig_psd))
        monkeypatch.setattr(psd, "dsyevd", spy("dsyevd", real_dsyevd))
        monkeypatch.setattr(np.linalg, "eigh", spy("eigh", np.linalg.eigh))
        run()
        assert calls == {"eig_psd": 1, "dsyevd": 1, "eigh": 0}
        assert callers == [real_eig_psd.__code__]

    def test_unconverged_dsyevd_raises_linalg_error(self, monkeypatch):
        def unconverged(a, **kwargs):
            n = a.shape[0]
            return np.zeros(n), np.zeros((n, n), order="F"), 1

        monkeypatch.setattr(psd, "dsyevd", unconverged)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            eig_psd(np.eye(3))


class TestPseudoinverse:
    def test_diagonal(self):
        np.testing.assert_allclose(canonical_sqrt(np.diag([4.0, 0.0])).pinv(),
                                   np.diag([0.25, 0.0]), atol=1e-14)

    def test_identity(self):
        np.testing.assert_allclose(canonical_sqrt(np.eye(4)).pinv(), np.eye(4), atol=1e-14)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_penrose_identities(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        rank = int(rng.integers(0, n + 1))
        k = random_psd(rng, n, rank=rank)
        pinv = canonical_sqrt(k).pinv()
        scale = max(1.0, np.linalg.norm(k), np.linalg.norm(pinv))
        assert np.linalg.norm(k @ pinv @ k - k) <= 1e-10 * scale
        assert np.linalg.norm(pinv @ k @ pinv - pinv) <= 1e-10 * scale
        assert np.linalg.norm((k @ pinv).T - k @ pinv) <= 1e-10 * scale
        assert np.linalg.norm((pinv @ k).T - pinv @ k) <= 1e-10 * scale


class TestCanonicalSqrt:
    def test_diagonal_columns(self):
        factor = canonical_sqrt(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(factor.factor, [[2.0, 0.0], [0.0, 1.0]], atol=1e-14)

    def test_zero_matrix(self):
        factor = canonical_sqrt(np.zeros((3, 3)))
        assert factor.rank == 0 and factor.factor.shape == (3, 0)

    def test_ensemble_covariance_rank_bound(self, rng):
        members = rng.normal(size=(6, 4))
        deviations = members - members.mean(axis=1, keepdims=True)
        cov = deviations @ deviations.T / 3
        factor = canonical_sqrt(cov)
        assert factor.factor.shape[1] <= 3
        assert factor.rank == eig_psd(cov)[0].size

    def test_reconstruction(self, rng):
        k = random_psd(rng, 6, rank=4)
        factor = canonical_sqrt(k)
        assert np.linalg.norm(factor.gram() - k) <= 1e-10 * np.linalg.norm(k)
        norms_sq = np.sum(factor.factor**2, axis=0)
        np.testing.assert_allclose(norms_sq, factor.eigenvalues, rtol=1e-12)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_gram_is_exactly_symmetric(self, layout, rng):
        a = rng.normal(size=(80, 30))
        a = {"C": a, "F": np.asfortranarray(a), "strided": a[::2, ::3]}[layout]
        g = PsdFactor(a, np.ones(a.shape[1])).gram()
        assert np.array_equal(g, g.T)

    def test_refactor_idempotent_on_gram(self, rng):
        factor = canonical_sqrt(random_psd(rng, 5, rank=2))
        again = canonical_sqrt(factor.gram())
        assert np.linalg.norm(again.gram() - factor.gram()) <= 1e-10


class TestCanonicalSqrtMemo:
    """canonical_sqrt returns its live factor of a bitwise-equal matrix
    without an eigendecomposition, and holds nothing once it is collected."""

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(psd, "_memo", None)

    @pytest.fixture
    def dsyevd_calls(self, monkeypatch):
        calls = []
        real = psd.dsyevd

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(psd, "dsyevd", counted)
        return calls

    def test_repeat_call_returns_the_same_factor(self, rng, dsyevd_calls):
        k = random_psd(rng, 9, rank=5)
        first = canonical_sqrt(k)
        assert canonical_sqrt(k.copy()) is first
        assert canonical_sqrt(k, psd.default_rank_tol(9)) is first  # same cutoff
        assert len(dsyevd_calls) == 1

    @pytest.mark.parametrize("change", ["negative_zero", "one_ulp", "rank_tol"])
    def test_any_other_bits_or_cutoff_recompute(self, change, rng, dsyevd_calls):
        k = np.zeros((9, 9))  # two blocks, so k[0, 8] is an exact +0.0
        k[:5, :5], k[5:, 5:] = random_psd(rng, 5, rank=3), random_psd(rng, 4, rank=2)
        first = canonical_sqrt(k)
        other, rank_tol = k.copy(), None
        if change == "negative_zero":
            other[0, 8] = -0.0
        elif change == "one_ulp":
            other[2, 3] = np.nextafter(other[2, 3], np.inf)
        else:
            rank_tol = 1e-6
        again = canonical_sqrt(other, rank_tol)
        assert again is not first and len(dsyevd_calls) == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_still_raises(self, bad, rng):
        k = random_psd(rng, 6)
        factor = canonical_sqrt(k)
        k[1, 1] = bad
        for _ in range(2):
            with pytest.raises(ValueError, match="infs or NaNs"):
                canonical_sqrt(k)
        # a miss drops the entry before it eigendecomposes, though the
        # factor is alive
        assert psd._memo is None and factor.rank == 6

    def test_collected_factor_leaves_no_snapshot(self, rng):
        factor = canonical_sqrt(random_psd(rng, 7))
        assert psd._memo is not None
        del factor
        gc.collect()
        assert psd._memo is None

    def test_factor_arrays_are_read_only(self, rng):
        factor = canonical_sqrt(random_psd(rng, 5, rank=3))
        for array in (factor.factor, factor.eigenvalues, factor.basis()):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_recomputed_factor_has_the_memoized_bits(self, rng, dsyevd_calls):
        k = random_psd(rng, 30, rank=20)
        first = canonical_sqrt(k)
        canonical_sqrt(random_psd(rng, 30))  # evicts k's entry
        again = canonical_sqrt(k)
        assert again is not first and len(dsyevd_calls) == 3
        assert again.factor.tobytes() == first.factor.tobytes()
        assert again.eigenvalues.tobytes() == first.eigenvalues.tobytes()

    def test_peak_memory_is_no_higher_than_without_the_memo(self, rng):
        def unmemoized(matrix):
            values, vectors = eig_psd(matrix)
            psd._pin(values, vectors)
            return PsdFactor(vectors * np.sqrt(values), values)

        def peak(fn, matrix):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                result = fn(matrix)
                return tracemalloc.get_traced_memory()[1] - base, result
            finally:
                tracemalloc.stop()

        k = random_psd(rng, 400)
        held = canonical_sqrt(random_psd(rng, 400))  # a live entry for another matrix
        baseline, expected = peak(unmemoized, k)
        memoized, factor = peak(canonical_sqrt, k)
        assert memoized <= baseline
        assert factor.factor.tobytes() == expected.factor.tobytes()


class TestCanonicalizeFactor:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rotation_invariance_of_gram(self, seed):
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        a = rng.normal(size=(n, p))
        omega = random_orthogonal(rng, p)
        gram_a = canonicalize_factor(a).gram()
        gram_rot = canonicalize_factor(a @ omega).gram()
        assert np.linalg.norm(gram_a - gram_rot) <= 1e-10 * max(1.0, np.linalg.norm(gram_a))

    def test_gram_overflow_raises_and_underflow_leaves_the_rank(self):
        # singular values 1e155 and 1e-170: the first squares to inf, the
        # second to 0, which adds nothing to A A^T in doubles
        with pytest.raises(ValueError, match="overflows"):
            canonicalize_factor(np.diag([1e155, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = canonicalize_factor(np.diag([1e-150, 1e-170]), rank_tol=0.0)
        assert out.rank == 1 and out.eigenvalues[0] == pytest.approx(1e-300, rel=1e-15)
        assert np.isfinite(out.basis()).all()

    def test_rejects_non_finite(self):
        # SVD used to fail with "did not converge" instead
        with pytest.raises(ValueError, match="infs or NaNs"):
            canonicalize_factor(np.array([[1.0], [np.nan]]))

    def test_zero_column_dropped(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert canonicalize_factor(a).rank == 1

    def test_anomaly_reconstructs_empirical_covariance(self, rng):
        members = rng.normal(size=(5, 8))
        deviations = members - members.mean(axis=1, keepdims=True)
        anomaly = deviations / np.sqrt(7)
        factor = canonicalize_factor(anomaly)
        emp = np.cov(members)  # divisor E-1
        assert np.linalg.norm(factor.gram() - emp) <= 1e-12 * np.linalg.norm(emp)


class TestCanonicalizationLeavesInputsAlone:
    """Signs and ties are fixed in place, on arrays each function owns."""

    SPECTRA = {"full": lambda rng: random_psd(rng, 6),
               "truncated": lambda rng: random_psd(rng, 6, rank=3),
               "tied": lambda rng: np.diag([3.0, 1.0, 3.0, 1.0, 1.0, 0.0]),
               # one block of ties
               "equal": lambda rng: 2.0 * np.eye(6)}

    @pytest.mark.parametrize("spectrum", SPECTRA)
    @pytest.mark.parametrize("case", ["eig_psd", "canonical_sqrt", "in_basis",
                                      "canonicalize_factor"])
    def test_inputs_unchanged_and_unshared(self, case, spectrum, rng):
        k = self.SPECTRA[spectrum](rng)
        basis = random_orthogonal(rng, 8)[:, :6]
        run = {"eig_psd": lambda: eig_psd(k),
               "canonical_sqrt": lambda: canonical_sqrt(k),
               "in_basis": lambda: psd.canonical_sqrt_in_basis(basis, k),
               "canonicalize_factor": lambda: canonicalize_factor(k)}[case]
        before = k.tobytes(), basis.tobytes()
        out = run()
        if isinstance(out, PsdFactor):
            out = out.factor, out.eigenvalues
        assert (k.tobytes(), basis.tobytes()) == before
        for result in out:
            assert not np.shares_memory(result, k)
            assert not np.shares_memory(result, basis)


def _pinned_copy(values, vectors):
    out = np.array(vectors)
    psd._pin(values, out)
    return out


class TestCanonicalForm:
    """Every canonical factor has its columns pinned: each column's
    largest-magnitude entry is positive, and columns of exactly equal
    eigenvalues come in ascending order of their entries."""

    SPECTRA = TestCanonicalizationLeavesInputsAlone.SPECTRA

    @staticmethod
    def _factor(case, k, basis):
        if case == "canonical_sqrt":
            return canonical_sqrt(k)
        if case == "in_basis":
            return psd.canonical_sqrt_in_basis(basis, k)
        if case == "canonicalize_factor":
            return canonicalize_factor(k)
        # every mode of k, by count and by energy; the tied spectrum's
        # blocks are then cut nowhere, so both must equal canonical_sqrt's
        rank = canonical_sqrt(k).rank
        return kl_truncate(k, rank if case == "kl_count" else 1.0).factor

    @pytest.mark.parametrize("spectrum", SPECTRA)
    @pytest.mark.parametrize("case", ["canonical_sqrt", "in_basis", "canonicalize_factor",
                                      "kl_count", "kl_energy"])
    def test_signs_ties_and_zeros_pinned(self, case, spectrum, rng):
        k = self.SPECTRA[spectrum](rng)
        # two zero rows, so every embedded column B Z has exact zeros
        basis = np.vstack([random_orthogonal(rng, 6), np.zeros((2, 6))])
        out = self._factor(case, k, basis)
        factor, values = out.factor, out.eigenvalues
        assert values.size and (values[:-1] >= values[1:]).all()
        lead = np.argmax(np.abs(factor), axis=0)
        assert (factor[lead, np.arange(values.size)] > 0).all()
        for i in np.flatnonzero(values[1:] == values[:-1]).tolist():
            assert tuple(factor[:, i]) <= tuple(factor[:, i + 1])
        if case == "in_basis":
            assert not np.signbit(factor[factor == 0.0]).any()
        if case.startswith("kl"):
            reference = canonical_sqrt(k)
            assert factor.tobytes() == reference.factor.tobytes()

    def test_kl_truncate_settles_a_tie_block_across_its_cut(self):
        # dsyevd leaves the tied unit columns here out of the pinned order
        k = np.diag([1.0, 3.0, 1.0, 1.0, 3.0, 0.0])
        full = canonical_sqrt(k)
        for count in range(1, 6):
            modes = kl_truncate(k, count).factor
            assert modes.factor.tobytes() == full.factor[:, :count].tobytes()

    def test_eig_psd_columns_are_pinned_by_canonical_sqrt(self):
        # eig_psd's columns keep dsyevd's signs and tie order; canonical_sqrt
        # pins them over the whole kept spectrum and then scales them
        k = np.diag([1.0, 3.0, 1.0, 1.0, 3.0, 0.0])
        values, vectors = eig_psd(k)
        full = canonical_sqrt(k)
        assert values.tobytes() == full.eigenvalues.tobytes()
        pinned = _pinned_copy(values, vectors)
        assert (pinned * np.sqrt(values)).tobytes() == full.factor.tobytes()


class TestTwoPassReference:
    """condition's posterior factor is bit for bit the two-pass recipe of
    pinning Z, embedding it and pinning B Z again, with zeros made +0.0:
    pinning B Z once gives the same columns whatever signs dsyevd gave Z."""

    @staticmethod
    def _priors(rng, n):
        levels = np.array([3.0, 1.0, 0.0])[np.arange(n) % 3]
        rotation = random_orthogonal(rng, n)
        return {"cI": 1.5 * np.eye(n),
                "two-repeated": np.diag(np.where(np.arange(n) % 2, 0.5, 2.0)),
                "rotated-three-level": (rotation * levels) @ rotation.T}

    @pytest.mark.parametrize("n", [3, 6, 12, 40])
    @pytest.mark.parametrize("prior_kind", ["cI", "two-repeated", "rotated-three-level"])
    @pytest.mark.parametrize("h_kind", ["point", "dense"])
    def test_condition_matches_two_pass_recipe(self, n, prior_kind, h_kind, rng,
                                               monkeypatch):
        prior = GaussianLaw.from_moments(np.zeros(n), self._priors(rng, n)[prior_kind])
        m = max(1, n // 3)
        h = np.eye(n)[::3][:m] if h_kind == "point" else rng.normal(size=(m, n))
        obs = ObservationModel(h, 0.25 * np.eye(m))
        seen = []
        real = psd.canonical_sqrt_in_basis

        def record(basis, core, rank_tol=None, scale_floor=0.0):
            seen.append((np.array(basis), np.array(core), rank_tol, scale_floor))
            return real(basis, core, rank_tol, scale_floor)

        monkeypatch.setattr(psd, "canonical_sqrt_in_basis", record)
        posterior = condition(prior, obs, rng.normal(size=m))
        (basis, core, rank_tol, scale_floor), = seen
        values, z = eig_psd(core, psd._rank_tol(rank_tol, n), scale_floor)
        reference = _pinned_copy(values, basis @ _pinned_copy(values, z))
        reference = reference * np.sqrt(values) + 0.0
        assert posterior.cov_factor.eigenvalues.tobytes() == values.tobytes()
        assert posterior.cov_factor.factor.tobytes() == reference.tobytes()


class TestRangeProjector:
    def test_full_rank_is_identity(self, rng):
        u = canonical_sqrt(random_psd(rng, 4)).basis()
        np.testing.assert_allclose(u @ u.T, np.eye(4), atol=1e-12)

    def test_rank_zero_is_zero(self):
        u = canonical_sqrt(np.zeros((3, 3))).basis()
        np.testing.assert_array_equal(u @ u.T, np.zeros((3, 3)))

    def test_single_axis(self):
        u = canonicalize_factor(np.array([[1.0], [0.0], [0.0]])).basis()
        np.testing.assert_allclose(u @ u.T, np.diag([1.0, 0.0, 0.0]), atol=1e-14)

    def test_projector_properties(self, rng):
        u = canonical_sqrt(random_psd(rng, 6, rank=3)).basis()
        p = u @ u.T
        assert np.linalg.norm(p @ p - p) <= 1e-12
        assert np.linalg.norm(p - p.T) <= 1e-12

    @pytest.mark.parametrize("rank", (0, 3))
    def test_basis_computed_once_and_read_only(self, rng, rank):
        factor = canonical_sqrt(random_psd(rng, 6, rank=rank))
        u = factor.basis()
        assert factor.basis() is u
        assert not u.flags.writeable
        with pytest.raises(ValueError):
            u[...] = 0.0
        expected = factor.factor / np.sqrt(factor.eigenvalues) if rank else np.zeros((6, 0))
        assert same_bits(u, expected)



def same_bits(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


LAPACK_SIZES = (0, 1, 2, 5, 20, 60)


def spd_and_rhs(n):
    rng = np.random.default_rng(1000 + n)
    b = rng.normal(size=(n, n))
    return b @ b.T + n * np.eye(n), rng.normal(size=n), rng.normal(size=(n, 3))


class TestLapackHelpers:
    """The LAPACK helpers reproduce scipy.linalg's wrappers bit for bit."""

    @pytest.mark.parametrize("n", LAPACK_SIZES)
    def test_cholesky_matches_scipy(self, n):
        a, _, _ = spd_and_rhs(n)
        c = _chol_lower(a)
        assert same_bits(c, scipy.linalg.cho_factor(a, lower=True)[0])
        assert same_bits(np.tril(c), scipy.linalg.cholesky(a, lower=True))

    @pytest.mark.parametrize("n", LAPACK_SIZES)
    @pytest.mark.parametrize("order", ("C", "F"))
    def test_chol_solve_matches_scipy(self, n, order):
        a, rhs_1d, rhs_2d = spd_and_rhs(n)
        c = np.asarray(_chol_lower(a), order=order)
        for rhs in (rhs_1d, rhs_2d):
            assert same_bits(_chol_solve(c, rhs), scipy.linalg.cho_solve((c, True), rhs))

    @pytest.mark.parametrize("n", LAPACK_SIZES)
    def test_tril_solve_matches_scipy(self, n):
        a, rhs_1d, rhs_2d = spd_and_rhs(n)
        c = _chol_lower(a)
        for rhs in (rhs_1d, rhs_2d):
            assert same_bits(_tril_solve(c, rhs),
                             scipy.linalg.solve_triangular(c, rhs, lower=True))

    @pytest.mark.parametrize("n", LAPACK_SIZES + (psd._POTRI_MIN - 1, psd._POTRI_MIN, 100))
    def test_chol_inverse_matches_scipy(self, n):
        """solve_triangular's X^T X, or potri mirrored, through scipy.linalg;
        exactly symmetric at every size."""
        a, _, _ = spd_and_rhs(n)
        c = _chol_lower(a)
        inv = _chol_inverse(c)
        assert inv.shape == (n, n) and same_bits(inv, inv.T)
        assert same_bits(inv, chol_inverse_reference(c))

    def test_small_chol_inverses_keep_their_bits_at_two_threads(self):
        """Up to r = 64, beyond the corpus's and the CLI snapshot's ranks,
        the inverse has the same bits at one and at two OpenBLAS threads
        (potri's do not, from r = 8), so the audit's small cores do not
        depend on the thread count."""
        script = ("import hashlib, numpy as np\n"
                  "from enscgp.psd import _chol_inverse, _chol_lower\n"
                  "rng = np.random.default_rng(5)\n"
                  "h = hashlib.sha256()\n"
                  "for r in range(1, 65):\n"
                  "    b = rng.normal(size=(r, r))\n"
                  "    h.update(_chol_inverse(_chol_lower(b @ b.T / r + np.eye(r))).tobytes())\n"
                  "print(h.hexdigest())\n")
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            result = subprocess.run([sys.executable, "-c", script], env=env,
                                    capture_output=True, text=True)
            assert result.returncode == 0, result.stderr
            digests.append(result.stdout)
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("n", (3, psd._POTRI_MIN))
    def test_chol_inverse_of_a_diagonal_factor(self, n):
        # every off-diagonal zero is +0.0 (OpenBLAS's potri at n = 3 leaves
        # -0.0 in the strict lower triangle)
        d = np.resize([4.0, 1.0, 0.0625], n)
        assert same_bits(_chol_inverse(_chol_lower(np.diag(d))), np.diag(1.0 / d))

    def test_triangular_solve_ignores_upper_triangle(self):
        # the factor keeps the input in its upper triangle
        a, rhs, _ = spd_and_rhs(5)
        c = _chol_lower(a)
        assert same_bits(_tril_solve(c, rhs), _tril_solve(np.asfortranarray(np.tril(c)), rhs))

    def test_non_finite_rejected(self):
        # the solves check only b: their factor comes from _chol_lower,
        # which checked the matrix it factored
        a, rhs, _ = spd_and_rhs(3)
        c = _chol_lower(a)
        for bad in (np.nan, np.inf, -np.inf):
            a_bad, rhs_bad = a.copy(), rhs.copy()
            a_bad[2, 2] = rhs_bad[1] = bad
            for call in (lambda: _chol_lower(a_bad),
                         lambda: _chol_solve(c, rhs_bad),
                         lambda: _tril_solve(c, rhs_bad)):
                with pytest.raises(ValueError, match="infs or NaNs"):
                    call()

    def test_every_tril_solve_factor_comes_from_chol_lower(self, rng, monkeypatch):
        # _tril_solve and _chol_inverse leave their factor unchecked; that is
        # safe only while every factor they are given is one _chol_lower
        # returned
        factors, solved_with, inverted = [], [], []

        def chol_lower(a):
            factors.append(_chol_lower(a))
            return factors[-1]

        def tril_solve(c, b):
            solved_with.append(c)
            return _tril_solve(c, b)

        def chol_inverse(c):
            inverted.append(c)
            return _chol_inverse(c)

        for module in (gaussian, quadprog):
            monkeypatch.setattr(module, "_chol_lower", chol_lower)
        monkeypatch.setattr(gaussian, "_tril_solve", tril_solve)
        monkeypatch.setattr(gaussian, "_chol_inverse", chol_inverse)
        for index in range(9):  # every prior kind against every operator kind
            prior, obs, y = make_instance(index)
            assert run_equivalence(prior, obs, y).passed
            obs.whiten(rng.normal(size=(obs.n_obs, 2)))
        assert solved_with and inverted
        assert all(any(c is f for f in factors) for c in solved_with + inverted)

    def test_indefinite_and_singular_raise_linalg_error(self):
        with pytest.raises(np.linalg.LinAlgError):
            _chol_lower(np.diag([1.0, -1.0]))
        with pytest.raises(np.linalg.LinAlgError):
            _tril_solve(np.diag([1.0, 0.0]), np.ones(2))
