"""Symmetric positive-semidefinite linear algebra.

Eigendecomposition with explicit numerical-rank decisions and canonical
square roots (with their pseudoinverse). Everything downstream
(conditioning, quadratic solves, RKHS geometry) is built on the factored
form produced here. Every rank decision follows one rule (below), and
eigenvector signs and tie-breaking are pinned in every factor this module
builds (:func:`canonical_sqrt`, :func:`canonical_sqrt_in_basis` and
:func:`canonicalize_factor`), which keeps those outputs reproducible across
runs. ``kernels.kl_truncate`` keeps the leading columns of
:func:`canonical_sqrt`'s factor, so the KL modes are pinned here too, over
the whole kept spectrum before the cut.

:func:`canonical_sqrt` keeps a one-entry memo, so a workflow that factors
a prior K and then cuts its KL modes eigendecomposes K once: a call whose
input is bitwise equal to the last call's (compared as int64, so a -0.0
for a +0.0 is another matrix), with the same resolved ``rank_tol``,
returns that call's factor itself while the factor is alive. The memo
holds a copy of the input, taken after the factor is built, and a weak
reference to the factor; both go when the factor is collected, so nothing
outlives the caller's own reference. The arrays of a factor that
:func:`canonical_sqrt` returns are read-only, like :meth:`PsdFactor.basis`,
since callers may share it.

The work is split once: :func:`eig_psd` decides the rank and returns the
kept columns unpinned, so its columns' signs, and their order within a
block of equal eigenvalues, are those of the LAPACK build. Each
constructor that keeps columns pins them once: each column's
largest-magnitude entry positive, and columns of exactly equal eigenvalues
in ascending order of their entries. :func:`canonical_sqrt_in_basis` pins
only the embedded columns and makes every zero of its factor +0.0.

Rank convention: an eigenvalue (or singular value) counts toward the rank
when it exceeds ``rank_tol * largest_magnitude_eigenvalue``. The default
``rank_tol`` is ``max(n_rows, n_cols) * machine_epsilon``, the standard
numerical-rank rule. All ``rank_tol`` arguments in this package are this
relative cutoff, and every rank decision is made here: one private rule
resolves ``rank_tol`` for :func:`eig_psd`, :func:`canonical_sqrt_in_basis`
and :func:`canonicalize_factor`, and every symmetric eigendecomposition in
the package is :func:`eig_psd`'s. The one exception is a check, not a rank
decision: ``experiments.repeated_reuse`` takes spectral norms with
``np.linalg.eigvalsh``.

Every norm in the package is :func:`_norm` (np.linalg.norm's, of a vector
or a whole matrix; a caller that wants column norms takes one per column):
where the sum of squares is a finite normal number it is numpy's formula,
bit for bit, and where it is not, the entries are rescaled by a power of
two, so a norm is in range whenever it is itself a finite double, and a
NaN entry gives NaN.

This module is also the package's only caller of LAPACK's symmetric
eigensolver, Cholesky and triangular-solve kernels (``dsyevd``, ``dpotrf``,
``dpotrs``, ``dtrtrs``): :func:`eig_psd` calls ``dsyevd`` (divide and
conquer, the kernel behind ``np.linalg.eigh``), and three private helpers
call the others, all with scipy.linalg's arguments but without its or
numpy's per-call wrapper work. Like scipy's default, they reject
non-finite input with ``ValueError``; so do :func:`eig_psd` and
:func:`canonicalize_factor`.

The kernels are bound from scipy's compiled f2py module
``scipy.linalg._flapack``, loaded from its file without running the
``scipy.linalg`` package ``__init__``: that package import (which pulls in
numpy.ma, numpy.testing, numpy.f2py and numpy.polynomial) costs about
250 ms and 18 MiB in every process, half the start-up of a CLI command.
The module is registered in ``sys.modules`` under its own name, so a later
``import scipy.linalg`` reuses it: ``scipy.linalg.lapack.dpotrf`` is the
very object used here, and results are bitwise those of scipy's wrappers.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy  # runs scipy's distributor set-up, which the extension may need

from .errors import DimensionError, NotPsdError

EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # the smallest normal double


def _flapack_kernels():
    """(dsyevd, dpotrf, dpotrs, dtrtrs) of scipy.linalg._flapack, loaded by
    file location."""
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        linalg_dir = os.path.join(os.path.dirname(scipy.__file__), "linalg")
        spec = importlib.machinery.PathFinder.find_spec(name, [linalg_dir])
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module.dsyevd, module.dpotrf, module.dpotrs, module.dtrtrs


dsyevd, dpotrf, dpotrs, dtrtrs = _flapack_kernels()


def default_rank_tol(n_rows: int, n_cols: int | None = None) -> float:
    """Default relative spectral cutoff: max(rows, cols) * machine epsilon."""
    if n_cols is None:
        n_cols = n_rows
    return max(int(n_rows), int(n_cols)) * EPS


def _rank_tol(rank_tol: float | None, n_rows: int, n_cols: int | None = None) -> float:
    """``rank_tol``, or the default for the shape; negative or NaN raises."""
    if rank_tol is None:
        return default_rank_tol(n_rows, n_cols)
    if not rank_tol >= 0:
        raise ValueError("rank_tol must be nonnegative")
    return rank_tol


def symmetrize(matrix) -> np.ndarray:
    """Return (M + M^T)/2 as a float array; rejects non-square input."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return (m + m.T) / 2.0


def _check_finite(*arrays: np.ndarray) -> None:
    for x in arrays:
        if not np.isfinite(x).all():
            raise ValueError("array must not contain infs or NaNs")


def _dot_sq(x: np.ndarray) -> float:
    # np.vdot is the ddot np.linalg.norm takes, so the same bits, but it
    # does not warn on overflow
    return float(np.vdot(x, x))


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm(x) (Frobenius for a matrix), in range at any scale.

    Where the sum of squares is a finite normal number the result has
    np.linalg.norm's bits. Otherwise x is scaled by the power of two
    nearest above its largest magnitude, which is exact (Blue 1978;
    LAPACK's ``dnrm2``), and the norm scaled back: inf only when the norm
    itself overflows, NaN for a NaN entry.
    """
    x = x.ravel(order="K")
    sq = _dot_sq(x)
    if _TINY <= sq < math.inf:
        return math.sqrt(sq)
    big = float(np.max(np.abs(x), initial=0.0))
    if not 0.0 < big < math.inf:
        return big  # all zeros, an infinite entry or a NaN
    exponent = math.frexp(big)[1]
    try:
        return math.ldexp(math.sqrt(_dot_sq(np.ldexp(x, -exponent))), exponent)
    except OverflowError:
        return math.inf


def _lapack_info(info: int, routine: str) -> None:
    if info > 0:
        raise np.linalg.LinAlgError(f"{routine} failed at step {info}: "
                                    "matrix is not positive definite or is singular")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")


def _chol_lower(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L (L L^T = a) of a float64 SPD matrix, by potrf.

    As with scipy's ``cho_factor``, a's strict upper triangle is left in the
    returned array; the two solves below read only the lower triangle, and
    any other reader takes ``np.tril`` of it. Raises ``LinAlgError`` when a
    is not positive definite.
    """
    _check_finite(a)
    if a.size == 0:
        return np.empty_like(a, dtype=float)
    c, info = dpotrf(a, lower=1, clean=0)
    _lapack_info(info, "potrf")
    return c


def _chol_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(L L^T)^(-1) b for a lower factor from :func:`_chol_lower`, by potrs.

    Only b is checked for finiteness: every c comes from :func:`_chol_lower`,
    which checked its input, and a cached factor (R's) is solved with often.
    """
    _check_finite(b)
    if b.size == 0:
        return np.empty_like(b, dtype=float)
    x, info = dpotrs(c, b, lower=1)
    _lapack_info(info, "potrs")
    return x


def _tril_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L^(-1) b for a lower factor from :func:`_chol_lower`, by trtrs.

    potrf returns a Fortran-ordered factor, which trtrs takes as it is. As
    in :func:`_chol_solve`, only b is checked for finiteness: every c comes
    from :func:`_chol_lower`, and R's cached factor whitens often.
    """
    _check_finite(b)
    if b.size == 0:
        return np.empty_like(b, dtype=float)
    x, info = dtrtrs(c, b, lower=1)
    _lapack_info(info, "trtrs")
    return x


def _fix_signs(vectors: np.ndarray) -> None:
    """Make each column's largest-magnitude entry positive (deterministic
    basis), in place."""
    if vectors.shape[1] == 0:
        return
    # a column-major |V| lets argmax walk each column in place, without the
    # copy it makes of a row-major one
    lead = np.abs(vectors, order="F").argmax(axis=0)
    # a lead entry is zero only in a column of zeros, whose np.sign, +0.0,
    # leaves every entry as it is
    vectors *= np.sign(vectors[lead, np.arange(vectors.shape[1])])


def _pin(values: np.ndarray, vectors: np.ndarray) -> None:
    """Pin the columns of ``vectors`` for descending ``values``, in place:
    each column's largest-magnitude entry made positive, and columns of
    exactly equal values put in ascending order of their entries.

    ``vectors`` must be an array the caller owns (an :func:`eig_psd` or SVD
    result, a fresh product).
    """
    _fix_signs(vectors)
    if not (values[1:] == values[:-1]).any():
        return
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[j + 1] == values[i]:
            j += 1
        if j > i:
            block = vectors[:, i : j + 1]
            perm = sorted(range(block.shape[1]), key=lambda c: tuple(block[:, c]))
            vectors[:, i : j + 1] = block[:, perm]
        i = j + 1


def eig_psd(matrix, rank_tol: float | None = None, scale_floor: float = 0.0):
    """Eigendecompose a PSD matrix with a numerical rank decision.

    Returns ``(eigenvalues, eigenvectors)``: the eigenvalues above threshold
    in descending order (their count is the rank) and the matching
    orthonormal columns, as one new C-ordered array. The columns are not
    pinned: their signs, and their order within a block of equal
    eigenvalues, are dsyevd's and so depend on the LAPACK build. The
    constructors that keep them (:func:`canonical_sqrt`,
    :func:`canonical_sqrt_in_basis`) pin them once. The matrix is symmetrized
    first. Raises :class:`NotPsdError` when some eigenvalue falls below
    minus the effective threshold, and ``ValueError`` on non-finite entries
    (a NaN matrix would otherwise come out as rank 0).

    ``scale_floor`` lets callers anchor the threshold to the scale of the
    computation that produced the matrix (e.g. the prior spectrum when
    factoring a posterior covariance), since round-off lives at that scale
    rather than at the output's own.
    """
    k = symmetrize(matrix)
    _check_finite(k)
    rank_tol = _rank_tol(rank_tol, k.shape[0])
    if k.shape[0] == 0:
        return np.zeros(0), np.zeros((0, 0))
    # k is symmetric and ours, so its transpose is the Fortran-ordered
    # input dsyevd overwrites with the eigenvectors, without a copy
    values, vectors, info = dsyevd(k.T, compute_v=1, lower=1, overwrite_a=1)
    if info > 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    _lapack_info(info, "syevd")
    # dsyevd's values ascend, so the largest magnitude is at one end
    scale = max(abs(float(values[0])), abs(float(values[-1])), float(scale_floor))
    threshold = rank_tol * scale
    if values[0] < -threshold:
        raise NotPsdError(
            f"matrix has eigenvalue {values[0]:.3e} below -{threshold:.3e}; not PSD"
        )
    # the kept values are the top end; one reversed copy of each frees the
    # rest of dsyevd's arrays
    kept = slice(values.size - np.count_nonzero(values > threshold), None)
    return values[kept][::-1].copy(), vectors[:, kept][:, ::-1].copy()


@dataclass(frozen=True)
class PsdFactor:
    """Canonical square root of a PSD matrix: K = factor @ factor.T.

    The factor is U_r diag(sqrt(eigenvalues)); its columns are mutually
    orthogonal with squared norms equal to the (positive, descending)
    eigenvalues. ``rank`` may be zero, in which case ``factor`` has no
    columns.
    """

    factor: np.ndarray
    eigenvalues: np.ndarray

    @property
    def dim(self) -> int:
        return self.factor.shape[0]

    @property
    def rank(self) -> int:
        return self.eigenvalues.size

    def gram(self) -> np.ndarray:
        """Reconstruct K = A A^T; numpy's product of A with its own
        transpose is exactly symmetric."""
        return self.factor @ self.factor.T

    def basis(self) -> np.ndarray:
        """Orthonormal basis U_r of Range(K), shape (dim, rank).

        Computed on the first call and returned, read-only, by every later
        one: one audit asks for the same prior's basis six times.
        """
        return self._basis

    @cached_property
    def _basis(self) -> np.ndarray:
        u = self.factor / np.sqrt(self.eigenvalues)
        u.flags.writeable = False
        return u

    def pinv(self) -> np.ndarray:
        """Moore-Penrose pseudoinverse U_r diag(1/eigenvalues) U_r^T."""
        u = self.basis()
        return symmetrize((u / self.eigenvalues) @ u.T)


# canonical_sqrt's one-entry memo: (bits of its last input, resolved
# rank_tol, weakref to the factor returned), or None
_memo: tuple[np.ndarray, float, weakref.ref] | None = None


def _forget(ref: weakref.ref) -> None:
    """Weakref callback: drop the memo once its factor is collected."""
    global _memo
    if _memo is not None and _memo[2] is ref:
        _memo = None


def _memo_hit(matrix, rank_tol: float | None) -> PsdFactor | None:
    """The memoized factor, if ``matrix`` has the snapshot's bits, the
    cutoff resolves to the memo's and the factor is still alive."""
    memo = _memo
    if memo is None:
        return None
    bits, cutoff, ref = memo
    factor = ref()
    if factor is None:
        return None
    m = np.asarray(matrix, dtype=float)
    # int64 views, so a -0.0 where the snapshot has +0.0 is a miss
    if (m.shape != bits.shape or _rank_tol(rank_tol, m.shape[0]) != cutoff
            or not np.array_equal(m.view(np.int64), bits)):
        return None
    return factor


def canonical_sqrt(matrix, rank_tol: float | None = None) -> PsdFactor:
    """Canonical square root A = U_r diag(sqrt(lambda_r)) of a PSD matrix.

    A call whose input is bitwise equal to the previous call's (a -0.0 for
    a +0.0, or an entry one ulp away, is another input), with the same
    resolved ``rank_tol``, returns the previous call's factor itself,
    without an eigendecomposition, as long as that factor is alive. The memo
    holds one entry: a copy of the input, taken after the factor is built
    so that no call's peak memory grows, the cutoff, and a weak reference
    to the factor. A miss drops the old entry before it eigendecomposes,
    and the weak reference's callback drops the entry when the factor is
    collected. The factor's arrays are read-only, since callers may share
    it.
    """
    global _memo
    factor = _memo_hit(matrix, rank_tol)
    if factor is not None:
        return factor
    _memo = None  # the old snapshot is not held through the eigendecomposition
    values, vectors = eig_psd(matrix, rank_tol)
    _pin(values, vectors)
    # scaled into a new array: scaling eig_psd's vectors in place ran slightly
    # faster but raised kernel-dense's peak RSS by 1.8 MiB (2%)
    factor = PsdFactor(factor=vectors * np.sqrt(values), eigenvalues=values)
    del vectors
    factor.factor.flags.writeable = False
    values.flags.writeable = False
    bits = np.array(matrix, dtype=float).view(np.int64)
    _memo = (bits, _rank_tol(rank_tol, bits.shape[0]), weakref.ref(factor, _forget))
    return factor


def canonical_sqrt_in_basis(basis, core, rank_tol: float | None = None,
                            scale_floor: float = 0.0) -> PsdFactor:
    """Canonical square root of B C B^T without forming that n x n matrix.

    ``basis`` B (n x r) has orthonormal columns and ``core`` C is r x r, so
    B C B^T has the eigenvalues of C and the eigenvectors B Z. Only C is
    eigendecomposed, but the rank rule is the one :func:`eig_psd` applies
    to the n x n matrix (default ``rank_tol`` from n). Z comes unpinned from
    :func:`eig_psd`, and signs and ties are pinned once, on the embedded
    n-vectors B Z. A column of B Z changes sign exactly with Z's, so
    pinning gives the same column whatever sign dsyevd chose, except in
    the sign of an exact zero; every zero of the factor is therefore made
    +0.0.
    """
    b = np.asarray(basis, dtype=float)
    values, vectors = eig_psd(core, _rank_tol(rank_tol, b.shape[0]), scale_floor)
    vectors = b @ vectors
    _pin(values, vectors)
    vectors *= np.sqrt(values)
    vectors += 0.0
    return PsdFactor(factor=vectors, eigenvalues=values)


def canonicalize_factor(factor, rank_tol: float | None = None) -> PsdFactor:
    """Canonical form of an arbitrary n x p square-root factor.

    Thin SVD A = U S V^T gives the canonical factor U_r S_r; the Gram
    matrix A A^T is preserved, so any two factors differing by a
    right-rotation canonicalize to the same object (up to column signs,
    which are fixed deterministically). Non-finite entries raise
    ``ValueError``.
    """
    a = np.asarray(factor, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix factor, got shape {a.shape}")
    _check_finite(a)
    n, p = a.shape
    rank_tol = _rank_tol(rank_tol, n, p)
    if p == 0 or n == 0 or not np.any(a):
        return PsdFactor(factor=np.zeros((n, 0)), eigenvalues=np.zeros(0))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    _pin(s, u)  # the singular values already descend
    threshold = rank_tol * float(s[0])
    with np.errstate(over="ignore", under="ignore"):
        values = s * s
    if values[0] == math.inf:
        raise ValueError(f"the factor's Gram matrix overflows: its largest eigenvalue "
                         f"is {float(s[0]):.3e} squared")
    # a value whose square underflows to 0 adds nothing to A A^T in doubles
    rank = int(np.count_nonzero((s > threshold) & (values > 0.0)))
    return PsdFactor(factor=u[:, :rank] * s[:rank], eigenvalues=values[:rank])

