import numpy as np
import pytest
import scipy.linalg


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_psd(rng, n, rank=None, scale=1.0):
    """Dense PSD matrix with a prescribed rank (defaults to full)."""
    if rank is None:
        rank = n
    b = rng.normal(size=(n, rank)) * scale
    return (b @ b.T + b @ b.T) / 2.0


def random_orthogonal(rng, n):
    """Haar-ish orthogonal matrix from QR with positive diagonal."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def chol_inverse_reference(c):
    """psd._chol_inverse through scipy.linalg: below psd._POTRI_MIN, X^T X
    with X = L^(-1) from solve_triangular; from there on potri's lower
    triangle mirrored, as a sum in which every zero comes out +0.0."""
    from enscgp import psd

    if c.shape[0] < psd._POTRI_MIN:
        x = scipy.linalg.solve_triangular(c, np.eye(c.shape[0]), lower=True)
        return x.T @ x
    lower, info = scipy.linalg.lapack.dpotri(c, lower=1)
    assert info == 0
    return np.tril(lower) + np.tril(lower, -1).T
