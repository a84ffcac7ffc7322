"""Dense linear-algebra substrate: null spaces, minimum-norm solves, numerical rank.

Everything here is a pure function of its inputs.  Instances in scope are
dense and small (at most a few thousand rows), so all routines factorize
with a full SVD and apply relative singular-value thresholds.
nullspace_solve takes a null space, a minimum-norm solution and the
singular values from one SVD, and refuses no matrix for its rank: its
caller refuses a slice by its singular values, check_rank for rank,
check_bordered for conditioning.

nullspace_solve and numerical_rank also take a stack of matrices on
leading axes.  numpy's batched SVD and its (..., n, 1) matmuls run the
same per-slice kernels as a single call, so each slice of a stacked
result is bit for bit the result of calling on that slice alone.
Non-finite input raises DomainError before any factorization.
"""

import numpy as np

from .errors import DegenerateData, DomainError

# Relative singular-value cutoff used by rank and null-space routines.
DEFAULT_RANK_TOL = 1e-10

_SIGN_TOL = 1e-12


def _check_finite(*arrays):
    for a in arrays:
        if not np.isfinite(a).all():
            raise DomainError("linear-algebra input has non-finite entries")


def _rank(s, rel_tol):
    """Singular values above rel_tol times the largest, counted per stack slice."""
    return (s > rel_tol * s[..., :1]).sum(axis=-1)


def _matvec(A, x):
    """A @ x for a stack of matrices (..., m, n) and vectors (..., n)."""
    return (A @ x[..., None])[..., 0]


def nullspace_solve(M, b):
    """Null-space basis of M (..., k, d), the minimum-norm x with M x = b, and M's singular values.

    One SVD gives all three; x gets one step of iterative refinement.
    Returns (basis, x, s): basis (..., d, d - k) and x are meaningful only
    for a slice of full row rank, which check_rank(s) tells.  x lies in the
    row space of M, so it also solves [M; v] x = [b; 0] for every unit v in
    the null space, and that bordered system's singular values are those of
    M and 1 (check_bordered).

    Raises
    ------
    DomainError
        If M or b has a non-finite entry.
    DegenerateData
        If k >= d: the null space of a full-row-rank M is trivial.
    """
    M = np.asarray(M, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_finite(M, b)
    k = M.shape[-2]
    if k >= M.shape[-1]:
        raise DegenerateData("null space is trivial")
    U, s, Vt = np.linalg.svd(M, full_matrices=True)
    Ut, V = U.swapaxes(-1, -2), Vt[..., :k, :].swapaxes(-1, -2)
    # inf and nan arise only in slices that check_rank or check_bordered refuses
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = _matvec(V, _matvec(Ut, b) / s)
        x = x + _matvec(V, _matvec(Ut, b - _matvec(M, x)) / s)
    return Vt[..., k:, :].swapaxes(-1, -2), x, s


def check_rank(s):
    """Refuse M, its singular values s (k,), if fewer than k exceed 1e-10 * the largest."""
    if _rank(s, DEFAULT_RANK_TOL) < len(s):
        raise DegenerateData(f"rank(M) < {len(s)} at relative tolerance {DEFAULT_RANK_TOL:g}")


def check_bordered(s):
    """Refuse M, its singular values s, if the bordered [M; v] is ill-conditioned: of s and 1,
    the smallest below 1e-12 * the largest."""
    largest, smallest = max(s[0], 1.0), min(s[-1], 1.0)
    if smallest < 1e-12 * largest:
        raise DegenerateData(f"smallest singular value {smallest:.3e} below 1e-12 * {largest:.3e}")


def canonical_sign(v):
    """Flip v so its first coordinate exceeding 1e-12 in magnitude is positive."""
    v = np.asarray(v, dtype=float)
    for vi in v:
        if abs(vi) > _SIGN_TOL:
            return -v if vi < 0 else v
    return v


def numerical_rank(M, rel_tol=DEFAULT_RANK_TOL):
    """Number of singular values above rel_tol times the largest; 0 for the zero matrix.

    For a stack (..., m, n), an integer array of the slices' ranks.

    Raises
    ------
    DomainError
        If M has a non-finite entry.
    """
    M = np.asarray(M, dtype=float)
    _check_finite(M)
    ranks = _rank(np.linalg.svd(M, compute_uv=False), rel_tol)
    return int(ranks) if M.ndim == 2 else ranks
