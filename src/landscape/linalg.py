"""Dense linear-algebra substrate: SVD-backed solves, null spaces, numerical rank.

Everything here is a pure function of its inputs.  Instances in scope are
dense and small (at most a few thousand rows), so all routines factorize
with a full SVD and apply relative singular-value thresholds.

solve_linear, nullspace_basis and numerical_rank also take a stack of
matrices on leading axes.  numpy's batched SVD and its (..., n, 1) matmuls
run the same per-slice kernels as a single call, so each slice of a
stacked result is bit for bit the result of calling on that slice alone.
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


def solve_linear(A, b):
    """Solve A x = b for full-row-rank A with m <= n rows, or for each of a stack.

    A is (..., m, n) and b (..., m).  Returns the unique solution when
    square and the minimum-norm solution when underdetermined.  One step
    of iterative refinement keeps the residual near machine precision.

    Raises
    ------
    DomainError
        If A or b has a non-finite entry.
    DegenerateData
        If the smallest singular value of A, or of any slice of a stack, is
        below 1e-12 times the largest; the message quotes the first such slice.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim < 2 or b.shape != A.shape[:-1]:
        raise ValueError("expected A (..., m, n) and b (..., m) with matching m")
    if A.shape[-2] > A.shape[-1]:
        raise ValueError("solve_linear requires m <= n (square or underdetermined)")
    _check_finite(A, b)
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    ill = (s[..., 0] == 0.0) | (s[..., -1] < 1e-12 * s[..., 0])
    if np.any(ill):
        first = s.reshape(-1, s.shape[-1])[np.argmax(ill)]
        raise DegenerateData(
            f"smallest singular value {first[-1]:.3e} below 1e-12 * {first[0]:.3e}"
        )
    Ut, V = U.swapaxes(-1, -2), Vt.swapaxes(-1, -2)
    x = _matvec(V, _matvec(Ut, b) / s)
    return x + _matvec(V, _matvec(Ut, b - _matvec(A, x)) / s)


def nullspace_basis(M):
    """Orthonormal basis (..., d, d - rank) of the null space of a k x d matrix.

    For a stack (..., k, d) every slice must have the same rank; each
    slice of the result is the basis of that slice.

    Raises
    ------
    DomainError
        If M has a non-finite entry.
    DegenerateData
        If the null space is trivial, or its dimension varies over the stack.
    """
    M = np.asarray(M, dtype=float)
    _check_finite(M)
    _, s, Vt = np.linalg.svd(M, full_matrices=True)
    ranks = _rank(s, DEFAULT_RANK_TOL)
    rank = int(np.max(ranks, initial=0))
    if np.any(ranks != rank):
        raise DegenerateData("null-space dimension varies over the stack")
    if rank >= M.shape[-1]:
        raise DegenerateData("null space is trivial")
    return Vt[..., rank:, :].swapaxes(-1, -2)


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
