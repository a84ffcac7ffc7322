"""Dense linear-algebra substrate: null spaces, minimum-norm solves, numerical rank.

Everything here is a pure function of its inputs.  Instances in scope are
dense and small (at most a few thousand rows), so all routines factorize
with a full SVD and apply relative singular-value thresholds: the rank rule
is _rank, the conditioning rule check_bordered.  nullspace_solve takes a
null space and a minimum-norm solution from one SVD.

nullspace_basis, nullspace_solve and numerical_rank also take a stack of
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


def _null_svd(M):
    """The SVD of M (..., k, d) with all of V, and the rank its slices share."""
    M = np.asarray(M, dtype=float)
    _check_finite(M)
    U, s, Vt = np.linalg.svd(M, full_matrices=True)
    ranks = _rank(s, DEFAULT_RANK_TOL)
    rank = int(np.max(ranks, initial=0))
    if np.any(ranks != rank):
        raise DegenerateData("null-space dimension varies over the stack")
    if rank >= M.shape[-1]:
        raise DegenerateData("null space is trivial")
    return U, s, Vt, rank


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
    _, _, Vt, rank = _null_svd(M)
    return Vt[..., rank:, :].swapaxes(-1, -2)


def nullspace_solve(M, b):
    """Null-space basis of a full-row-rank M (..., k, d) and the minimum-norm x with M x = b.

    One SVD gives both; x gets one step of iterative refinement.  x lies in
    the row space of M, so it also solves [M; v] x = [b; 0] for every unit v
    in the null space, and that bordered system's singular values are those
    of M and 1.  Returns (basis, x, bordered), bordered (..., 2) holding
    their largest and smallest, for check_bordered.  Raises as
    nullspace_basis (b too), and DegenerateData if a slice's rank is below k.
    """
    M = np.asarray(M, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_finite(b)
    U, s, Vt, rank = _null_svd(M)
    if rank < M.shape[-2]:
        raise DegenerateData(f"rank(M) < {M.shape[-2]} at relative tolerance {DEFAULT_RANK_TOL:g}")
    Ut, V = U.swapaxes(-1, -2), Vt[..., :rank, :].swapaxes(-1, -2)
    with np.errstate(over="ignore", invalid="ignore"):  # only where check_bordered refuses
        x = _matvec(V, _matvec(Ut, b) / s)
        x = x + _matvec(V, _matvec(Ut, b - _matvec(M, x)) / s)
    bordered = np.stack([np.maximum(s[..., 0], 1.0), np.minimum(s[..., -1], 1.0)], axis=-1)
    return Vt[..., rank:, :].swapaxes(-1, -2), x, bordered


def check_bordered(bordered):
    """Refuse an ill-conditioned bordered system: smallest singular value below 1e-12 * largest."""
    largest, smallest = bordered
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
