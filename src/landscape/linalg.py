"""Dense linear-algebra substrate: SVD-backed solves, null spaces, numerical rank.

Everything here is a pure function of its inputs.  Instances in scope are
dense and small (at most a few thousand rows), so all routines factorize
with a full SVD and apply relative singular-value thresholds.
"""

import numpy as np

from .errors import DegenerateData

# Relative singular-value cutoff used by rank and null-space routines.
DEFAULT_RANK_TOL = 1e-10

_SIGN_TOL = 1e-12


def solve_linear(A, b):
    """Solve A x = b for full-row-rank A with m <= n rows.

    Returns the unique solution when square and the minimum-norm solution
    when underdetermined.  One step of iterative refinement keeps the
    residual near machine precision.

    Raises
    ------
    DegenerateData
        If the smallest singular value of A is below 1e-12 times the largest.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise ValueError("expected A (m, n) and b (m,) with matching m")
    m, n = A.shape
    if m > n:
        raise ValueError("solve_linear requires m <= n (square or underdetermined)")
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if s[0] == 0.0 or s[-1] < 1e-12 * s[0]:
        raise DegenerateData(
            f"smallest singular value {s[-1]:.3e} below 1e-12 * {s[0]:.3e}"
        )
    x = Vt.T @ ((U.T @ b) / s)
    r = b - A @ x
    x = x + Vt.T @ ((U.T @ r) / s)
    return x


def nullspace_basis(M):
    """Orthonormal basis (d, d - rank) of the null space of a k x d matrix."""
    M = np.asarray(M, dtype=float)
    _, d = M.shape
    _, s, Vt = np.linalg.svd(M, full_matrices=True)
    rank = int(np.sum(s > DEFAULT_RANK_TOL * s[0])) if s.size and s[0] > 0.0 else 0
    if rank >= d:
        raise DegenerateData("null space is trivial")
    return Vt[rank:].T


def canonical_sign(v):
    """Flip v so its first coordinate exceeding 1e-12 in magnitude is positive."""
    v = np.asarray(v, dtype=float)
    for vi in v:
        if abs(vi) > _SIGN_TOL:
            return -v if vi < 0 else v
    return v


def numerical_rank(M, rel_tol=DEFAULT_RANK_TOL):
    """Number of singular values above rel_tol times the largest; 0 for the zero matrix."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > rel_tol * s[0]))
