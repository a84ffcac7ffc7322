"""First-order stationarity checks and the exact subset rank condition.

A differentiable local minimum of the MSE must satisfy (A o X) e = 0 where
A is the activation pattern, o the column-wise Kronecker product and e the
residual.  This module measures that residual condition and provides the
brute-force subset oracle for when the product A o X has full column rank.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DomainError, InstanceTooLarge
from .linalg import numerical_rank
from .network import backward, evaluate, khatri_rao

# Pre-activations within this band of zero count as boundary hits.
DEFAULT_TAU = 1e-9

# 2^22 subsets is the largest enumeration the oracle will attempt.
MAX_ORACLE_SAMPLES = 22


@dataclass
class StationarityReport:
    residual_norm: float        # ||(A o X) e||
    gradient_norm: float        # full parameter-gradient norm
    min_neural_input: float     # min_{i,n} |w_i . x_n|
    boundary_hits: int          # pre-activations within tau of zero


def dlm_condition(params, data, tau=DEFAULT_TAU):
    """Evaluate the first-order residual condition at (W, z) on the dataset."""
    X = data.X
    P, A, H, yhat = evaluate(params.W, params.z, params.rho, X)
    e = data.y - yhat
    dW, dz = backward(params.z, X, A, H, e)
    return StationarityReport(
        residual_norm=float(np.linalg.norm(khatri_rao(A, X) @ e)),
        gradient_norm=float(np.sqrt(np.sum(dW * dW) + dz @ dz)),
        min_neural_input=float(np.min(np.abs(P))) if P.size else float("inf"),
        boundary_hits=int(np.sum(np.abs(P) <= tau)),
    )


def rank_condition_oracle(A, X, rel_tol=1e-10):
    """Exhaustively test |S| <= rank(A_S) * d0 over every nonempty subset S.

    Returns (holds, witness): witness is None when the condition holds,
    otherwise the lexicographically first violating subset of minimum size.

    Raises
    ------
    DomainError
        If A (d1, N) or X (d0, N) has a dimension below 1.
    InstanceTooLarge
        If the instance has more than 22 columns.
    """
    A = np.asarray(A, dtype=float)
    X = np.asarray(X, dtype=float)
    if min(A.shape + X.shape) < 1:
        raise DomainError(f"d1, d0 and N must be at least 1, got A {A.shape} and X {X.shape}")
    d0 = X.shape[0]
    N = A.shape[1]
    if N > MAX_ORACLE_SAMPLES:
        raise InstanceTooLarge(f"subset enumeration capped at N = {MAX_ORACLE_SAMPLES}")
    for size in range(1, N + 1):
        for S in combinations(range(N), size):
            sub = A[:, S]
            # rank >= 1 already settles subsets of at most d0 columns
            if size <= d0 and np.any(sub != 0.0):
                continue
            if size > numerical_rank(sub, rel_tol) * d0:
                return False, tuple(S)
    return True, None
