"""First-order stationarity checks and the exact subset rank condition.

A differentiable local minimum of the MSE must satisfy (A o X) e = 0 where
A is the activation pattern, o the column-wise Kronecker product and e the
residual.  This module measures that residual condition and decides, by
matroid partition, when the product A o X has full column rank.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_at_least
from .linalg import numerical_rank
from .network import backward, evaluate

# Pre-activations within this band of zero count as boundary hits.
DEFAULT_TAU = 1e-9

# Largest sample count the oracle will decide.
MAX_ORACLE_SAMPLES = 256


@dataclass
class StationarityReport:
    residual_norm: float        # ||(A o X) e||
    gradient_norm: float        # full parameter-gradient norm
    min_neural_input: float     # min_{i,n} |w_i . x_n|
    boundary_hits: int          # pre-activations within DEFAULT_TAU of zero


def dlm_condition(params, data):
    """Evaluate the first-order residual condition at (W, z) on the dataset."""
    X = data.X
    P, A, H, yhat = evaluate(params.W, params.z, params.rho, X)
    e = data.y - yhat
    dW, dz = backward(params.z, X, A, H, e)
    abs_P = np.abs(P, out=P)    # in place: P is not used again, and a fresh copy is slower
    return StationarityReport(
        # ||(A o X) e|| = ||(A diag(e)) X^T||_F, without forming A o X
        residual_norm=float(np.linalg.norm((A * e) @ X.T)),
        gradient_norm=float(np.sqrt(np.sum(dW * dW) + dz @ dz)),
        min_neural_input=float(np.min(abs_P)) if P.size else float("inf"),
        boundary_hits=int(np.sum(abs_P <= DEFAULT_TAU)),
    )


def rank_condition_oracle(A, X):
    """Decide |S| <= rank(A_S) * d0 for every nonempty column subset S.

    That holds exactly when the columns of A split into d0 sets independent
    under numerical_rank (Nash-Williams).  Edmonds' matroid partition adds
    one column at a time along a shortest augmenting path.

    Returns (holds, witness): witness is None when the condition holds,
    otherwise the sorted columns T the failed search reached; |T| > d0 *
    rank(A_T), but T need not be a smallest violator.

    Raises
    ------
    DomainError
        If A (d1, N) or X (d0, N) has a dimension below 1, or more than
        MAX_ORACLE_SAMPLES columns.
    """
    A = np.asarray(A, dtype=float)
    X = np.asarray(X, dtype=float)
    (d1, N), (d0, X_columns) = A.shape, X.shape
    require_at_least(1, d1=d1, N=N, d0=d0, X_columns=X_columns)
    if N > MAX_ORACLE_SAMPLES:
        raise DomainError(f"rank oracle capped at N = {MAX_ORACLE_SAMPLES}")
    home = [None] * N   # index of the part holding each column

    def independent(cols):
        return numerical_rank(A[:, cols]) == len(cols)

    for s in range(N):
        parts = [[c for c in range(s) if home[c] == j] for j in range(d0)]
        came_from, queue = {s: None}, deque([s])
        while queue:
            x = queue.popleft()
            others = [j for j in range(len(parts)) if j != home[x]]
            i = next((j for j in others if independent(parts[j] + [x])), None)
            if i is not None:
                break
            for j in others:   # edge x -> y when part j may swap y for x
                for y in parts[j]:
                    if y not in came_from and independent([c for c in parts[j] if c != y] + [x]):
                        came_from[y] = x
                        queue.append(y)
        else:
            return False, tuple(sorted(came_from))
        while x is not None:   # x enters part i; the part it leaves takes its predecessor
            home[x], i, x = i, home[x], came_from[x]
    return True, None
