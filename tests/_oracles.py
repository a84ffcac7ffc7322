"""Independent test oracles: brute-force enumeration, LP feasibility, finite differences.

Everything here checks library results through a different route than the
code under test (angular sweeps instead of binomial sums, LP feasibility
instead of closed forms, finite differences instead of analytic gradients,
scipy root finding and bounded minimization instead of bisection and
golden-section search, subset enumeration instead of matroid partition).
"""

import math
from itertools import combinations

import numpy as np
from scipy.optimize import brentq, linprog, minimize_scalar
from scipy.special import log_ndtr

from landscape.linalg import numerical_rank
from landscape.network import NetParams, mse


def count_dichotomies_sweep_2d(X):
    """Exact number of strict sign vectors sign(w . X), w in R^2, by angular sweep."""
    angles = np.arctan2(X[1], X[0])
    boundaries = np.sort(np.unique(
        np.concatenate([angles + np.pi / 2, angles - np.pi / 2]) % (2 * np.pi)
    ))
    mids = (boundaries + np.roll(boundaries, -1)) / 2
    mids[-1] = (boundaries[-1] + boundaries[0] + 2 * np.pi) / 2
    patterns = set()
    for t in mids:
        s = np.sign(np.array([np.cos(t), np.sin(t)]) @ X)
        if np.all(s != 0):
            patterns.add(tuple(s.astype(int)))
    return len(patterns)


def rank_condition_exhaustive(A, d0):
    """Test |S| <= rank(A_S) * d0 over all 2^N - 1 nonempty column subsets S.

    Returns (holds, witness): witness is None when the condition holds,
    otherwise the lexicographically first violating subset of minimum size.
    Meant for N <= 22.
    """
    A = np.asarray(A, dtype=float)
    N = A.shape[1]
    for size in range(1, N + 1):
        for S in combinations(range(N), size):
            sub = A[:, S]
            # rank >= 1 already settles subsets of at most d0 columns
            if size <= d0 and np.any(sub != 0.0):
                continue
            if size > numerical_rank(sub) * d0:
                return False, S
    return True, None


def count_dichotomies_lp(X, tol=1e-7):
    """Strict sign vectors counted by one margin-maximizing LP per candidate."""
    d0, N = X.shape
    count = 0
    for mask in range(2 ** N):
        h = np.array([1.0 if (mask >> n) & 1 else -1.0 for n in range(N)])
        A_ub = np.hstack([-(h[:, None] * X.T), np.ones((N, 1))])
        res = linprog(c=[0.0] * d0 + [-1.0], A_ub=A_ub, b_ub=np.zeros(N),
                      bounds=[(-1, 1)] * d0 + [(0, 1)], method="highs")
        if res.status == 0 and -res.fun > tol:
            count += 1
    return count


def margin_conditioned_columns(d0, n_cols, sin_alpha, w_unit, seed):
    """Gaussian columns rejection-sampled to satisfy |cos(x, w)| > sin_alpha."""
    rng = np.random.default_rng(seed)
    cols = []
    while len(cols) < n_cols:
        x = rng.standard_normal(d0)
        if abs(x @ w_unit) / np.linalg.norm(x) > sin_alpha:
            cols.append(x)
    return np.column_stack(cols)


def fd_gradient(params, data, h=1e-6):
    """Central finite-difference gradient of the mean squared error."""
    W, z, rho = params.W, params.z, params.rho
    gW = np.zeros_like(W)
    for i in range(W.shape[0]):
        for j in range(W.shape[1]):
            Wp = W.copy(); Wp[i, j] += h
            Wm = W.copy(); Wm[i, j] -= h
            gW[i, j] = (mse(NetParams(Wp, z, rho), data)
                        - mse(NetParams(Wm, z, rho), data)) / (2 * h)
    gz = np.zeros_like(z)
    for i in range(z.shape[0]):
        zp = z.copy(); zp[i] += h
        zm = z.copy(); zm[i] -= h
        gz[i] = (mse(NetParams(W, zp, rho), data)
                 - mse(NetParams(W, zm, rho), data)) / (2 * h)
    return gW, gz


def three_sigma(p, trials):
    """3-sigma binomial half-width at hit probability p."""
    return 3.0 * np.sqrt(p * (1.0 - p) / trials)


def _psi_scipy(theta):
    """psi(theta) = xi^2 / (2 theta) - log Phi(xi), with g(xi) = theta solved by brentq."""
    log_theta = math.log(theta)

    def log_g_minus(x):     # log(x Phi(x) / phi(x)) - log(theta)
        return (math.log(x) + log_ndtr(x) + 0.5 * x * x
                + 0.5 * math.log(2.0 * math.pi) - log_theta)

    # log g(50) > 1250 exceeds the log of every finite float, so this brackets any theta
    xi = brentq(log_g_minus, 1e-300, 50.0, xtol=1e-15, rtol=4 * np.finfo(float).eps)
    return xi * xi / (2.0 * theta) - float(log_ndtr(xi))


def theta_star_oracle():
    """(theta, psi(theta), psi(theta)^3 theta^2) at the maximizer on [1, 200].

    scipy's log_ndtr and brentq give psi; minimize_scalar's bounded
    Brent method finds the maximizer.
    """
    res = minimize_scalar(lambda t: -_psi_scipy(t) ** 3 * t * t, bounds=(1.0, 200.0),
                          method="bounded", options={"xatol": 1e-9})
    theta = float(res.x)
    psi_theta = _psi_scipy(theta)
    return theta, psi_theta, psi_theta ** 3 * theta * theta
