"""Independent test oracles: brute-force enumeration, LP feasibility, finite differences.

Everything here checks library results through a different route than the
code under test (angular sweeps instead of binomial sums, LP feasibility
instead of closed forms, finite differences instead of analytic gradients,
scipy root finding and bounded minimization instead of bisection and
golden-section search, subset enumeration instead of matroid partition,
one construction block at a time instead of one stack of blocks, a
bordered solve per block instead of the null-space SVD's minimum-norm
solution, and a zero test plus a sign comparison instead of one product's
sign).
"""

import math
from itertools import combinations

import numpy as np
from scipy.optimize import brentq, linprog, minimize_scalar
from scipy.special import log_ndtr

from landscape import construct
from landscape.construct import Construction, ConstructionBlock, partition_positive
from landscape.errors import DegenerateData, DomainError
from landscape.linalg import (
    DEFAULT_RANK_TOL,
    _check_finite,
    _matvec,
    canonical_sign,
    check_bordered,
    check_rank,
    nullspace_solve,
    numerical_rank,
)
from landscape.network import NetParams, check_leak, evaluate, mean_square, mse


def same_bits(a, b):
    """Equal shape, dtype and bytes: an equality that also sees signed zeros."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


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


def coherence_hits_direct(M, N, eps, trials, seed):
    """Trials whose Gaussian M x N matrix, drawn whole, has two columns with |cos| > eps.

    Columns are normalized before their Gram matrix is formed, a chunk of
    matrices at a time.
    """
    rng = np.random.default_rng(seed)
    chunk = max(1, (1 << 18) // (M * N))
    hits = 0
    for start in range(0, trials, chunk):
        A = rng.standard_normal((min(chunk, trials - start), M, N))
        U = A / np.linalg.norm(A, axis=1, keepdims=True)
        cosines = np.abs(np.einsum("kmi,kmj->kij", U, U))
        cosines[:, range(N), range(N)] = 0.0
        hits += int(np.count_nonzero(cosines.max(axis=(1, 2)) > eps))
    return hits


def sign_pattern_three_step(P, signs):
    """Whether each matrix of P has no zero entry and the sign pattern signs, in three steps."""
    return np.all((P != 0.0) & (np.sign(P) == signs), axis=(-2, -1))


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
    """Orthonormal basis (d, d - rank) of the null space of one k x d matrix M, of any rank.

    From M's full SVD, the rows of V^T past the rank at relative tolerance
    1e-10.  nullspace_solve's basis has d - k columns, which is the whole
    null space only for a full-row-rank M; tests that plant a
    rank-deficient group still need all of it.
    """
    _, s, Vt = np.linalg.svd(np.asarray(M, dtype=float), full_matrices=True)
    return Vt[int((s > DEFAULT_RANK_TOL * s[:1]).sum()):].T


def _block_directions(X, subset, rng):
    """Hyperplane normal for the subset, redrawn inside the null space if needed, and X_out.

    Also returns the group matrix M, the minimum-norm solution of M w = 1
    and M's singular values, from the null-space SVD.
    """
    M = np.ascontiguousarray(X[:, subset].T)
    basis, w_hat, s = nullspace_solve(M, np.ones(len(subset)))
    check_rank(s)
    outside = np.ones(X.shape[1], dtype=bool)
    outside[subset] = False
    X_out = X[:, outside]
    floor = construct._DEGENERATE_TOL * np.linalg.norm(X_out, axis=0)
    v = basis[:, -1]
    for attempt in range(1 + (construct._REDRAW_ATTEMPTS if basis.shape[1] > 1 else 0)):
        if attempt:
            v = basis @ rng.standard_normal(basis.shape[1])
            v = v / np.linalg.norm(v)
        v = canonical_sign(v)
        if np.all(np.abs(v @ X_out) > floor):
            return v, X_out, (M, w_hat, s)
    raise DegenerateData(
        "a group hyperplane passes through an outside sample; "
        "perturb X infinitesimally and rebuild"
    )


def _min_norm_offset(w_unit, M, w_hat, s):
    """The null-space SVD's minimum-norm w_hat, once its bordered system passes."""
    check_bordered(s)
    return w_hat


def _bordered_offset(w_unit, M, w_hat, s):
    """w_hat solved from the bordered system [M; w_unit] w = [1; 0]."""
    return solve_linear(np.vstack([M, w_unit]), np.concatenate([np.ones(len(M)), [0.0]]))


def build_global_minimum_per_block(data, rho, target_d1=None, seed=0,
                                   offset=_min_norm_offset):
    """The zero-error construction built one block at a time, in group order.

    The reference for construct.build_global_minimum, which builds the
    blocks as one stack: same W, z, blocks, checked outputs, generator
    draws and refusals, bit for bit.  offset(w_unit, M, w_hat, s) gives
    each block's offset direction.
    """
    check_leak(rho)
    X = data.X
    d0 = data.d0
    beta, gamma = construct._BETA, construct._GAMMA
    rng = np.random.default_rng(seed)
    blocks, rows, z_entries = [], [], []
    for subset in partition_positive(data.y, d0):
        w_unit, X_out, solved = _block_directions(X, subset, rng)
        w_hat = offset(w_unit, *solved)
        w_tilde = w_unit * np.linalg.norm(w_hat)
        if X_out.shape[1]:
            t_out = np.abs(w_tilde @ X_out)
            h_out = np.abs(w_hat @ X_out)
            if float(np.max(h_out)) == 0.0:
                raise DegenerateData("offset direction orthogonal to every outside sample")
            eps1 = beta * float(np.min(t_out / np.maximum(h_out, 1e-300)))
            if not np.isfinite(eps1):
                raise DegenerateData("sign-stability ratio unbounded on this dataset")
        else:
            eps1 = beta
        eps2 = gamma * eps1
        rows.extend([w_tilde + eps1 * w_hat, w_tilde + eps2 * w_hat,
                     w_tilde - eps2 * w_hat, w_tilde - eps1 * w_hat])
        c = 1.0 / ((eps1 - eps2) * (1.0 - rho))
        z_entries.extend([c, -c, -c, c])
        blocks.append(ConstructionBlock(tuple(subset), w_tilde, w_hat, eps1, eps2))

    d1_star = 4 * len(blocks)
    if target_d1 is not None:
        if target_d1 < d1_star:
            raise DomainError(f"target_d1 = {target_d1} below constructed width {d1_star}")
        pad = target_d1 - d1_star
        rows.extend(rng.standard_normal((pad, d0)))
        z_entries.extend([0.0] * pad)

    W = np.array(rows, dtype=float).reshape(len(rows), d0)
    z = np.array(z_entries, dtype=float)
    params = NetParams(W=W, z=z, rho=rho)
    yhat, min_neural_input = np.zeros(data.n_samples), None
    if W.shape[0]:
        P, _, _, yhat = evaluate(W, z, rho, X)
        if mean_square(yhat - data.y) > 1e-18:
            raise DegenerateData(
                "built network exceeds the 1e-18 squared-error budget; "
                "X is near-degenerate at double precision, perturb it infinitesimally"
            )
        min_neural_input = float(np.min(np.abs(P)))
        if min_neural_input == 0.0:
            raise DegenerateData("built network has a zero pre-activation; X is near-degenerate")
    return Construction(params, blocks, d1_star, yhat, min_neural_input)


def build_global_minimum_bordered(data, rho, target_d1=None, seed=0):
    """The per-block construction with each w_hat from a bordered solve.

    The construction as it was before w_hat came from the null-space SVD:
    the same normals, redraws and generator draws, with W and z equal to
    the minimum-norm build's up to rounding, and the conditioning refusal
    raised by solve_linear.
    """
    return build_global_minimum_per_block(data, rho, target_d1, seed, offset=_bordered_offset)
