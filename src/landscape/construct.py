"""Exact zero-error network construction from trapezoid units.

Positive-labeled samples are split into groups of at most d0 - 1 points.
Each group gets a hyperplane through the origin containing its points and
a four-row block of first-layer weights whose combined response is a
trapezoid bump: exactly 1 on the group, exactly 0 on every other sample.
Summing the blocks reproduces the labels, so the built network has zero
squared error while keeping every pre-activation away from zero.

The full-size groups are built as one stack: one batched SVD gives their
null spaces, offset directions and singular values, each slice bit for
bit that group's own SVD, and the blocks are checked in group order.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateData, DomainError, require_at_least
from .linalg import canonical_sign, check_bordered, check_rank, nullspace_solve
from .network import NetParams, check_leak, evaluate, mean_square

# |w . x| below this (relative to the column norm) counts as a degenerate hit.
_DEGENERATE_TOL = 1e-13

_REDRAW_ATTEMPTS = 16

# Trapezoid widths: eps1 is _BETA times the sign-safety limit of its block,
# and eps2 = _GAMMA * eps1.
_BETA = 0.5
_GAMMA = 0.5


@dataclass
class ConstructionBlock:
    indices: tuple          # samples carved out by this block
    w_tilde: np.ndarray     # in-hyperplane normal, rescaled to ||w_hat||
    w_hat: np.ndarray       # offset direction with w_hat . x = 1 on the block
    eps1: float             # outer half-width of the trapezoid
    eps2: float             # inner half-width, eps2 = _GAMMA * eps1


@dataclass
class Construction:
    params: NetParams
    blocks: list
    d1_star: int            # 4 * number of blocks, before any padding
    yhat: np.ndarray        # the network's outputs on X, zeros for an empty network
    min_neural_input: float # min |W X|, None for an empty network


@dataclass
class MarginCertificate:
    sin_alpha: float
    argmin_pair: tuple      # (row index, sample index) achieving the margin


def _column_norms(X):
    """np.linalg.norm(X, axis=0), a column whose sum of squares overflows scaled by max |x|."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(X, axis=0)
    big = ~np.isfinite(norms)
    if big.any():
        scale = np.abs(X[:, big]).max(axis=0)
        norms[big] = scale * np.linalg.norm(X[:, big] / scale, axis=0)
    return norms


def partition_positive(y, d0):
    """Split the positive-label index set into runs of at most d0 - 1 samples."""
    require_at_least(2, d0=d0)
    positives = [int(n) for n in np.flatnonzero(np.asarray(y) == 1.0)]
    width = d0 - 1
    return [positives[i:i + width] for i in range(0, len(positives), width)]


def _misses_outside(v, X_out, floor):
    """Whether the hyperplane with normal v passes clear of every outside sample."""
    return (np.abs(v @ X_out) > floor).all()


def _redraw(basis, X_out, floor, rng):
    """A random unit normal in the null space that misses every outside sample."""
    # a one-dimensional null space has no other direction to redraw
    for _ in range(_REDRAW_ATTEMPTS if basis.shape[1] > 1 else 0):
        v = basis @ rng.standard_normal(basis.shape[1])
        v = canonical_sign(v / np.linalg.norm(v))
        if _misses_outside(v, X_out, floor):
            return v
    raise DegenerateData(
        "a group hyperplane passes through an outside sample; "
        "perturb X infinitesimally and rebuild"
    )


def _eps1(w_tilde, w_hat, X_out):
    """Outer trapezoid half-width: _BETA times the sign-safety limit on the outside samples."""
    if not X_out.shape[1]:
        # no outside samples constrain the widths; any eps1 > eps2 > 0 works
        return _BETA
    t_out = np.abs(w_tilde @ X_out)
    h_out = np.abs(w_hat @ X_out)
    if float(h_out.max()) == 0.0:
        raise DegenerateData("offset direction orthogonal to every outside sample")
    # per-sample ratio keeps eps1 as large as sign stability allows,
    # which caps the 1/(eps1 - eps2) output-weight amplification
    eps1 = _BETA * float((t_out / np.maximum(h_out, 1e-300)).min())
    if not np.isfinite(eps1):
        raise DegenerateData("sign-stability ratio unbounded on this dataset")
    return eps1


def _build_stack(XT, floor, groups, rng):
    """The ConstructionBlocks of equal-size groups, built as one stack.

    One batched SVD of the group matrices M gives each group's null space,
    its singular values and w_hat, the minimum-norm solution of M w = 1,
    which also solves the bordered system [M; w_unit] w = [1; 0] for any
    unit normal w_unit in the null space, redrawn or not
    (linalg.nullspace_solve).  Each slice is bit for bit the single-group
    computation.  The per-block steps loop in block order, so the first
    failing group refuses the build: its rank check, the outside-sample
    check with its redraws from rng, the bordered system's conditioning
    check, and the eps1 products on the block's X_out, where a stacked
    product would round differently.  XT is X.T in C order and floor holds
    _DEGENERATE_TOL times the norm of every column of X.
    """
    M = XT[np.array(groups)]    # M[b] = X[:, groups[b]].T
    basis, W_hat, s = nullspace_solve(M, np.ones(M.shape[:2]))
    # the first candidate is the smallest singular direction
    W_unit = np.array([canonical_sign(v) for v in basis[..., -1]])

    blocks = []
    outside = np.ones(XT.shape[0], dtype=bool)
    for b, subset in enumerate(groups):
        check_rank(s[b])
        outside[subset] = False
        cols = outside.nonzero()[0]     # the samples outside the subset, in ascending order
        outside[subset] = True
        # an F-ordered gather, like X[:, outside] of a C-ordered X, but from rows of X.T
        X_out = XT.take(cols, axis=0).T
        floor_out = floor.take(cols)
        if not _misses_outside(W_unit[b], X_out, floor_out):
            W_unit[b] = _redraw(basis[b], X_out, floor_out, rng)
        check_bordered(s[b])
        w_tilde = W_unit[b] * np.linalg.norm(W_hat[b])
        eps1 = _eps1(w_tilde, W_hat[b], X_out)
        blocks.append(ConstructionBlock(tuple(subset), w_tilde, W_hat[b], eps1, _GAMMA * eps1))
    return blocks


def build_global_minimum(data, rho, target_d1=None, seed=0):
    """Construct (W*, z*) whose outputs on X are y exactly.

    The hidden width is 4 * ceil(|S+| / (d0 - 1)) where S+ is the positive
    class; pass target_d1 to pad with Gaussian rows carrying zero output
    weight.  The padding rows and any redrawn in-hyperplane normals come
    from default_rng(seed), so a rerun with the same seed is bit-identical.

    The full-size groups are built as one stack and the shorter last group,
    if any, as a stack of one (_build_stack).  The result, the generator's
    draws and any refusal's type and message are those of building and
    checking the groups one at a time in order.

    Raises
    ------
    DomainError
        If rho is not finite or is 1, d0 < 2, or target_d1 is below the
        constructed width.
    DegenerateData
        If X sits on a measure-zero configuration the construction cannot use,
        such as a repeated positive sample.
    """
    check_leak(rho)
    d0 = data.d0
    rng = np.random.default_rng(seed)

    groups = partition_positive(data.y, d0)
    XT = np.ascontiguousarray(data.X.T)
    # summed along contiguous memory per column, as for the F-ordered X_out of a block
    floor = _DEGENERATE_TOL * _column_norms(XT.T)
    n_full = sum(len(g) == d0 - 1 for g in groups)
    blocks = [block for stack in (groups[:n_full], groups[n_full:]) if stack
              for block in _build_stack(XT, floor, stack, rng)]

    d1_star = 4 * len(blocks)
    W_tilde = np.array([b.w_tilde for b in blocks]).reshape(-1, d0)
    W_hat = np.array([b.w_hat for b in blocks]).reshape(-1, d0)
    eps1 = np.array([b.eps1 for b in blocks])
    eps2 = _GAMMA * eps1
    # rows w_tilde + eps1 w_hat, + eps2, - eps2, - eps1 of each block
    steps = np.stack([eps1, eps2, -eps2, -eps1], axis=1)
    rows = (W_tilde[:, None, :] + steps[:, :, None] * W_hat[:, None, :]).reshape(-1, d0)
    c = 1.0 / ((eps1 - eps2) * (1.0 - rho))
    z = (c[:, None] * np.array([1.0, -1.0, -1.0, 1.0])).reshape(-1)
    if target_d1 is not None:
        if target_d1 < d1_star:
            raise DomainError(f"target_d1 = {target_d1} below constructed width {d1_star}")
        pad = target_d1 - d1_star
        rows = np.vstack([rows, rng.standard_normal((pad, d0))])
        z = np.concatenate([z, np.zeros(pad)])

    params = NetParams(W=rows, z=z, rho=rho)

    yhat, min_neural_input = np.zeros(data.n_samples), None
    if rows.shape[0]:
        P, _, _, yhat = evaluate(rows, z, rho, data.X)
        with np.errstate(over="ignore"):      # an overflowing residual is over budget too
            mse = mean_square(yhat - data.y)
        if mse > 1e-18:
            raise DegenerateData(
                "built network exceeds the 1e-18 squared-error budget; "
                "X is near-degenerate at double precision, perturb it infinitesimally"
            )
        min_neural_input = float(np.min(np.abs(P)))
        if min_neural_input == 0.0:
            raise DegenerateData("built network has a zero pre-activation; X is near-degenerate")

    return Construction(params, blocks, d1_star, yhat, min_neural_input)


def angular_margin(X, Wstar):
    """Smallest |cos| between any sample column and any weight row, with its argmin.

    Raises
    ------
    DomainError
        If Wstar is not (d1, d0) and X not (d0, N) with d1 and N at least 1.
    DegenerateData
        If a column of X or row of Wstar has zero norm.
    """
    X = np.asarray(X, dtype=float)
    Wstar = np.asarray(Wstar, dtype=float)
    if X.ndim != 2 or Wstar.ndim != 2 or Wstar.shape[1] != X.shape[0]:
        raise DomainError(f"Wstar must be (d1, d0) and X (d0, N), got {Wstar.shape} and {X.shape}")
    require_at_least(1, d1=Wstar.shape[0], N=X.shape[1])
    col_norms = _column_norms(X)
    row_norms = np.linalg.norm(Wstar, axis=1)
    if np.any(col_norms == 0.0) or np.any(row_norms == 0.0):
        raise DegenerateData("angular margin undefined for zero rows or columns")
    C = np.abs(Wstar @ X) / np.outer(row_norms, col_norms)
    i, n = np.unravel_index(int(np.argmin(C)), C.shape)
    return MarginCertificate(sin_alpha=float(C[i, n]), argmin_pair=(int(i), int(n)))
