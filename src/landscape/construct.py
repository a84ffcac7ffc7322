"""Exact zero-error network construction from trapezoid units.

Positive-labeled samples are split into groups of at most d0 - 1 points.
Each group gets a hyperplane through the origin containing its points and
a four-row block of first-layer weights whose combined response is a
trapezoid bump: exactly 1 on the group, exactly 0 on every other sample.
Summing the blocks reproduces the labels, so the built network has zero
squared error while keeping every pre-activation away from zero.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateData, TargetTooSmall, ZeroVector
from .linalg import canonical_sign, nullspace_basis, nullspace_direction, solve_linear
from .network import NetParams, check_leak, evaluate, lrelu, mean_square

# |w . x| below this (relative to the column norm) counts as a degenerate hit.
_DEGENERATE_TOL = 1e-13

_REDRAW_ATTEMPTS = 16


@dataclass
class ConstructionBlock:
    indices: tuple          # samples carved out by this block
    w_tilde: np.ndarray     # in-hyperplane normal, rescaled to ||w_hat||
    w_hat: np.ndarray       # offset direction with w_hat . x = 1 on the block
    eps1: float             # outer half-width of the trapezoid
    eps2: float             # inner half-width, eps2 = gamma * eps1


@dataclass
class Construction:
    params: NetParams
    blocks: list
    d1_star: int            # 4 * number of blocks, before any padding


@dataclass
class MarginCertificate:
    sin_alpha: float
    argmin_pair: tuple      # (row index, sample index) achieving the margin


def partition_positive(y, d0):
    """Split the positive-label index set into runs of at most d0 - 1 samples."""
    if d0 < 2:
        raise ValueError("d0 must be at least 2")
    positives = [int(n) for n in np.flatnonzero(np.asarray(y) == 1.0)]
    width = d0 - 1
    return [positives[i:i + width] for i in range(0, len(positives), width)]


def trapezoid(x, eps1, eps2, rho):
    """Four-rectifier bump: 1 on [-eps2, eps2], 0 outside [-eps1, eps1], linear between."""
    if not eps1 > eps2 > 0:
        raise ValueError("need eps1 > eps2 > 0")
    check_leak(rho)
    scale = 1.0 / ((eps1 - eps2) * (1.0 - rho))
    return scale * (
        lrelu(x + eps1, rho)
        - lrelu(x + eps2, rho)
        - lrelu(x - eps2, rho)
        + lrelu(x - eps1, rho)
    )


def _block_directions(X, subset, rng):
    """Hyperplane normal for the subset, redrawn inside the null space if needed."""
    Xs = X[:, subset]
    M = Xs.T
    outside = np.setdiff1d(np.arange(X.shape[1]), subset)
    X_out = X[:, outside]
    col_scale = np.linalg.norm(X_out, axis=0) if outside.size else None

    def degenerate(v):
        if outside.size == 0:
            return False
        return bool(np.any(np.abs(v @ X_out) <= _DEGENERATE_TOL * col_scale))

    w = nullspace_direction(M)
    if not degenerate(w):
        return w, outside
    basis = nullspace_basis(M)
    if basis.shape[1] > 1:
        for _ in range(_REDRAW_ATTEMPTS):
            v = basis @ rng.standard_normal(basis.shape[1])
            norm = np.linalg.norm(v)
            if norm == 0.0:
                continue
            v = canonical_sign(v / norm)
            if not degenerate(v):
                return v, outside
    raise DegenerateData(
        "a group hyperplane passes through an outside sample; "
        "perturb X infinitesimally and rebuild"
    )


def build_global_minimum(data, rho, beta=0.5, gamma=0.5, target_d1=None, seed=None):
    """Construct (W*, z*) with forward(params, X) = y exactly.

    The hidden width is 4 * ceil(|S+| / (d0 - 1)) where S+ is the positive
    class; pass target_d1 to pad with Gaussian rows carrying zero output
    weight.  beta and gamma in (0, 1) set the trapezoid widths relative to
    the sign-safety limit of each block.

    Raises
    ------
    BadLeak
        If rho is not finite or is 1.
    DegenerateData
        If X sits on a measure-zero configuration the construction cannot use.
    TargetTooSmall
        If target_d1 is below the constructed width.
    """
    check_leak(rho)
    if not (0.0 < beta < 1.0 and 0.0 < gamma < 1.0):
        raise ValueError("beta and gamma must lie in (0, 1)")
    X = data.X
    d0 = data.d0
    if d0 < 2:
        raise ValueError("construction requires d0 >= 2")
    rng = np.random.default_rng(seed)

    blocks = []
    rows = []
    z_entries = []
    for subset in partition_positive(data.y, d0):
        w_unit, outside = _block_directions(X, subset, rng)
        system = np.vstack([X[:, subset].T, w_unit[None, :]])
        rhs = np.concatenate([np.ones(len(subset)), [0.0]])
        w_hat = solve_linear(system, rhs)
        w_tilde = w_unit * np.linalg.norm(w_hat)
        if outside.size:
            t_out = np.abs(w_tilde @ X[:, outside])
            h_out = np.abs(w_hat @ X[:, outside])
            if float(np.max(h_out)) == 0.0:
                raise DegenerateData("offset direction orthogonal to every outside sample")
            # per-sample ratio keeps eps1 as large as sign stability allows,
            # which caps the 1/(eps1 - eps2) output-weight amplification
            eps1 = beta * float(np.min(t_out / np.maximum(h_out, 1e-300)))
            if not np.isfinite(eps1):
                raise DegenerateData("sign-stability ratio unbounded on this dataset")
        else:
            # no outside samples constrain the widths; any eps1 > eps2 > 0 works
            eps1 = beta
        eps2 = gamma * eps1
        rows.extend([
            w_tilde + eps1 * w_hat,
            w_tilde + eps2 * w_hat,
            w_tilde - eps2 * w_hat,
            w_tilde - eps1 * w_hat,
        ])
        c = 1.0 / ((eps1 - eps2) * (1.0 - rho))
        z_entries.extend([c, -c, -c, c])
        blocks.append(ConstructionBlock(tuple(subset), w_tilde, w_hat, eps1, eps2))

    d1_star = 4 * len(blocks)
    if target_d1 is not None:
        if target_d1 < d1_star:
            raise TargetTooSmall(f"target_d1 = {target_d1} below constructed width {d1_star}")
        pad = target_d1 - d1_star
        rows.extend(rng.standard_normal((pad, d0)))
        z_entries.extend([0.0] * pad)

    W = np.array(rows, dtype=float).reshape(len(rows), d0)
    z = np.array(z_entries, dtype=float)
    params = NetParams(W=W, z=z, rho=rho)

    if W.shape[0]:
        P, _, _, yhat = evaluate(W, z, rho, X)
        if mean_square(yhat - data.y) > 1e-18:
            raise DegenerateData(
                "built network exceeds the 1e-18 squared-error budget; "
                "X is near-degenerate at double precision, perturb it infinitesimally"
            )
        if np.min(np.abs(P)) == 0.0:
            raise DegenerateData("built network has a zero pre-activation; X is near-degenerate")
    elif np.any(data.y != 0.0):
        raise DegenerateData("empty construction cannot reproduce nonzero labels")

    return Construction(params=params, blocks=blocks, d1_star=d1_star)


def angular_margin(X, Wstar):
    """Smallest |cos| between any sample column and any weight row, with its argmin.

    Raises
    ------
    ZeroVector
        If a column of X or row of Wstar has zero norm.
    """
    X = np.asarray(X, dtype=float)
    Wstar = np.asarray(Wstar, dtype=float)
    col_norms = np.linalg.norm(X, axis=0)
    row_norms = np.linalg.norm(Wstar, axis=1)
    if np.any(col_norms == 0.0) or np.any(row_norms == 0.0):
        raise ZeroVector("angular margin undefined for zero rows or columns")
    C = np.abs(Wstar @ X) / np.outer(row_norms, col_norms)
    i, n = np.unravel_index(int(np.argmin(C)), C.shape)
    return MarginCertificate(sin_alpha=float(C[i, n]), argmin_pair=(int(i), int(n)))
