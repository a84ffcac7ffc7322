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

from .errors import DegenerateData, DomainError, TargetTooSmall, ZeroVector
from .linalg import DEFAULT_RANK_TOL, canonical_sign, nullspace_basis, solve_linear
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


def partition_positive(y, d0):
    """Split the positive-label index set into runs of at most d0 - 1 samples."""
    if d0 < 2:
        raise DomainError(f"construction needs d0 >= 2, got d0 = {d0}")
    positives = [int(n) for n in np.flatnonzero(np.asarray(y) == 1.0)]
    width = d0 - 1
    return [positives[i:i + width] for i in range(0, len(positives), width)]


def _block_directions(X, subset, rng):
    """Hyperplane normal for the subset, redrawn inside the null space if needed, and X_out."""
    basis = nullspace_basis(X[:, subset].T)
    if basis.shape[1] != X.shape[0] - len(subset):
        raise DegenerateData(
            f"rank(M) < {len(subset)} at relative tolerance {DEFAULT_RANK_TOL:g}"
        )
    outside = np.ones(X.shape[1], dtype=bool)
    outside[subset] = False
    X_out = X[:, outside]       # the samples outside the subset, in ascending order
    floor = _DEGENERATE_TOL * np.linalg.norm(X_out, axis=0)
    # the first candidate is the smallest singular direction; a one-dimensional
    # null space has no other direction to redraw
    v = basis[:, -1]
    for attempt in range(1 + (_REDRAW_ATTEMPTS if basis.shape[1] > 1 else 0)):
        if attempt:
            v = basis @ rng.standard_normal(basis.shape[1])
            v = v / np.linalg.norm(v)
        v = canonical_sign(v)
        if np.all(np.abs(v @ X_out) > floor):
            return v, X_out
    raise DegenerateData(
        "a group hyperplane passes through an outside sample; "
        "perturb X infinitesimally and rebuild"
    )


def build_global_minimum(data, rho, target_d1=None, seed=None):
    """Construct (W*, z*) with forward(params, X) = y exactly.

    The hidden width is 4 * ceil(|S+| / (d0 - 1)) where S+ is the positive
    class; pass target_d1 to pad with Gaussian rows carrying zero output
    weight.

    Raises
    ------
    BadLeak
        If rho is not finite or is 1.
    DomainError
        If d0 < 2.
    DegenerateData
        If X sits on a measure-zero configuration the construction cannot use,
        such as a repeated positive sample.
    TargetTooSmall
        If target_d1 is below the constructed width.
    """
    check_leak(rho)
    X = data.X
    d0 = data.d0
    rng = np.random.default_rng(seed)

    blocks = []
    rows = []
    z_entries = []
    for subset in partition_positive(data.y, d0):
        w_unit, X_out = _block_directions(X, subset, rng)
        system = np.vstack([X[:, subset].T, w_unit[None, :]])
        rhs = np.concatenate([np.ones(len(subset)), [0.0]])
        w_hat = solve_linear(system, rhs)
        w_tilde = w_unit * np.linalg.norm(w_hat)
        if X_out.shape[1]:
            t_out = np.abs(w_tilde @ X_out)
            h_out = np.abs(w_hat @ X_out)
            if float(np.max(h_out)) == 0.0:
                raise DegenerateData("offset direction orthogonal to every outside sample")
            # per-sample ratio keeps eps1 as large as sign stability allows,
            # which caps the 1/(eps1 - eps2) output-weight amplification
            eps1 = _BETA * float(np.min(t_out / np.maximum(h_out, 1e-300)))
            if not np.isfinite(eps1):
                raise DegenerateData("sign-stability ratio unbounded on this dataset")
        else:
            # no outside samples constrain the widths; any eps1 > eps2 > 0 works
            eps1 = _BETA
        eps2 = _GAMMA * eps1
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
