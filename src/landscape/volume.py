"""Seeded Monte Carlo estimators for angular volumes and related probabilities.

The unit of randomness and of work is a block of trials.  A block holds
as many trials as fit in a fixed number of Gaussian values (at least
one), draws them as one array of shape (n, ...) from its own
counter-based stream (Philox keyed by (seed, block index)), and the
event is evaluated on the whole stack at once.  Blocks depend only on
(seed, trials, draw shape), so the hit count is independent of how
blocks are distributed over workers: serial and parallel runs agree bit
for bit.  Intervals are 95% Wilson, which stays sensible when the hit
probability is near 0 or 1.

Every event formula broadcasts over leading axes, so the same code
answers for one matrix and for a stack of them.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ZeroVector

_WILSON_Z = 1.959963984540054  # 97.5% standard normal quantile

_MASK64 = (1 << 64) - 1

# Gaussian values one block draws, unless a single trial needs more: 64 KiB
# of float64, so a block's temporaries stay small beside the process, while
# the per-block cost (a fresh Philox stream, a few numpy calls) is spread
# over hundreds of trials at the light shapes.
_BLOCK_VALUES = 1 << 13


@dataclass(frozen=True)
class MCEstimate:
    hits: int
    trials: int
    estimate: float
    ci_low: float
    ci_high: float
    seed: int


def _require_positive(**counts):
    """Reject a zero or negative size before any draw: batched code never sees an empty axis."""
    for name, value in counts.items():
        if value < 1:
            raise DomainError(f"{name} must be at least 1, got {value}")


def _sign_region(X, signs, rows):
    """Predicate of the open region where sign(W[..., :rows, :] X) equals signs.

    A pattern region is open: any W with an exact zero pre-activation is
    outside it, and so is every W when signs itself holds a zero.  W may
    be one matrix or a stack; the result is one bool per matrix.
    """

    def predicate(W):
        P = W[..., :rows, :] @ X
        return np.all((P != 0.0) & (np.sign(P) == signs), axis=(-2, -1))

    return predicate


@dataclass(frozen=True)
class RegionSpec:
    """A weight-space region given by a pure predicate on W, plus its shape.

    The predicate maps a d1 x d0 matrix, or a stack of shape (..., d1, d0),
    to one bool per matrix.
    """

    d1: int
    d0: int
    predicate: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        _require_positive(d1=self.d1, d0=self.d0)

    @classmethod
    def from_activation_pattern(cls, A, X):
        """Open region of W whose sign pattern over the columns of X matches A.

        A carries slope values, so entries equal to 1 mark positive
        pre-activations and every other entry a negative one.
        """
        A = np.asarray(A, dtype=float)
        X = np.asarray(X, dtype=float)
        _require_positive(N=X.shape[1])
        signs = np.where(A == 1.0, 1.0, -1.0)
        return cls(d1=A.shape[0], d0=X.shape[0], predicate=_sign_region(X, signs, A.shape[0]))

    @classmethod
    def from_sign_match(cls, X, Wstar, d1=None):
        """Region where the first rows of W reproduce the sign pattern of Wstar on X."""
        X = np.asarray(X, dtype=float)
        Wstar = np.asarray(Wstar, dtype=float)
        rows = Wstar.shape[0]
        _require_positive(rows=rows, N=X.shape[1])
        if d1 is None:
            d1 = rows
        if d1 < rows:
            raise DomainError("d1 must cover every row of Wstar")
        signs = np.sign(Wstar @ X)
        return cls(d1=d1, d0=X.shape[0], predicate=_sign_region(X, signs, rows))

    @classmethod
    def custom(cls, predicate, d1, d0):
        """Region of a scalar predicate on one d1 x d0 matrix, applied to each matrix of a stack."""

        def batched(W):
            W = np.asarray(W)
            stack = W.reshape(-1, *W.shape[-2:])
            return np.fromiter(map(predicate, stack), bool, len(stack)).reshape(W.shape[:-2])

        return cls(d1=d1, d0=d0, predicate=batched)


def wilson_interval(hits, trials):
    """95% Wilson score interval for a binomial proportion."""
    p = hits / trials
    z2 = _WILSON_Z * _WILSON_Z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = _WILSON_Z * np.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def resolve_workers(workers=None):
    """Worker count: the explicit argument if given, else the CPU count, and never above it."""
    cpus = os.cpu_count() or 1
    return cpus if workers is None else max(1, min(int(workers), cpus))


def block_rng(seed, block):
    """Independent generator for one block of trials, keyed by (seed, block index)."""
    key = np.array([seed & _MASK64, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _count_hits(event, shape, trials, seed, workers):
    """Hits of event over trials Gaussian draws of shape, drawn and tested block by block."""
    values = math.prod(shape)
    size = max(1, _BLOCK_VALUES // values)
    blocks = -(-trials // size)

    def run_blocks(lo, hi):
        hits = 0
        for b in range(lo, hi):
            n = min(size, trials - b * size)
            hits += int(np.count_nonzero(event(block_rng(seed, b).standard_normal((n, *shape)))))
        return hits

    workers = min(resolve_workers(workers), blocks)
    # Threads pay only when one trial outgrows a block: a block of light
    # trials is a few short numpy calls that two threads cannot overlap
    # under the GIL (0.7-1.1x on 2 cores, against 1.1-1.6x from 10^4 values
    # per trial on).
    if workers <= 1 or values <= _BLOCK_VALUES:
        return run_blocks(0, blocks)
    # contiguous runs of blocks; summation order does not affect the integer total
    edges = np.linspace(0, blocks, min(blocks, 4 * workers) + 1, dtype=int)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(run_blocks, edges[:-1], edges[1:]))


def _estimate(event, shape, trials, seed, workers):
    _require_positive(trials=trials)
    hits = _count_hits(event, shape, trials, seed, workers)
    lo, hi = wilson_interval(hits, trials)
    return MCEstimate(
        hits=hits,
        trials=trials,
        estimate=hits / trials,
        ci_low=lo,
        ci_high=hi,
        seed=seed,
    )


def estimate_angular_volume(region, trials, seed, workers=None):
    """Probability that a standard Gaussian weight matrix lands in the region."""
    return _estimate(region.predicate, (region.d1, region.d0), trials, seed, workers)


def estimate_global_region_volume(X, Wstar, d1, trials, seed, workers=None):
    """Volume of the region whose rows sign-match Wstar over the columns of X."""
    region = RegionSpec.from_sign_match(X, Wstar, d1=d1)
    return estimate_angular_volume(region, trials, seed, workers)


def _orthant(C, B):
    """Whether every entry of C B is positive, per matrix pair of the leading axes."""
    return np.all(C @ B > 0.0, axis=(-2, -1))


def estimate_orthant_probability(N, M, L, trials, seed, workers=None):
    """Probability that every entry of a Gaussian product C B is positive."""
    _require_positive(N=N, M=M, L=L)
    split = N * M

    def event(Z):
        return _orthant(Z[:, :split].reshape(-1, N, M), Z[:, split:].reshape(-1, M, L))

    return _estimate(event, (split + M * L,), trials, seed, workers)


def coherence(A):
    """Largest |cosine| between two distinct columns of A, per matrix of the leading axes."""
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-1] < 2:
        raise DomainError("coherence needs a matrix with at least two columns")
    G = np.swapaxes(A, -1, -2) @ A
    diagonal = np.arange(A.shape[-1])
    norms = np.sqrt(G[..., diagonal, diagonal])
    if np.any(norms == 0.0):
        raise ZeroVector("coherence undefined with a zero column")
    cosines = np.abs(G) / (norms[..., :, None] * norms[..., None, :])
    cosines[..., diagonal, diagonal] = 0.0
    return np.max(cosines, axis=(-2, -1))


def estimate_coherence_tail(M, N, eps, trials, seed, workers=None):
    """Fraction of Gaussian M x N draws whose column coherence exceeds eps."""
    if M < 1 or N < 2:
        raise DomainError(f"need M >= 1 and N >= 2, got M = {M}, N = {N}")
    if not math.isfinite(eps):
        raise DomainError(f"eps must be finite, got {eps}")

    def event(A):
        return coherence(A) > eps

    return _estimate(event, (M, N), trials, seed, workers)


def _margin(U, X):
    """Smallest |cosine| between a row of U (unit rows) and a column of X, per X of a stack."""
    return np.min(np.abs(U @ X) / np.linalg.norm(X, axis=-2)[..., None, :], axis=(-2, -1))


def estimate_margin_probability(Wstar, N, sin_alpha, trials, seed, workers=None):
    """Fraction of Gaussian d0 x N draws with angular margin above sin_alpha."""
    Wstar = np.asarray(Wstar, dtype=float)
    rows, d0 = Wstar.shape
    _require_positive(rows=rows, d0=d0, N=N)
    if not math.isfinite(sin_alpha):
        raise DomainError(f"sin_alpha must be finite, got {sin_alpha}")
    row_norms = np.linalg.norm(Wstar, axis=1)
    if np.any(row_norms == 0.0):
        raise ZeroVector("margin undefined with a zero weight row")
    U = Wstar / row_norms[:, None]

    def event(X):
        return _margin(U, X) > sin_alpha

    return _estimate(event, (d0, N), trials, seed, workers)
