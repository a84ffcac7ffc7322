"""Seeded Monte Carlo estimators for angular volumes and related probabilities.

Every estimator derives one counter-based random stream per trial (Philox
keyed by (seed, trial index)), so the hit count is independent of how
trials are distributed over workers: serial and parallel runs agree bit
for bit.  Intervals are 95% Wilson, which stays sensible when the hit
probability is near 0 or 1.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ZeroColumn

_WILSON_Z = 1.959963984540054  # 97.5% standard normal quantile

_MASK64 = (1 << 64) - 1

WORKERS_ENV = "LANDSCAPE_THREADS"


@dataclass(frozen=True)
class MCEstimate:
    hits: int
    trials: int
    estimate: float
    ci_low: float
    ci_high: float
    seed: int


@dataclass(frozen=True)
class RegionSpec:
    """A weight-space region given by a pure predicate on W, plus its shape."""

    d1: int
    d0: int
    predicate: Callable[[np.ndarray], bool]
    kind: str = "custom"

    @classmethod
    def from_activation_pattern(cls, A, X):
        """Open region of W whose sign pattern over the columns of X matches A.

        A carries slope values, so entries equal to 1 mark positive
        pre-activations; an exactly zero pre-activation is never a hit.
        """
        A = np.asarray(A, dtype=float)
        X = np.asarray(X, dtype=float)
        positive = A == 1.0

        def predicate(W):
            P = W @ X
            if np.any(P == 0.0):
                return False
            return bool(np.array_equal(P > 0.0, positive))

        return cls(d1=A.shape[0], d0=X.shape[0], predicate=predicate, kind="activation_pattern")

    @classmethod
    def from_sign_match(cls, X, Wstar, d1=None):
        """Region where the first rows of W reproduce the sign pattern of Wstar on X."""
        X = np.asarray(X, dtype=float)
        Wstar = np.asarray(Wstar, dtype=float)
        rows = Wstar.shape[0]
        if d1 is None:
            d1 = rows
        if d1 < rows:
            raise ValueError("d1 must cover every row of Wstar")
        target = np.sign(Wstar @ X)

        def predicate(W):
            P = W[:rows] @ X
            if np.any(P == 0.0):
                return False
            return bool(np.array_equal(np.sign(P), target))

        return cls(d1=d1, d0=X.shape[0], predicate=predicate, kind="sign_match")

    @classmethod
    def custom(cls, predicate, d1, d0):
        return cls(d1=d1, d0=d0, predicate=predicate, kind="custom")


def wilson_interval(hits, trials, z=_WILSON_Z):
    """95% Wilson score interval for a binomial proportion."""
    p = hits / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = z * np.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def resolve_workers(workers=None):
    """Worker count: explicit argument, else LANDSCAPE_THREADS, else cpu count."""
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(WORKERS_ENV)
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def trial_rng(seed, index):
    """Independent generator for one trial, keyed by (seed, trial index)."""
    key = np.array([seed & _MASK64, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _pool_size(workers, trials, cpus):
    """Threads for a count: no more than asked for, than CPUs or than trials."""
    return max(1, min(workers, cpus or 1, trials))


def _count_hits(trial, trials, seed, workers):
    def run_range(lo, hi):
        # chunk-local generator re-keyed per trial: same stream as
        # trial_rng(seed, i) but without the per-trial construction cost
        bitgen = np.random.Philox(key=np.array([seed & _MASK64, 0], dtype=np.uint64))
        rng = np.random.Generator(bitgen)
        template = bitgen.state
        zeros = np.zeros(4, dtype=np.uint64)
        hits = 0
        for i in range(lo, hi):
            state = dict(template)
            state["state"] = {"counter": zeros,
                              "key": np.array([seed & _MASK64, i], dtype=np.uint64)}
            state["buffer_pos"] = 4
            state["has_uint32"] = 0
            state["uinteger"] = 0
            bitgen.state = state
            if trial(rng):
                hits += 1
        return hits

    workers = _pool_size(resolve_workers(workers), trials, os.cpu_count())
    if workers <= 1 or trials < 2 * workers:
        return run_range(0, trials)
    # contiguous chunks; summation order does not affect the integer total
    n_chunks = min(trials, workers * 4)
    edges = np.linspace(0, trials, n_chunks + 1, dtype=int)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(run_range, edges[:-1], edges[1:])
        return sum(parts)


def _estimate(trial, trials, seed, workers):
    if trials < 1:
        raise ValueError("trials must be at least 1")
    hits = _count_hits(trial, trials, seed, workers)
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
    shape = (region.d1, region.d0)
    predicate = region.predicate

    def trial(rng):
        return predicate(rng.standard_normal(shape))

    return _estimate(trial, trials, seed, workers)


def estimate_global_region_volume(X, Wstar, d1, trials, seed, workers=None):
    """Volume of the region whose rows sign-match Wstar over the columns of X."""
    region = RegionSpec.from_sign_match(X, Wstar, d1=d1)
    return estimate_angular_volume(region, trials, seed, workers)


def estimate_orthant_probability(N, M, L, trials, seed, workers=None):
    """Probability that every entry of a Gaussian product C B is positive."""

    def trial(rng):
        C = rng.standard_normal((N, M))
        B = rng.standard_normal((M, L))
        return bool(np.all(C @ B > 0.0))

    return _estimate(trial, trials, seed, workers)


def coherence(A):
    """Largest |cosine| between two distinct columns of A."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[1] < 2:
        raise ValueError("coherence needs a matrix with at least two columns")
    norms = np.linalg.norm(A, axis=0)
    if np.any(norms == 0.0):
        raise ZeroColumn("coherence undefined with a zero column")
    G = np.abs((A / norms).T @ (A / norms))
    np.fill_diagonal(G, 0.0)
    return float(np.max(G))


def estimate_coherence_tail(M, N, eps, trials, seed, workers=None):
    """Fraction of Gaussian M x N draws whose column coherence exceeds eps."""

    def trial(rng):
        return coherence(rng.standard_normal((M, N))) > eps

    return _estimate(trial, trials, seed, workers)


def estimate_margin_probability(Wstar, N, sin_alpha, trials, seed, workers=None):
    """Fraction of Gaussian d0 x N draws with angular margin above sin_alpha."""
    Wstar = np.asarray(Wstar, dtype=float)
    d0 = Wstar.shape[1]
    row_norms = np.linalg.norm(Wstar, axis=1)
    if np.any(row_norms == 0.0):
        raise ZeroColumn("margin undefined with a zero weight row")
    U = Wstar / row_norms[:, None]

    def trial(rng):
        X = rng.standard_normal((d0, N))
        C = np.abs(U @ X) / np.linalg.norm(X, axis=0)
        return bool(np.min(C) > sin_alpha)

    return _estimate(trial, trials, seed, workers)
