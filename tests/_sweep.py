"""Seeded construction sweep: random datasets with planted defects, digested build by build.

Each dataset draws d0 in 2..11, N in 1..59 and Bernoulli(0.6) labels, then
plants 0-3 defects of seven kinds, each a way for X to sit near a
configuration that the construction must refuse or route around:

- repeat:    a sample becomes a positive copy of a positive;
- collinear: a sample becomes a positive multiple of a positive;
- tiny:      a positive is scaled by 1e-14;
- near:      a sample becomes a positive 1e-15..1e-8 off a positive;
- in-span:   a negative sample moves into the span of a positive group;
- off-span:  the same, then 1e-9 off that span;
- scaled:    a whole positive group is scaled by 1e-16..1e-11 or 1e11..1e15.

rho cycles through 0, -0.0, 0.1 and 0.5, and every third build is padded
past the constructed width.  sweep() builds every dataset and returns the
sha256 over each outcome and the count of each outcome kind: a build adds
W, z, yhat, d1_star, min |P| and every block's fields to the digest, a
refusal its type and message.
"""

import hashlib
from collections import Counter

import numpy as np

from landscape.construct import build_global_minimum, partition_positive
from landscape.errors import LandscapeError
from landscape.network import Dataset

RHOS = (0.0, -0.0, 0.1, 0.5)

# refusal message fragment -> outcome kind
_KINDS = {
    "rank(M) <": "rank",
    "smallest singular value": "conditioning",
    "outside sample": "outside-sample",
    "squared-error budget": "budget",
}


def _other(n, N, rng):
    """A uniformly drawn sample index other than n."""
    return int((n + 1 + rng.integers(N - 1)) % N)


def _plant(kind, X, y, rng):
    """Plant one defect of the given kind in X and y, in place; a no-op where it cannot apply."""
    d0, N = X.shape
    positives = np.flatnonzero(y == 1.0)
    if not len(positives):
        return
    p = int(rng.choice(positives))
    if kind == "tiny":
        X[:, p] *= 1e-14
        return
    if kind in ("repeat", "collinear", "near"):
        if N < 2:
            return
        q = _other(p, N, rng)
        X[:, q] = X[:, p]
        if kind == "collinear":
            X[:, q] *= rng.uniform(0.2, 5.0)
        elif kind == "near":
            X[:, q] += 10.0 ** rng.uniform(-15, -8) * rng.standard_normal(d0)
        y[q] = 1.0
        return
    groups = partition_positive(y, d0)
    group = groups[rng.integers(len(groups))]
    if kind == "scaled":
        exponent = rng.uniform(-16, -11) if rng.random() < 0.5 else rng.uniform(11, 15)
        X[:, group] *= 10.0 ** exponent
        return
    negatives = np.flatnonzero(y == 0.0)
    if not len(negatives):
        return
    q = int(rng.choice(negatives))
    X[:, q] = X[:, group] @ rng.standard_normal(len(group))
    if kind == "off-span":
        offset = rng.standard_normal(d0)
        X[:, q] += 1e-9 * offset / np.linalg.norm(offset)


DEFECTS = ("repeat", "collinear", "tiny", "near", "in-span", "off-span", "scaled")


def draw(rng):
    """One sweep dataset: (X, y) with 0-3 planted defects."""
    d0 = int(rng.integers(2, 12))
    N = int(rng.integers(1, 60))
    X = rng.standard_normal((d0, N))
    y = (rng.random(N) < 0.6).astype(float)
    for _ in range(rng.integers(4)):
        _plant(DEFECTS[rng.integers(len(DEFECTS))], X, y, rng)
    return X, y


def _digest_build(h, built):
    for a in (built.params.W, built.params.z, built.yhat):
        h.update(a.tobytes())
    h.update(repr((built.d1_star, built.min_neural_input)).encode())
    for b in built.blocks:
        h.update(repr((b.indices, b.eps1, b.eps2)).encode())
        h.update(b.w_tilde.tobytes())
        h.update(b.w_hat.tobytes())


def sweep(seed, count):
    """(sha256 hex digest, Counter of outcome kinds) over count seeded builds."""
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    outcomes = Counter()
    for i in range(count):
        X, y = draw(rng)
        data = Dataset(X=X, y=y)
        target_d1 = None
        if i % 3 == 0:
            target_d1 = 4 * len(partition_positive(y, data.d0)) + int(rng.integers(1, 4))
        try:
            built = build_global_minimum(data, rho=RHOS[i % len(RHOS)], target_d1=target_d1,
                                         seed=i)
        except LandscapeError as exc:
            message = f"{type(exc).__name__}: {exc}"
            h.update(message.encode())
            outcomes[next((k for f, k in _KINDS.items() if f in message), message)] += 1
        else:
            _digest_build(h, built)
            outcomes["built"] += 1
    return h.hexdigest(), outcomes
