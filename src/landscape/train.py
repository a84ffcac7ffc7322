"""Training harness: Gaussian data, uniform fan-in init, Adam, and the two scans.

The experiment protocol on synthetic data: uniform zero-mean init with
variance 2/fan-in, Adam (beta1 = 0.9, beta2 = 0.99, eps = 1e-8) over
per-epoch reshuffled mini-batches of size floor(min(N/2, d1/2)), at most
4000 epochs with an early stop once the classification error hits zero.
The default learning rate is 0.01; at 0.1 Adam oscillates without
converging on these problem sizes with {0, 1} targets.  The
differentiability diagnostic instead trains a fixed epoch budget whose
final phase decays the learning rate exponentially by a factor of 1000,
and records the smallest |pre-activation| at the end.
"""

import math
from dataclasses import dataclass, fields
from itertools import product

import numpy as np

from .errors import DomainError, NonFinite
from .network import Dataset, NetParams, backward, evaluate, mean_square, misclassified

# Learning-rate shrink factor applied across the whole decay phase.
DECAY_TOTAL_FACTOR = 1e-3

# Adam's moment decay rates and denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.99
ADAM_EPS = 1e-8


class Seed(int):
    """A seed: a non-negative integer.  It annotates every seed parameter of the CLI."""

    def __new__(cls, value):
        seed = super().__new__(cls, value)
        if seed < 0:
            raise DomainError(f"seed must be a non-negative integer, got {value!r}")
        return seed


_KINDS = {int: "an integer", Seed: "a non-negative integer", float: "a finite number",
          bool: "true or false"}


def conforms(value, kind):
    """Whether value matches annotation kind as _KINDS words it (a bool is no integer), a
    str, or a list [T] of T, numpy scalars included.  Other kinds pass: the callee checks."""
    if isinstance(kind, list):
        return isinstance(value, list) and all(conforms(v, kind[0]) for v in value)
    if kind in (int, Seed):
        return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
                and (kind is int or value >= 0))
    if kind is float:
        number = conforms(value, int) or isinstance(value, (float, np.floating))
        return number and math.isfinite(value)
    if kind in (bool, str):
        return isinstance(value, kind)
    return True


@dataclass
class TrainConfig:
    epochs: int = 4000
    lr: float = 0.01
    lr_decay_epochs: int = 0
    seed: Seed = 0
    rho: float = 0.0
    stop_on_zero_mce: bool = True

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not conforms(value, f.type):
                raise DomainError(f"{f.name} must be {_KINDS[f.type]}, got {value!r}")
        if self.epochs < 1:
            raise DomainError("epochs must be at least 1")
        if self.lr <= 0.0:
            raise DomainError(f"lr must be positive, got {self.lr!r}")
        if not 0 <= self.lr_decay_epochs <= self.epochs:
            raise DomainError("lr_decay_epochs must lie in [0, epochs]")


@dataclass
class TrainResult:
    min_neural_input: float
    history: list           # (mse, mce) per epoch

    @property
    def final_mse(self):
        return self.history[-1][0]

    @property
    def final_mce(self):
        return self.history[-1][1]

    @property
    def epochs_run(self):
        return len(self.history)


class Adam:
    """Adam with bias correction over one parameter array of the given shape."""

    def __init__(self, shape):
        self.t = 0
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)

    def step(self, grad, lr):
        """Bias-corrected update at learning rate lr, to add to the parameters."""
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        self.m *= ADAM_BETA1
        self.m += (1.0 - ADAM_BETA1) * grad
        self.v *= ADAM_BETA2
        self.v += (1.0 - ADAM_BETA2) * grad * grad
        return -lr * (self.m / c1) / (np.sqrt(self.v / c2) + ADAM_EPS)


# The entropy word of each seed label: its first 4 bytes, little-endian, the
# word every stream has drawn from it.
_LABEL_ENTROPY = {
    "scan": int.from_bytes(b"scan", "little"),
    "init": int.from_bytes(b"init", "little"),
    "diagnostic": int.from_bytes(b"diag", "little"),
}


def derive_seed(*parts):
    """Stable child seed from a label-and-index path (top seed first).

    An int enters as its low 32 bits and a label as its fixed entropy word.

    Raises
    ------
    DomainError
        For a label other than "scan", "init" and "diagnostic": a new label
        needs its own word, or its streams could collide with another's.
    """
    entropy = []
    for p in parts:
        if isinstance(p, int):
            entropy.append(p & 0xFFFFFFFF)
        elif p in _LABEL_ENTROPY:
            entropy.append(_LABEL_ENTROPY[p])
        else:
            raise DomainError(f"unknown seed label {p!r}; expected one of {sorted(_LABEL_ENTROPY)}")
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def gen_gaussian_dataset(d0, N, seed):
    """Standard normal X (d0, N) with fair-coin {0, 1} labels."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((d0, N))
    y = rng.integers(0, 2, N).astype(float)
    return Dataset(X=X, y=y)


def he_init(d1, d0, seed, rho=0.0):
    """Uniform zero-mean weights with variance 2/fan-in per layer."""
    if d1 < 1 or d0 < 1:
        raise DomainError("d1 and d0 must be at least 1")
    rng = np.random.default_rng(seed)
    a_w = np.sqrt(6.0 / d0)
    a_z = np.sqrt(6.0 / d1)
    W = rng.uniform(-a_w, a_w, (d1, d0))
    z = rng.uniform(-a_z, a_z, d1)
    return NetParams(W=W, z=z, rho=rho)


def adam_train(params, data, config):
    """Run Adam on a copy of params; returns final metrics and per-epoch history.

    Raises
    ------
    DomainError
        If params.rho differs from config.rho.
    NonFinite
        If the epoch loss becomes NaN or infinite.
    """
    return _adam_train_stack([params], [data], config, [config.seed])[0]


def _adam_train_stack(params, datasets, config, seeds):
    """adam_train on S same-shape problems at once, one per seed; a list of its results.

    Member s trains params[s] on datasets[s] with config and its seed set
    to seeds[s], and ends exactly as a lone adam_train run would: every
    operation acts on each member's slice alone.  The members sit on a
    leading axis, so one mini-batch step is one round of numpy calls for
    all of them; a member that stops early leaves the stack.
    """
    rho = config.rho
    if any(p.rho != rho for p in params):
        raise DomainError(f"every member must have leak config.rho = {rho!r}")
    d1, d0 = params[0].W.shape
    N = datasets[0].n_samples
    size_W = d1 * d0
    # each member's W and z are views of one row, and so are their
    # gradients, so each Adam step is one pass over all the parameters
    theta = np.stack([np.concatenate([p.W.ravel(), p.z]) for p in params])
    grad = np.empty_like(theta)
    # each epoch's shuffled samples, one row per sample, so that every
    # mini-batch is a slice
    X_perm = np.empty((len(params), N, d0))
    y_perm = np.empty((len(params), N))
    batch = max(1, min(N // 2, d1 // 2))      # at most N, since N >= 1

    rngs = [np.random.default_rng(seed) for seed in seeds]
    opt = Adam(theta.shape)
    decay_start = config.epochs - config.lr_decay_epochs
    decay_q = (
        DECAY_TOTAL_FACTOR ** (1.0 / config.lr_decay_epochs)
        if config.lr_decay_epochs > 0
        else 1.0
    )

    lr = config.lr
    members = list(range(len(params)))            # input index of each stack row
    histories = [[] for _ in members]
    results = [None for _ in members]
    for epoch in range(config.epochs):
        if epoch >= decay_start:
            lr *= decay_q
        W = theta[:, :size_W].reshape(-1, d1, d0)
        z = theta[:, size_W:]
        grad_W = grad[:, :size_W].reshape(-1, d1, d0)
        grad_z = grad[:, size_W:]
        for row, k in enumerate(members):
            perm = rngs[k].permutation(N)
            np.take(datasets[k].X.T, perm, axis=0, out=X_perm[row])
            np.take(datasets[k].y, perm, out=y_perm[row])
        for start in range(0, N - batch + 1, batch):
            Xb = X_perm[:, start:start + batch].swapaxes(1, 2)
            _, A, H, yhat = evaluate(W, z, rho, Xb)
            grad_W[...], grad_z[...] = backward(z, Xb, A, H, y_perm[:, start:start + batch] - yhat)
            theta += opt.step(grad, lr)
        stay = []
        for row, k in enumerate(members):
            data = datasets[k]
            P, _, _, yhat = evaluate(W[row], z[row], rho, data.X)
            epoch_mse = mean_square(data.y - yhat)
            if not np.isfinite(epoch_mse):
                raise NonFinite(epoch)
            epoch_mce = misclassified(data.y, yhat)
            histories[k].append((epoch_mse, epoch_mce))
            if (config.stop_on_zero_mce and epoch_mce == 0.0) or epoch + 1 == config.epochs:
                results[k] = (
                    NetParams(W=W[row].copy(), z=z[row].copy(), rho=rho),
                    TrainResult(float(np.min(np.abs(P))), histories[k]),
                )
            else:
                stay.append(row)
        if not stay:
            break
        if len(stay) < len(members):
            members = [members[row] for row in stay]
            theta, grad, X_perm, y_perm = theta[stay], grad[stay], X_perm[stay], y_perm[stay]
            opt.m, opt.v = opt.m[stay], opt.v[stay]
    return results


def _run_cell(d, N, config, path, seeds):
    """Train seeds fresh d-by-d problems on N samples as one stack; their TrainResults.

    Seed i takes its data, init and run seeds from derive_seed(*path, i, 0..2).
    """
    indices = range(seeds)
    datasets = [gen_gaussian_dataset(d, N, derive_seed(*path, i, 0)) for i in indices]
    params = [he_init(d, d, derive_seed(*path, i, 1), rho=config.rho) for i in indices]
    run_seeds = [derive_seed(*path, i, 2) for i in indices]
    return [result for _, result in _adam_train_stack(params, datasets, config, run_seeds)]


def scan_overparam(d_values, N_factors, seeds, config):
    """Grid of widths and sample counts; per cell the mean and std of final MCE.

    Each cell trains d0 = d1 = d on N = round(factor * d^2) samples for
    the given number of fresh seeds.  Rows carry the parameters-per-sample
    ratio d^2 / N alongside the aggregate error.
    """
    if not d_values or not N_factors:
        raise DomainError("d_values and N_factors must be nonempty")
    if seeds < 1:
        raise DomainError("seeds must be at least 1")
    if any(d < 1 for d in d_values) or not all(f > 0 for f in N_factors):
        raise DomainError("every d must be at least 1 and every N factor positive")
    rows = []
    for ci, (d, f) in enumerate(product(d_values, N_factors)):
        N = max(1, round(f * d * d))
        results = _run_cell(d, N, config, (config.seed, "scan", ci), seeds)
        cell_mces = np.array([result.final_mce for result in results])
        rows.append({
            "d": d,
            "N": N,
            "params_over_N": d * d / N,
            "mce_mean": float(cell_mces.mean()),
            "mce_std": float(cell_mces.std()),
            "mce_values": [float(v) for v in cell_mces],
        })
    return rows


def dlm_diagnostic(d, seeds, config):
    """Per-seed final |pre-activation| floor and loss on N = floor(d^2 / 5) samples.

    Expects a config with a learning-rate decay phase and no early stop,
    so the loss settles before the floor is read off.
    """
    if d < 4:
        raise DomainError("d must be at least 4")
    if seeds < 1:
        raise DomainError("seeds must be at least 1")
    N = d * d // 5
    results = _run_cell(d, N, config, (config.seed, "diagnostic"), seeds)
    return [{"seed_index": s, "min_neural_input": result.min_neural_input,
             "final_mse": result.final_mse} for s, result in enumerate(results)]
