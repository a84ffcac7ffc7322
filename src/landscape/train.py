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

from .errors import DomainError, NonFinite, require_at_least
from .network import (Dataset, ForwardBuffers, GradientBuffers, NetParams, backward, evaluate,
                      mean_square, misclassified)

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
        try:
            return number and math.isfinite(value)
        except OverflowError:   # an integer too large for any double
            return False
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
        require_at_least(1, epochs=self.epochs)
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
        self._delta = np.empty(shape)
        self._tmp = np.empty(shape)

    def step(self, grad, lr):
        """Bias-corrected update at learning rate lr, to add to the parameters.

        The update lives in a buffer of the optimizer's own, valid until the
        next step.  m and v are updated in place, in the order
        m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g, and the update is
        (-lr (m / c1)) / (sqrt(v / c2) + eps).
        """
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        m, v, delta, tmp = self.m, self.v, self._delta, self._tmp
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, grad, out=tmp)
        v *= ADAM_BETA2
        v += np.multiply(np.multiply(1.0 - ADAM_BETA2, grad, out=tmp), grad, out=tmp)
        np.multiply(-lr, np.divide(m, c1, out=delta), out=delta)
        delta /= np.add(np.sqrt(np.divide(v, c2, out=tmp), out=tmp), ADAM_EPS, out=tmp)
        return delta

    def keep(self, rows):
        """Keep the state of these rows of a stacked parameter array, dropping the rest."""
        self.m, self.v = self.m[rows], self.v[rows]
        self._delta, self._tmp = np.empty_like(self.m), np.empty_like(self.m)


# The entropy word of each seed label: its first 4 bytes, little-endian, the
# word every stream has drawn from it.
_LABEL_ENTROPY = {
    "scan": int.from_bytes(b"scan", "little"),
    "init": int.from_bytes(b"init", "little"),
    "diagnostic": int.from_bytes(b"diag", "little"),
}


def derive_seed(*parts):
    """Stable child seed from a label-and-index path (top seed first).

    A non-negative integer (numpy's included) enters whole, as SeedSequence
    takes it: one 32-bit word below 2^32, more words above.  A label enters
    as its fixed entropy word.

    Raises
    ------
    DomainError
        For a negative integer, or a label other than "scan", "init" and
        "diagnostic": a new label needs its own word, or its streams could
        collide with another's.
    """
    entropy = []
    for p in parts:
        if isinstance(p, (int, np.integer)):
            if p < 0:
                raise DomainError(f"seed parts must be non-negative integers, got {p}")
            entropy.append(int(p))
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
    require_at_least(1, d1=d1, d0=d0)
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
        If params.rho differs from config.rho, or params.W has a column
        count other than data.X's row count.
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

    A step allocates nothing.  network.evaluate and backward, which still
    hold the only copy of the forward and gradient math, write into
    buffers built for the stack's shape; backward writes the gradient
    straight into the flat array Adam steps on; Adam updates in place; and
    each mini-batch is a fixed view of the epoch's shuffled samples.  All
    of these are built again when a member leaves.

    Raises
    ------
    DomainError
        If a member's leak differs from config.rho, its W has a column count
        other than its X's row count, or its (d1, d0, N) differs from the
        first member's; before any step.
    """
    rho = config.rho
    if any(p.rho != rho for p in params):
        raise DomainError(f"every member must have leak config.rho = {rho!r}")
    d1, d0 = params[0].W.shape
    N = datasets[0].n_samples
    for k, (p, data) in enumerate(zip(params, datasets)):
        if p.d0 != data.d0:
            raise DomainError(f"member {k}: W has {p.d0} columns but X has {data.d0} rows")
        if (p.d1, p.d0, data.n_samples) != (d1, d0, N):
            raise DomainError(f"member {k} has (d1, d0, N) = {(p.d1, p.d0, data.n_samples)}, "
                              f"member 0 has {(d1, d0, N)}")
    # each member's W and z are views of one row, and so are their
    # gradients, so each Adam step is one pass over all the parameters
    theta = np.stack([np.concatenate([p.W.ravel(), p.z]) for p in params])
    # each epoch's shuffled samples, one row per sample, so that every
    # mini-batch is a slice
    X_perm = np.empty((len(params), N, d0))
    y_perm = np.empty((len(params), N))
    batch = max(1, min(N // 2, d1 // 2))      # at most N, since N >= 1
    W, z, grad, fwd, bwd, batches = _step_views(theta, X_perm, y_perm, d1, batch)
    full = ForwardBuffers((), d1, N)          # one member's epoch evaluation

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
        # mode "clip" cannot move a permutation's indices, and spares take
        # the copy of its output that the default mode makes
        for row, k in enumerate(members):
            perm = rngs[k].permutation(N)
            np.take(datasets[k].X.T, perm, axis=0, out=X_perm[row], mode="clip")
            np.take(datasets[k].y, perm, out=y_perm[row], mode="clip")
        for Xb, yb in batches:
            _, A, H, yhat = evaluate(W, z, rho, Xb, fwd)
            np.subtract(yb, yhat, out=bwd.e)
            backward(z, Xb, A, H, bwd.e, bwd)
            theta += opt.step(grad, lr)
        stay = []
        for row, k in enumerate(members):
            data = datasets[k]
            P, _, _, yhat = evaluate(W[row], z[row], rho, data.X, full)
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
            theta, X_perm, y_perm = theta[stay], X_perm[stay], y_perm[stay]
            opt.keep(stay)
            W, z, grad, fwd, bwd, batches = _step_views(theta, X_perm, y_perm, d1, batch)
    return results


def _step_views(theta, X_perm, y_perm, d1, batch):
    """What a mini-batch step on the stack in theta reads and writes, built once.

    Returns W and z as views of theta; the flat gradient; the forward
    buffers; the gradient buffers, whose dW and dz are views of that
    gradient; and each mini-batch's X (S, d0, batch) and y (S, batch) as
    views of X_perm and y_perm, whose contents change every epoch while the
    views stay.
    """
    S, N, d0 = X_perm.shape
    size_W = d1 * d0
    grad = np.empty_like(theta)
    bwd = GradientBuffers((S,), d1, d0, batch,
                          dW=grad[:, :size_W].reshape(S, d1, d0), dz=grad[:, size_W:])
    batches = [(X_perm[:, start:start + batch].swapaxes(1, 2), y_perm[:, start:start + batch])
               for start in range(0, N - batch + 1, batch)]
    return (theta[:, :size_W].reshape(S, d1, d0), theta[:, size_W:], grad,
            ForwardBuffers((S,), d1, batch), bwd, batches)


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
    require_at_least(1, seeds=seeds)
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
    require_at_least(4, d=d)
    require_at_least(1, seeds=seeds)
    N = d * d // 5
    results = _run_cell(d, N, config, (config.seed, "diagnostic"), seeds)
    return [{"seed_index": s, "min_neural_input": result.min_neural_input,
             "final_mse": result.final_mse} for s, result in enumerate(results)]
