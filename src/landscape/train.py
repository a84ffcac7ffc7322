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
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import NonFinite
from .network import Dataset, NetParams, backward, evaluate, mean_square, misclassified

# Learning-rate shrink factor applied across the whole decay phase.
DECAY_TOTAL_FACTOR = 1e-3


@dataclass
class TrainConfig:
    epochs: int = 4000
    lr: float = 0.01
    batch: int | None = None            # None: floor(min(N/2, d1/2)), at least 1
    beta1: float = 0.9
    beta2: float = 0.99
    adam_eps: float = 1e-8
    lr_decay_epochs: int = 0
    seed: int = 0
    rho: float = 0.0
    stop_on_zero_mce: bool = True

    def __post_init__(self):
        counts = {"epochs": self.epochs, "lr_decay_epochs": self.lr_decay_epochs, "seed": self.seed}
        if self.batch is not None:
            counts["batch"] = self.batch
        for name, value in counts.items():
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        for name in ("lr", "beta1", "beta2", "adam_eps", "rho"):
            value = getattr(self, name)
            if not isinstance(value, (int, float, np.number)) or isinstance(value, bool):
                raise TypeError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not isinstance(self.stop_on_zero_mce, bool):
            raise TypeError(f"stop_on_zero_mce must be true or false, got {self.stop_on_zero_mce!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if not 0.0 < self.lr < math.inf:
            raise ValueError("lr must be positive and finite")
        if not self.adam_eps > 0.0:
            raise ValueError("adam_eps must be positive")
        if self.batch is not None and self.batch < 1:
            raise ValueError("batch must be at least 1")
        if self.lr_decay_epochs < 0 or self.lr_decay_epochs > self.epochs:
            raise ValueError("lr_decay_epochs must lie in [0, epochs]")


@dataclass
class TrainResult:
    final_mse: float
    final_mce: float
    min_neural_input: float
    epochs_run: int
    history: list = field(default_factory=list)   # (mse, mce) per epoch


class Adam:
    """Adam with bias correction over one parameter array of the given shape."""

    def __init__(self, shape, beta1=0.9, beta2=0.99, eps=1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)

    def step(self, grad, lr):
        """Bias-corrected update at learning rate lr, to add to the parameters."""
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * grad
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * grad * grad
        return -lr * (self.m / c1) / (np.sqrt(self.v / c2) + self.eps)


def derive_seed(*parts):
    """Stable child seed from a label-and-index path (top seed first)."""
    entropy = [p & 0xFFFFFFFF if isinstance(p, int) else _label_entropy(p) for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _label_entropy(label):
    return int.from_bytes(str(label).encode(), "little") & 0xFFFFFFFF


def gen_gaussian_dataset(d0, N, seed):
    """Standard normal X (d0, N) with fair-coin {0, 1} labels."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((d0, N))
    y = rng.integers(0, 2, N).astype(float)
    return Dataset(X=X, y=y)


def he_init(d1, d0, seed, rho=0.0):
    """Uniform zero-mean weights with variance 2/fan-in per layer."""
    if d1 < 1 or d0 < 1:
        raise ValueError("d1 and d0 must be at least 1")
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
    rho = params[0].rho
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
    batch = config.batch if config.batch is not None else max(1, min(N // 2, d1 // 2))
    batch = min(batch, N)

    rngs = [np.random.default_rng(seed) for seed in seeds]
    opt = Adam(theta.shape, config.beta1, config.beta2, config.adam_eps)
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
                    TrainResult(
                        final_mse=epoch_mse,
                        final_mce=epoch_mce,
                        min_neural_input=float(np.min(np.abs(P))),
                        epochs_run=epoch + 1,
                        history=histories[k],
                    ),
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


def _run_cell(d, N, config, top_seed, tag, seeds):
    """Train seeds fresh d-by-d problems on N samples as one stack; their TrainResults."""
    indices = range(seeds)
    datasets = [gen_gaussian_dataset(d, N, derive_seed(top_seed, tag, i, 0)) for i in indices]
    params = [he_init(d, d, derive_seed(top_seed, tag, i, 1), rho=config.rho) for i in indices]
    run_seeds = [derive_seed(top_seed, tag, i, 2) for i in indices]
    return [result for _, result in _adam_train_stack(params, datasets, config, run_seeds)]


def scan_overparam(d_values, N_factors, seeds, config):
    """Grid of widths and sample counts; per cell the mean and std of final MCE.

    Each cell trains d0 = d1 = d on N = round(factor * d^2) samples for
    the given number of fresh seeds.  Rows carry the parameters-per-sample
    ratio d^2 / N alongside the aggregate error.
    """
    if not d_values or not N_factors:
        raise ValueError("d_values and N_factors must be nonempty")
    if seeds < 1:
        raise ValueError("seeds must be at least 1")
    rows = []
    for ci, (d, f) in enumerate(product(d_values, N_factors)):
        N = max(1, round(f * d * d))
        cell_mces = np.array([result.final_mce
                              for result in _run_cell(d, N, config, config.seed, f"scan-{ci}", seeds)])
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
        raise ValueError("d must be at least 4")
    N = d * d // 5
    results = _run_cell(d, N, config, config.seed, "diagnostic", seeds)
    return [{"seed_index": s, "min_neural_input": result.min_neural_input,
             "final_mse": result.final_mse} for s, result in enumerate(results)]
