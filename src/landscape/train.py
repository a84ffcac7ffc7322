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
from dataclasses import dataclass, field, replace
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
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if not 0.0 < self.lr < math.inf:
            raise ValueError("lr must be positive and finite")
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
    """Adam with bias correction over a list of parameter arrays."""

    def __init__(self, shapes, lr, beta1=0.9, beta2=0.99, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]

    def step(self, grads, lr=None):
        """Bias-corrected updates to add to the parameters."""
        if lr is None:
            lr = self.lr
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        deltas = []
        for m, v, grad in zip(self.m, self.v, grads):
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            deltas.append(-lr * (m / c1) / (np.sqrt(v / c2) + self.eps))
        return deltas


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
    X, y = data.X, data.y
    N = data.n_samples
    rho = params.rho
    W = params.W.copy()
    z = params.z.copy()
    d1 = W.shape[0]
    batch = config.batch if config.batch is not None else max(1, min(N // 2, d1 // 2))
    batch = min(batch, N)

    rng = np.random.default_rng(config.seed)
    opt = Adam([W.shape, z.shape], config.lr, config.beta1, config.beta2, config.adam_eps)
    decay_start = config.epochs - config.lr_decay_epochs
    decay_q = (
        DECAY_TOTAL_FACTOR ** (1.0 / config.lr_decay_epochs)
        if config.lr_decay_epochs > 0
        else 1.0
    )

    lr = config.lr
    history = []
    epochs_run = 0
    for epoch in range(config.epochs):
        if epoch >= decay_start:
            lr *= decay_q
        perm = rng.permutation(N)
        for start in range(0, N - batch + 1, batch):
            cols = perm[start:start + batch]
            Xb = X[:, cols]
            _, A, H, yhat = evaluate(W, z, rho, Xb)
            d_W, d_z = opt.step(backward(z, Xb, A, H, y[cols] - yhat), lr=lr)
            W += d_W
            z += d_z
        P, _, _, yhat = evaluate(W, z, rho, X)
        epoch_mse = mean_square(y - yhat)
        if not np.isfinite(epoch_mse):
            raise NonFinite(epoch)
        epoch_mce = misclassified(y, yhat)
        history.append((epoch_mse, epoch_mce))
        epochs_run = epoch + 1
        if config.stop_on_zero_mce and epoch_mce == 0.0:
            break

    result = TrainResult(
        final_mse=history[-1][0],
        final_mce=history[-1][1],
        min_neural_input=float(np.min(np.abs(P))),
        epochs_run=epochs_run,
        history=history,
    )
    return NetParams(W=W, z=z, rho=rho), result


def zca_whiten(X, eps=1e-5):
    """Symmetric whitening of centered columns: U (L + eps I)^(-1/2) U^T X_c.

    Returns (Xw, transform).  The eps shift keeps degenerate directions
    bounded instead of blowing up; directions with eigenvalue well above
    eps come out with unit variance.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[1] < 2:
        raise ValueError("whitening needs at least two samples")
    Xc = X - X.mean(axis=1, keepdims=True)
    C = Xc @ Xc.T / X.shape[1]
    lam, U = np.linalg.eigh(C)
    lam = np.maximum(lam, 0.0)
    T = (U / np.sqrt(lam + eps)) @ U.T
    return T @ Xc, T


def _run_cell(d, N, config, top_seed, tag, index):
    data = gen_gaussian_dataset(d, N, derive_seed(top_seed, tag, index, 0))
    params = he_init(d, d, derive_seed(top_seed, tag, index, 1), rho=config.rho)
    run_config = replace(config, seed=derive_seed(top_seed, tag, index, 2))
    _, result = adam_train(params, data, run_config)
    return result


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
        cell_mces = np.array([_run_cell(d, N, config, config.seed, f"scan-{ci}", s).final_mce
                              for s in range(seeds)])
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
    rows = []
    for s in range(seeds):
        result = _run_cell(d, N, config, config.seed, "diagnostic", s)
        rows.append({"seed_index": s, "min_neural_input": result.min_neural_input,
                     "final_mse": result.final_mse})
    return rows
