"""One-hidden-layer leaky-ReLU network: forward pass, losses, slopes, gradients.

evaluate and backward are the only places the forward and gradient math
is written; every loss, trainer and stationarity check goes through them.

The model has no biases and a single scalar output per sample.  Data is
kept column-per-sample: X is (d0, N), labels y in {0, 1}^N.  The first
layer is W (d1, d0), the second z (d1,), and the unit is
f(u) = u for u > 0 and rho * u for u < 0 with a finite rho != 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadLeak, DomainError, ShapeMismatch


def check_leak(rho):
    """Reject a leak that is not finite or is 1, where the unit is linear."""
    if not math.isfinite(rho) or rho == 1.0:
        raise BadLeak(f"rho must be finite and differ from 1, got {rho!r}")


@dataclass
class NetParams:
    """First-layer weights W (d1, d0), output weights z (d1,), leak rho."""

    W: np.ndarray
    z: np.ndarray
    rho: float

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=float)
        self.z = np.asarray(self.z, dtype=float)
        check_leak(self.rho)
        if self.W.ndim != 2 or self.z.ndim != 1 or self.W.shape[0] != self.z.shape[0]:
            raise ShapeMismatch("W must be (d1, d0) and z (d1,)")
        if not (np.all(np.isfinite(self.W)) and np.all(np.isfinite(self.z))):
            raise DomainError("non-finite parameter entries")

    @property
    def d1(self):
        return self.W.shape[0]

    @property
    def d0(self):
        return self.W.shape[1]


@dataclass
class Dataset:
    """Input matrix X (d0, N), one sample per column, binary labels y (N,)."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.X.ndim != 2 or self.y.ndim != 1 or self.X.shape[1] != self.y.shape[0]:
            raise ShapeMismatch("X must be (d0, N) and y (N,)")
        if self.y.shape[0] < 1:
            raise DomainError("dataset needs at least one sample")
        if not np.all((self.y == 0.0) | (self.y == 1.0)):
            raise DomainError("labels must be exactly 0 or 1")
        if not np.all(np.isfinite(self.X)):
            raise DomainError("non-finite input entries")

    @property
    def n_samples(self):
        return self.X.shape[1]

    @property
    def d0(self):
        return self.X.shape[0]


def activation_slopes(P, rho):
    """Slope matrix of the rectifier at pre-activations P, with slope 1 at zero.

    A gather from (rho, 1) by sign rather than np.where(P >= 0, 1, rho):
    the same values bit for bit, without a branch per entry to mispredict
    on random signs.
    """
    return np.array([rho, 1.0]).take((np.asarray(P) >= 0.0).astype(np.intp))


def evaluate(W, z, rho, X):
    """The network on the columns of X as (P, A, H, yhat).

    P = WX holds the pre-activations, A = a(P) the slopes (1 at zero),
    H = P o A the hidden outputs and yhat = H^T z the outputs.  Leading
    axes of W, z and X, if any, index a stack of networks.
    """
    P = W @ X
    A = activation_slopes(P, rho)
    H = P * A
    return P, A, H, (H.swapaxes(-1, -2) @ z[..., None])[..., 0]


def backward(z, X, A, H, e):
    """MSE gradient (dW, dz) over the columns of X from evaluate's A, H and e = y - yhat.

    dW_i = -(2/N) z_i sum_n a_in e_n x_n and dz = -(2/N) H e, with slope 1
    at zero pre-activations.  Leading axes index a stack, as in evaluate.
    """
    scale = -2.0 / X.shape[-1]
    dz = scale * (H @ e[..., None])[..., 0]
    dW = scale * ((z[..., :, None] * A * e[..., None, :]) @ X.swapaxes(-1, -2))
    return dW, dz


def mean_square(e):
    """(1/N) ||e||^2 of a length-N residual."""
    return float(e @ e) / e.size


def misclassified(y, yhat):
    """Fraction misclassified at output threshold 0.5; a tie predicts class 1."""
    return float(np.mean((yhat >= 0.5) != (y == 1.0)))


def mse(params, data):
    """Mean square error (1/N) ||y - yhat||^2."""
    return mean_square(data.y - evaluate(params.W, params.z, params.rho, data.X)[3])


def mce(params, data):
    """Fraction misclassified at output threshold 0.5; a tie predicts class 1."""
    return misclassified(data.y, evaluate(params.W, params.z, params.rho, data.X)[3])


def khatri_rao(A, X):
    """Column-wise Kronecker product: column n is a_n (x) x_n, shape (d0*d1, N)."""
    A = np.asarray(A, dtype=float)
    X = np.asarray(X, dtype=float)
    if A.ndim != 2 or X.ndim != 2 or A.shape[1] != X.shape[1]:
        raise ShapeMismatch("A and X must be matrices with equal column counts")
    d0 = X.shape[0]
    d1 = A.shape[0]
    return np.repeat(A, d0, axis=0) * np.tile(X, (d1, 1))
