"""One-hidden-layer leaky-ReLU network: forward pass, losses, slopes, gradients.

evaluate and backward are the only places the forward and gradient math
is written; every loss, trainer and stationarity check goes through them.
Given ForwardBuffers and GradientBuffers they write every array into
them, so that a training step allocates nothing; without, they allocate
fresh ones.  Both ways run the same ufunc and matmul calls, bit for bit.

The model has no biases and a single scalar output per sample.  Data is
kept column-per-sample: X is (d0, N), labels y in {0, 1}^N.  The first
layer is W (d1, d0), the second z (d1,), and the unit is
f(u) = u for u > 0 and rho * u for u < 0 with a finite rho != 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_at_least


def check_leak(rho):
    """Reject a leak that is not finite or is 1, where the unit is linear."""
    if not math.isfinite(rho) or rho == 1.0:
        raise DomainError(f"rho must be finite and differ from 1, got {rho!r}")


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
            raise DomainError("W must be (d1, d0) and z (d1,)")
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
            raise DomainError("X must be (d0, N) and y (N,)")
        require_at_least(1, N=self.y.shape[0])
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


class ForwardBuffers:
    """The arrays evaluate writes for W (*lead, d1, d0) and X (*lead, d0, n).

    P, the slope mask, A, H and yhat, with the fixed views of them the
    pass uses: H^T and yhat as a column.  Each call overwrites them.
    """

    def __init__(self, lead, d1, n):
        shape = (*lead, d1, n)
        self.P = np.empty(shape)
        self.mask = np.empty(shape, dtype=bool)
        self.A = np.empty(shape)
        self.H = np.empty(shape)
        self.HT = self.H.swapaxes(-1, -2)
        self.yhat_col = np.empty((*lead, n, 1))
        self.yhat = self.yhat_col[..., 0]


class GradientBuffers:
    """The arrays backward writes for W (*lead, d1, d0) and X (*lead, d0, n).

    The residual e, with its column and row views; the scratch G of
    z_i a_in e_n; and dW and dz, with dz as a column.  dW and dz are
    buffers of their own, or the arrays given, which may be views of a
    caller's flat gradient.  Each call overwrites them.
    """

    def __init__(self, lead, d1, d0, n, dW=None, dz=None):
        self.e_col = np.empty((*lead, n, 1))
        self.e = self.e_col[..., 0]
        self.e_row = self.e[..., None, :]
        self.G = np.empty((*lead, d1, n))
        self.dW = np.empty((*lead, d1, d0)) if dW is None else dW
        self.dz = np.empty((*lead, d1)) if dz is None else dz
        self.dz_col = self.dz[..., None]


def activation_slopes(P, rho, out=None):
    """Slope matrix of the rectifier at pre-activations P, with slope 1 at zero.

    A gather from (rho, 1) by the mask P >= 0 rather than
    np.where(P >= 0, 1, rho): the same values bit for bit, without a branch
    per entry to mispredict on random signs.  Given ForwardBuffers, the
    mask and slopes go into them.  The mask indexes (rho, 1) directly;
    mode "clip" cannot move an index of 0 or 1, and spares take the copy of
    its output that the default mode makes.
    """
    mask, A = (None, None) if out is None else (out.mask, out.A)
    return np.array([rho, 1.0]).take(np.greater_equal(P, 0.0, out=mask), out=A, mode="clip")


def evaluate(W, z, rho, X, out=None):
    """The network on the columns of X as (P, A, H, yhat).

    P = WX holds the pre-activations, A = a(P) the slopes (1 at zero),
    H = P o A the hidden outputs and yhat = H^T z the outputs.  Leading
    axes of W, z and X, if any, index a stack of networks.  The four
    arrays live in out, ForwardBuffers for these shapes, or in fresh ones.
    """
    if out is None:
        lead = np.broadcast_shapes(W.shape[:-2], z.shape[:-1], X.shape[:-2])
        out = ForwardBuffers(lead, W.shape[-2], X.shape[-1])
    np.matmul(W, X, out=out.P)
    activation_slopes(out.P, rho, out)
    np.multiply(out.P, out.A, out=out.H)
    np.matmul(out.HT, z[..., None], out=out.yhat_col)
    return out.P, out.A, out.H, out.yhat


def backward(z, X, A, H, e, out=None):
    """MSE gradient (dW, dz) over the columns of X from evaluate's A, H and e = y - yhat.

    dW_i = -(2/N) z_i sum_n a_in e_n x_n and dz = -(2/N) H e, with slope 1
    at zero pre-activations.  Leading axes index a stack, as in evaluate.
    dW and dz live in out, GradientBuffers for these shapes, or in fresh
    ones; an e other than out.e is first copied into out.e.
    """
    if out is None:
        lead = np.broadcast_shapes(z.shape[:-1], X.shape[:-2], A.shape[:-2], e.shape[:-1])
        out = GradientBuffers(lead, A.shape[-2], X.shape[-2], X.shape[-1])
    if e is not out.e:
        np.copyto(out.e, e)
    scale = -2.0 / X.shape[-1]
    np.matmul(H, out.e_col, out=out.dz_col)
    np.multiply(scale, out.dz, out=out.dz)
    np.multiply(z[..., :, None], A, out=out.G)
    np.multiply(out.G, out.e_row, out=out.G)
    np.matmul(out.G, X.swapaxes(-1, -2), out=out.dW)
    np.multiply(scale, out.dW, out=out.dW)
    return out.dW, out.dz


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
        raise DomainError("A and X must be matrices with equal column counts")
    d0 = X.shape[0]
    d1 = A.shape[0]
    return np.repeat(A, d0, axis=0) * np.tile(X, (d1, 1))
