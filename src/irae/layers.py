"""Invertible building blocks: ActNorm, 1x1 convolution, affine coupling, squeeze.

Every layer exposes a differentiable ``forward``, an exact ``inverse`` (run
off the tape, on plain numpy arrays), ``parameters()`` in a fixed order, and
a log-determinant diagnostic whose finiteness witnesses invertibility.  The
diagnostic plays no role in the training loss.
"""

from __future__ import annotations

import warnings

import numpy as np

from .autodiff import (
    Tensor,
    add,
    concat_channels,
    conv2d_same,
    mul,
    narrow_channels,
    no_grad,
    reshape,
    sigmoid,
    tanh,
    _result,
    _accum,
)

__all__ = [
    "SingularWeightError",
    "ActNorm",
    "InvertibleConv1x1",
    "AffineCoupling",
    "squeeze",
    "unsqueeze",
    "squeeze_array",
    "unsqueeze_array",
]

DET_THRESHOLD = 1e-12
STD_FLOOR = 1e-8


class SingularWeightError(RuntimeError):
    """A 1x1 convolution weight is numerically singular; its inverse refuses."""


# ---------------------------------------------------------------------------
# Partial-pivot LU.  No model code calls these; they stay only because the
# benchmark's span tracer (bench/spans.py) names them and tests cover them.
# ---------------------------------------------------------------------------


def lu_factor(a):
    """LU factorization with partial pivoting: returns (lu, perm, sign).

    ``lu`` packs L (unit diagonal, below) and U (on and above); ``perm`` maps
    factored row i to original row perm[i]; ``sign`` is the permutation sign.
    """
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"lu_factor: expected square matrix, got {a.shape}")
    perm = np.arange(n)
    sign = 1.0
    for col in range(n - 1):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            perm[[col, pivot]] = perm[[pivot, col]]
            sign = -sign
        if a[col, col] == 0.0:
            continue  # singular; det() will come out 0
        factors = a[col + 1 :, col] / a[col, col]
        a[col + 1 :, col] = factors
        a[col + 1 :, col + 1 :] -= np.outer(factors, a[col, col + 1 :])
    return a, perm, sign


def lu_det(lu, sign):
    return sign * float(np.prod(np.diag(lu)))


def lu_inverse(lu, perm):
    """Invert from the packed LU factors by solving against the identity."""
    n = lu.shape[0]
    rhs = np.eye(n)[perm]  # apply row permutation to I
    # forward substitution with unit-lower L
    for i in range(1, n):
        rhs[i] -= lu[i, :i] @ rhs[:i]
    # back substitution with U
    for i in range(n - 1, -1, -1):
        rhs[i] -= lu[i, i + 1 :] @ rhs[i + 1 :]
        rhs[i] /= lu[i, i]
    return rhs


def random_orthogonal(n, rng, dtype=np.float64):
    """Uniformly random orthogonal matrix: QR of a Gaussian, sign-fixed."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    return q.astype(dtype)


# ---------------------------------------------------------------------------
# ActNorm
# ---------------------------------------------------------------------------


class ActNorm:
    """Per-channel affine y = s*x + b with data-dependent initialization.

    The first batch it sees sets s = 1/std and b = -mean/std so the output
    has zero mean and unit standard deviation per channel (population std).
    """

    def __init__(self, channels, dtype=np.float32):
        self.channels = channels
        self.scale = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.bias = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.initialized = False

    def initialize(self, x):
        """Data-dependent init from an [N,C,H,W] batch (not differentiated)."""
        if self.initialized:
            raise RuntimeError("ActNorm already initialized")
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        if data.ndim != 4 or data.shape[1] != self.channels:
            raise ValueError(f"ActNorm.initialize: bad shape {data.shape}")
        if data.shape[0] * data.shape[2] * data.shape[3] < 2:
            raise ValueError("ActNorm.initialize: needs more than one element per channel")
        mean = data.mean(axis=(0, 2, 3), dtype=np.float64)
        std = data.std(axis=(0, 2, 3), dtype=np.float64)
        degenerate = std < STD_FLOOR
        if np.any(degenerate):
            warnings.warn(
                f"ActNorm: {int(degenerate.sum())} constant channel(s); "
                f"standard deviation clamped to {STD_FLOOR}",
                RuntimeWarning,
                stacklevel=2,
            )
            std = np.where(degenerate, STD_FLOOR, std)
        std = np.minimum(std, 1.0 / STD_FLOOR)  # keeps |s| >= 1e-8
        self.scale.data[...] = (1.0 / std).astype(self.scale.dtype)
        self.bias.data[...] = (-mean / std).astype(self.bias.dtype)
        self.initialized = True

    def forward(self, x):
        if not self.initialized:
            raise RuntimeError("ActNorm used before initialization")
        return add(mul(x, self.scale), self.bias)

    def inverse(self, y):
        """Exact inverse on an [N,C,H,W] array; returns an array."""
        if not self.initialized:
            raise RuntimeError("ActNorm used before initialization")
        s = self.scale.data.reshape(1, -1, 1, 1)
        b = self.bias.data.reshape(1, -1, 1, 1)
        return (y - b) / s

    def log_det(self, h, w):
        """h*w * sum(log|s|); finite whenever every scale is nonzero."""
        return float(h * w * np.sum(np.log(np.abs(self.scale.data.astype(np.float64)))))

    def parameters(self):
        return [self.scale, self.bias]


# ---------------------------------------------------------------------------
# Invertible 1x1 convolution
# ---------------------------------------------------------------------------


class InvertibleConv1x1:
    """Per-pixel channel mix y[:,:,i,j] = W @ x[:,:,i,j], W square learnable.

    Initialized to a random orthogonal matrix (invertible by construction,
    |det| = 1).  The inverse refuses when |det W| falls below 1e-12 or an
    entry of W is not finite.
    """

    def __init__(self, channels, rng, dtype=np.float32):
        self.channels = channels
        w = random_orthogonal(channels, rng, dtype=dtype)
        self.weight = Tensor(w, requires_grad=True)

    def forward(self, x):
        if x.shape[1] != self.channels:
            raise ValueError(f"conv1x1: expected {self.channels} channels, got {x.shape[1]}")
        kernel = reshape(self.weight, (self.channels, self.channels, 1, 1))
        return conv2d_same(x, kernel)

    def _slogdet(self):
        """W cast to float64, log|det W|, and whether the inverse may use W.

        W is refused when an entry is not finite (slogdet warns on NaN and
        passes inf) or when |det W| <= DET_THRESHOLD; a singular W has sign 0
        and log|det W| = -inf.
        """
        w = self.weight.data.astype(np.float64)
        if not np.isfinite(w).all():
            return w, np.nan, False
        sign, logabsdet = np.linalg.slogdet(w)
        return w, float(logabsdet), bool(sign != 0 and logabsdet > np.log(DET_THRESHOLD))

    def inverse(self, y):
        w, _, invertible = self._slogdet()
        if not invertible:
            raise SingularWeightError(
                f"1x1 convolution weight singular: |det| <= {DET_THRESHOLD} "
                "or an entry not finite, cannot invert"
            )
        w_inv = np.linalg.inv(w).astype(self.weight.dtype)
        n, c, h, wd = y.shape
        return np.matmul(w_inv, y.reshape(n, c, h * wd)).reshape(n, c, h, wd)

    def log_det(self, h, w):
        """h*w * log|det W|: -inf for a singular W, NaN for a non-finite one."""
        return h * w * self._slogdet()[1]

    def parameters(self):
        return [self.weight]


# ---------------------------------------------------------------------------
# Affine coupling
# ---------------------------------------------------------------------------


def _conv_param(c_out, c_in, k, rng, dtype, zero=False):
    if zero:
        w = np.zeros((c_out, c_in, k, k), dtype=dtype)
    else:
        w = (rng.standard_normal((c_out, c_in, k, k)) / np.sqrt(c_in * k * k)).astype(dtype)
    return Tensor(w, requires_grad=True), Tensor(np.zeros(c_out, dtype=dtype), requires_grad=True)


class AffineCoupling:
    """Scale-and-shift of the second channel half, driven by the first.

    The internal network is conv3x3(C/2->h) -> tanh -> conv3x3(h->h) -> tanh
    -> conv3x3(h->C) with the final convolution zero-initialized, so the
    coupling starts as the identity map scaled by sigma(2).  The scale is
    s = sigmoid(raw + 2), bounded in (0,1) and safely away from 0 at init.
    """

    def __init__(self, channels, hidden, rng, dtype=np.float32):
        if channels % 2 != 0:
            raise ValueError(f"coupling: channel count {channels} must be even")
        self.channels = channels
        self.hidden = hidden
        half = channels // 2
        self.w1, self.b1 = _conv_param(hidden, half, 3, rng, dtype)
        self.w2, self.b2 = _conv_param(hidden, hidden, 3, rng, dtype)
        self.w3, self.b3 = _conv_param(channels, hidden, 3, rng, dtype, zero=True)

    def _net(self, xa):
        h = tanh(conv2d_same(xa, self.w1, self.b1))
        h = tanh(conv2d_same(h, self.w2, self.b2))
        out = conv2d_same(h, self.w3, self.b3)
        half = self.channels // 2
        raw_s = narrow_channels(out, 0, half)
        t = narrow_channels(out, half, self.channels)
        return sigmoid(add(raw_s, 2.0)), t

    def forward(self, x):
        if x.shape[1] != self.channels:
            raise ValueError(f"coupling: expected {self.channels} channels, got {x.shape[1]}")
        half = self.channels // 2
        xa = narrow_channels(x, 0, half)
        xb = narrow_channels(x, half, self.channels)
        s, t = self._net(xa)
        yb = add(mul(s, xb), t)
        return concat_channels(xa, yb)

    def inverse(self, y):
        half = self.channels // 2
        ya = y[:, :half]
        yb = y[:, half:]
        with no_grad():
            s, t = self._net(Tensor(ya))
        return np.concatenate([ya, (yb - t.data) / s.data], axis=1)

    def log_det(self, x):
        """Per-sample sum of log s over the transformed half; shape [N]."""
        half = self.channels // 2
        with no_grad():
            s, _ = self._net(Tensor(x[:, :half]))
        return np.log(s.data.astype(np.float64)).sum(axis=(1, 2, 3))

    def parameters(self):
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]


# ---------------------------------------------------------------------------
# Squeeze: factor-2 space-to-depth, a pure permutation of elements
# ---------------------------------------------------------------------------


def squeeze_array(a):
    """[N,C,H,W] -> [N,4C,H/2,W/2]; out channel c*4 + 2*dy + dx holds input
    pixel (2i+dy, 2j+dx) of input channel c."""
    n, c, h, w = a.shape
    if h % 2 or w % 2:
        raise ValueError(f"squeeze: H and W must be even, got {h}x{w}")
    out = a.reshape(n, c, h // 2, 2, w // 2, 2)
    out = out.transpose(0, 1, 3, 5, 2, 4)  # N, C, dy, dx, i, j
    return np.ascontiguousarray(out.reshape(n, 4 * c, h // 2, w // 2))


def unsqueeze_array(a):
    """Exact inverse of squeeze_array."""
    n, c4, h2, w2 = a.shape
    if c4 % 4 != 0:
        raise ValueError(f"unsqueeze: channel count {c4} not divisible by 4")
    c = c4 // 4
    out = a.reshape(n, c, 2, 2, h2, w2)
    out = out.transpose(0, 1, 4, 2, 5, 3)  # N, C, i, dy, j, dx
    return np.ascontiguousarray(out.reshape(n, c, 2 * h2, 2 * w2))


def squeeze(x):
    def bwd():
        _accum(x, unsqueeze_array(out.grad))

    out = _result(squeeze_array(x.data), (x,), bwd)
    return out


def unsqueeze(x):
    def bwd():
        _accum(x, squeeze_array(out.grad))

    out = _result(unsqueeze_array(x.data), (x,), bwd)
    return out
