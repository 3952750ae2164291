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
    conv2d_same,
    narrow_channels,
    no_grad,
    _accum,
    _check_dtypes,
    _result,
    _sigmoid,
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

_COND_LIMIT = 1e12
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
        """Data-dependent init from a finite [N,C,H,W] batch (not differentiated)."""
        if self.initialized:
            raise RuntimeError("ActNorm already initialized")
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        if data.ndim != 4 or data.shape[1] != self.channels:
            raise ValueError(f"ActNorm.initialize: bad shape {data.shape}")
        if data.shape[0] * data.shape[2] * data.shape[3] < 2:
            raise ValueError("ActNorm.initialize: needs more than one element per channel")
        if not np.isfinite(data).all():
            raise ValueError("ActNorm.initialize: batch holds a value that is not finite")
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

    def _views(self, a):
        """[1,C,1,1] views of scale and bias for a checked input; shared by forward and inverse."""
        if not self.initialized:
            raise RuntimeError("ActNorm used before initialization")
        if a.ndim != 4 or a.shape[1] != self.channels:
            raise ValueError(f"actnorm: incompatible shapes {a.shape} and {self.scale.shape}")
        return self.scale.data.reshape(1, -1, 1, 1), self.bias.data.reshape(1, -1, 1, 1)

    def forward(self, x):
        """y = s*x + b on an [N,C,H,W] tensor: one tape record over (x, scale, bias)."""
        s, b = self._views(x)
        scale, bias = self.scale, self.bias
        _check_dtypes(x, scale, "actnorm")

        def bwd():
            g = out.grad
            if x.requires_grad:
                _accum(x, g * s)
            if scale.requires_grad:
                _accum(scale, (g * x.data).sum(axis=(0, 2, 3)))
            if bias.requires_grad:
                _accum(bias, g.sum(axis=(0, 2, 3)))

        out = _result(x.data * s + b, (x, scale, bias), bwd)
        return out

    def inverse(self, y):
        """Exact inverse on an [N,C,H,W] array; returns an array."""
        s, b = self._views(y)
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
    |det| = 1), or to the identity when rng is None (the caller restores
    real values).  The inverse refuses a W with an entry that is not finite,
    or whose 1-norm condition number ||W||_1 * ||W^-1||_1 exceeds
    _COND_LIMIT = 1e12: there the float64 inverse keeps only about four
    significant digits (relative error up to cond * 2^-53), and a W with a
    repeated row, whose float64 pivots are rounding noise, lands at 1e16 or
    above.  The bound is scale-free: c*W is refused exactly when W is.
    """

    def __init__(self, channels, rng, dtype=np.float32):
        self.channels = channels
        if rng is None:
            w = np.eye(channels, dtype=dtype)
        else:
            w = random_orthogonal(channels, rng, dtype=dtype)
        self.weight = Tensor(w, requires_grad=True)

    def _pixels(self, a):
        """[N,C,H*W] view of an array with the layer's C channels; shared by forward and inverse."""
        if a.ndim != 4 or a.shape[1] != self.channels:
            raise ValueError(f"conv1x1: expected [N,{self.channels},H,W], got shape {a.shape}")
        n, c, h, w = a.shape
        return a.reshape(n, c, h * w)

    def forward(self, x):
        """W @ x per pixel, one matmul over x's [N,C,H*W] view: one tape record over (x, W)."""
        xf, weight = self._pixels(x.data), self.weight
        _check_dtypes(x, weight, "conv1x1")

        def bwd():
            g = y.grad.reshape(xf.shape)
            if x.requires_grad:
                _accum(x, np.matmul(weight.data.T, g).reshape(x.shape))
            if weight.requires_grad:
                _accum(weight, np.tensordot(g, xf, axes=((0, 2), (0, 2))))

        y = _result(np.matmul(weight.data, xf).reshape(x.shape), (x, weight), bwd)
        return y

    def inverse(self, y):
        yf = self._pixels(y)
        w = self.weight.data.astype(np.float64)
        if not np.isfinite(w).all():
            raise SingularWeightError(
                "1x1 convolution weight has an entry not finite, cannot invert"
            )
        try:
            w_inv = np.linalg.inv(w)
            cond = np.linalg.norm(w, 1) * np.linalg.norm(w_inv, 1)
        except np.linalg.LinAlgError:  # an exactly zero pivot
            cond = np.inf
        if not cond <= _COND_LIMIT:  # also refuses a NaN condition number
            raise SingularWeightError(
                f"1x1 convolution weight singular: 1-norm condition number above "
                f"{_COND_LIMIT:g}, cannot invert"
            )
        return np.matmul(w_inv.astype(self.weight.dtype), yf).reshape(y.shape)

    def log_det(self, h, w):
        """h*w * log|det W| from float64 LAPACK slogdet: -inf for a singular
        W, NaN for a non-finite one (slogdet warns on NaN and passes inf)."""
        wt = self.weight.data.astype(np.float64)
        if not np.isfinite(wt).all():
            return np.nan
        return h * w * float(np.linalg.slogdet(wt)[1])

    def parameters(self):
        return [self.weight]


# ---------------------------------------------------------------------------
# Affine coupling
# ---------------------------------------------------------------------------


def _conv_param(c_out, c_in, k, rng, dtype, zero=False):
    if zero or rng is None:
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
    With rng None every convolution starts at zero and nothing is drawn.
    """

    def __init__(self, channels, hidden, rng, dtype=np.float32):
        if channels % 2 != 0:
            raise ValueError(f"coupling: channel count {channels} must be even")
        self.channels = channels
        half = channels // 2
        self.w1, self.b1 = _conv_param(hidden, half, 3, rng, dtype)
        self.w2, self.b2 = _conv_param(hidden, hidden, 3, rng, dtype)
        self.w3, self.b3 = _conv_param(channels, hidden, 3, rng, dtype, zero=True)

    def _halves(self, a):
        """Views of the two channel halves of an [N,C,H,W] array with the coupling's C channels."""
        if a.ndim != 4 or a.shape[1] != self.channels:
            raise ValueError(f"coupling: expected [N,{self.channels},H,W], got shape {a.shape}")
        return a[:, : self.channels // 2], a[:, self.channels // 2 :]

    def _scale(self, out):  # s = sigmoid(raw + 2), raw the first half of the net's output array
        return _sigmoid(self._halves(out)[0] + 2)

    def _net(self, xa):
        """The net's output on x_a, with s and t from its halves."""
        h = conv2d_same(xa, self.w1, self.b1, tanh=True)
        h = conv2d_same(h, self.w2, self.b2, tanh=True)
        out = conv2d_same(h, self.w3, self.b3)
        return out, self._scale(out.data), self._halves(out.data)[1]

    def forward(self, x):
        """[x_a, s*x_b + t]: one tape record over (x, net output), whose backward recomputes s."""
        xa, xb = self._halves(x.data)
        out, s, t = self._net(narrow_channels(x, 0, self.channels // 2))

        def bwd():
            ga, gb = self._halves(y.grad)
            s = self._scale(out.data)
            if x.requires_grad:
                _accum(x, np.concatenate([ga, gb * s], axis=1))
            # out (downstream of x_a) needs grad whenever this record exists
            gout = np.empty_like(out.data)  # the conv's batch-innermost layout: no copy there
            _accum(out, np.concatenate([gb * xb * s * (1 - s), gb], axis=1, out=gout))

        y = _result(np.concatenate([xa, s * xb + t], axis=1), (x, out), bwd)
        return y

    def inverse(self, y):
        ya, yb = self._halves(y)
        with no_grad():
            _, s, t = self._net(Tensor(ya))
        return np.concatenate([ya, (yb - t) / s], axis=1)

    def log_det(self, x):
        """Per-sample sum of log s over the transformed half; shape [N]."""
        with no_grad():
            _, s, _ = self._net(Tensor(self._halves(x)[0]))
        # a row-major copy sums in one order, whatever the conv's layout
        return np.log(s.astype(np.float64, order="C")).sum(axis=(1, 2, 3))

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
