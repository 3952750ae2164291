"""Dense NCHW tensors with tape-based reverse-mode automatic differentiation.

Deliberately small: float32/float64 only, explicit shapes, and no implicit
broadcast: add/sub/mul take two tensors of one shape, and mul also a tensor
and a number (the three flow layers, ActNorm, the 1x1 convolution and
the coupling, are records of their own, in layers.py).  Memory layout is
not fixed: most ops return row-major arrays, but ``conv2d_same`` returns
its result and its input gradient as views of the batch-innermost
[C,H,W,N] buffer its GEMM wrote, ``narrow_channels`` returns a view of its
input, and every op accepts any layout.  ``backward``
frees the tape record by record; there are no higher-order derivatives.
A graph and the tensors it connects belong to a single thread; tensors with
``requires_grad=False`` may be shared read-only.  Threads may share a
parameter's numpy array if each gives it its own leaf Tensor, so that each
accumulates its own ``.grad``: training runs its batch shards this way, on
model replicas (``IraeModel.replica``).
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "add",
    "sub",
    "mul",
    "sigmoid",
    "tanh",
    "exp",
    "log",
    "absolute",
    "sum_all",
    "mean_all",
    "channel_mean",
    "channel_std",
    "conv2d_same",
    "reshape",
    "narrow_channels",
    "concat_channels",
    "backward",
    "finite_diff_grad",
]

_FLOAT_DTYPES = (np.float32, np.float64)
_BLOCK_BYTES, _BLOCK_MACS = 2**19, 2**20  # see _correlate


class _GradMode(threading.local):
    enabled = True  # per thread: every thread starts in grad mode

    def __bool__(self):
        return self.enabled


_grad_enabled = _GradMode()


@contextmanager
def no_grad():
    """Suspend graph recording on the calling thread only (inference paths)."""
    prev, _grad_enabled.enabled = _grad_enabled.enabled, False
    try:
        yield
    finally:
        _grad_enabled.enabled = prev


class Tensor:
    """Dense real tensor; records a backward rule while grad mode is on.

    ``grad`` is a numpy array of the same shape, left on leaves by
    ``backward`` and accumulated across multiple uses of the tensor in one
    graph; a non-leaf's grad is dropped once its backward rule has run.
    ``drop`` frees a recorded result's array; its first reader rebuilds it bitwise by its
    forward's expression.  ``shape``, ``ndim``, ``size``, ``dtype`` and ``repr`` rebuild nothing.
    """

    __slots__ = ("_data", "requires_grad", "grad", "_backward", "_parents", "_rebuild")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype.type not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self._data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._backward = None
        self._parents = ()  # None once backward has consumed the record
        self._rebuild = None

    @property
    def data(self):  # a dropped array's first reader rebuilds it, recording nothing
        if self._data is None:
            with no_grad():
                self._data = self._rebuild[0]()
        return self._data

    @data.setter
    def data(self, value):
        self._data = value

    def drop(self):  # frees a recorded result's array; without a record, does nothing
        if self._rebuild is not None:
            self._data = None

    @property
    def shape(self):
        return self._rebuild[1] if self._data is None else self._data.shape

    @property
    def ndim(self):
        return len(self.shape)

    @property
    def size(self):
        return math.prod(self.shape)

    @property
    def dtype(self):
        return self._rebuild[2] if self._data is None else self._data.dtype

    def item(self):
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        if self._data is None:
            return f"Tensor(data dropped{flag})"
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}{flag})"

    def __array__(self, dtype=None, copy=None):
        # without this, numpy wraps a Tensor in a 0-d object array
        raise TypeError("a Tensor is not a numpy array; use its .data")


def _result(data, parents, backward_fn, rebuild=None):
    """Wrap an op result, attaching the tape record, and rebuild, when grad is needed.

    backward_fn takes no arguments; it reads the grad of the returned tensor.
    rebuild recomputes data from the parents' ``.data`` (see ``Tensor.drop``); the record
    keeps it with data's shape and dtype.
    """
    out = Tensor.__new__(Tensor)
    out._data = data
    out.grad = None
    live = [p for p in parents if p.requires_grad]
    if _grad_enabled.enabled and live:
        for p in live:
            if p._parents is None:
                raise RuntimeError("building on a graph already consumed by backward()")
        out.requires_grad = True
        out._parents = tuple(live)
        out._backward = backward_fn
        out._rebuild = (rebuild, data.shape, data.dtype) if rebuild else None
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
        out._rebuild = None
    return out


def _accum(t, g):
    t.grad = g if t.grad is None else t.grad + g


def _check_dtypes(a, b, name):
    if a.dtype != b.dtype:
        raise ValueError(f"{name}: mixed dtypes {a.dtype} vs {b.dtype}")


def _chan(v):
    return v.reshape(1, -1, 1, 1)


def _binary(name, a, b, fn, grad_a, grad_b):
    """add/sub/mul of two tensors of one shape and dtype; grad_a(g, av, bv)
    and grad_b(g, av, bv) give each operand's gradient from the output's, g."""
    _check_dtypes(a, b, name)
    if a.shape != b.shape:
        raise ValueError(f"{name}: incompatible shapes {a.shape} and {b.shape}")
    av, bv = a.data, b.data

    def bwd():
        g = out.grad
        if a.requires_grad:
            _accum(a, grad_a(g, av, bv))
        if b.requires_grad:
            _accum(b, grad_b(g, av, bv))

    out = _result(fn(av, bv), (a, b), bwd)
    return out


def _pass_grad(g, av, bv):
    return g


def add(a, b):
    return _binary("add", a, b, np.add, _pass_grad, _pass_grad)


def sub(a, b):
    return _binary("sub", a, b, np.subtract, _pass_grad, lambda g, av, bv: -g)


def mul(a, b):
    if not isinstance(b, Tensor):
        c = float(b)
        return _scalar_op(a, lambda d: d * a.dtype.type(c), lambda g, d, y: g * a.dtype.type(c))
    return _binary("mul", a, b, np.multiply, lambda g, av, bv: g * bv, lambda g, av, bv: g * av)


def _scalar_op(a, fwd, grad_rule):
    """Unary op with constant parameters folded into the closures."""

    def bwd():
        _accum(a, grad_rule(out.grad, a.data, out.data))

    out = _result(fwd(a.data), (a,), bwd)
    return out


def _sigmoid(d):
    # e = exp(-|d|) lies in (0, 1], so nothing overflows; 1/(1+e) is the
    # value for d >= 0 and e/(1+e) the value for d < 0
    e = np.exp(-np.abs(d))
    r = 1 / (1 + e)
    return np.where(d >= 0, r, e * r)


def sigmoid(x):
    return _scalar_op(x, _sigmoid, lambda g, d, y: g * y * (1 - y))


def tanh(x):
    return _scalar_op(x, np.tanh, lambda g, d, y: g * (1 - y * y))


def exp(x):
    return _scalar_op(x, np.exp, lambda g, d, y: g * y)


def log(x):
    if np.any(x.data <= 0):
        raise ValueError("log: input has non-positive entries")
    return _scalar_op(x, np.log, lambda g, d, y: g / d)


def absolute(x):
    # subgradient 0 at exact zeros, via sign()
    return _scalar_op(x, np.abs, lambda g, d, y: g * np.sign(d))


def _check_nonempty(x, name):
    if x.size == 0:
        raise ValueError(f"{name}: empty tensor")


def sum_all(x):
    _check_nonempty(x, "sum")

    def bwd():
        _accum(x, np.broadcast_to(out.grad, x.shape).astype(x.dtype, copy=False))

    out = _result(x.data.sum(), (x,), bwd)
    return out


def mean_all(x):
    _check_nonempty(x, "mean")
    n = x.dtype.type(x.size)

    def bwd():
        _accum(x, np.broadcast_to(out.grad / n, x.shape).astype(x.dtype, copy=False))

    out = _result(x.data.mean(), (x,), bwd)
    return out


def _check_nchw(x, name):
    if x.ndim != 4:
        raise ValueError(f"{name}: expected [N,C,H,W], got shape {x.shape}")


def channel_mean(x):
    """Per-channel mean over batch and spatial axes: [N,C,H,W] -> [C]."""
    _check_nonempty(x, "channel_mean")
    _check_nchw(x, "channel_mean")
    n = x.dtype.type(x.shape[0] * x.shape[2] * x.shape[3])

    def bwd():
        _accum(x, np.broadcast_to(_chan(out.grad / n), x.shape).astype(x.dtype, copy=False))

    out = _result(x.data.mean(axis=(0, 2, 3)), (x,), bwd)
    return out


def channel_std(x):
    """Per-channel population standard deviation: [N,C,H,W] -> [C].

    Needs more than one element per channel; the gradient is the usual
    (x - mean) / (n * std) and is undefined for a constant channel.
    """
    _check_nonempty(x, "channel_std")
    _check_nchw(x, "channel_std")
    n_elem = x.shape[0] * x.shape[2] * x.shape[3]
    if n_elem < 2:
        raise ValueError("channel_std: needs more than one element per channel")
    mean = x.data.mean(axis=(0, 2, 3))
    std = x.data.std(axis=(0, 2, 3))  # population convention (divide by n)

    def bwd():
        n = x.dtype.type(n_elem)
        _accum(x, _chan(out.grad) * (x.data - _chan(mean)) / (n * _chan(std)))

    out = _result(std, (x,), bwd)
    return out


def _pad_chwn(a, pad):
    """[N,C,H,W] -> zero-padded [C,H+2p,W+2p,N], batch innermost, C-contiguous.

    Conv results and input gradients are already batch-innermost views
    (``a.transpose(1, 2, 3, 0)`` is C-contiguous): with ``pad == 0`` that view
    is returned as is, and otherwise it fills the padded interior in one copy.
    numpy runs a copy's inner loop along the destination's contiguous axis,
    N here, so an NCHW-contiguous input with 2*N < W is copied image by
    image, each copy running along W; from N = W/2 up one copy is faster.
    """
    n, c, h, wd = a.shape
    chwn = a.transpose(1, 2, 3, 0)
    batch_innermost = chwn.flags.c_contiguous
    if pad == 0 and batch_innermost:
        return chwn
    ap = np.zeros((c, h + 2 * pad, wd + 2 * pad, n), dtype=a.dtype)
    inner = ap[:, pad : pad + h, pad : pad + wd]
    if 2 * n < wd and not batch_innermost:
        for i in range(n):
            inner[..., i] = a[i]
    else:
        inner[...] = chwn
    return ap


def _im2col(ap, k):
    """C-contiguous padded [C,Hp,Wp,N] -> window view [C,k,k,H,W*N], no copy.

    Reshaped to [C*k*k, H*W*N], a copy, it is the window matrix: rows in
    (c, dy, dx) order, columns in (h, w, n) order.  Its strides come from
    the shape, not from ``ap.strides``: a C-contiguous view may carry any
    stride on a length-1 axis.  It is a plain ``np.ndarray``:
    sliding_window_view's ``__array_interface__`` dict churns CPython's
    interned-string table, whose 0.9 MiB rebuilds then land at random in a
    training step's memory peak.
    """
    c, hp, wp, n = ap.shape
    h, wd = hp - k + 1, wp - k + 1
    s_w = n * ap.itemsize
    s_h = wp * s_w
    strides = (hp * s_h, s_h, s_w, s_h, ap.itemsize)
    return np.ndarray((c, k, k, h, wd * n), ap.dtype, ap, 0, strides)


class _Scratch(threading.local):
    """Per thread: the buffer conv2d_same copies window blocks and tap planes into,
    kept between no-grad calls.  Freed after each call, blocks of a few hundred KiB
    keep glibc's heap-trim threshold low, and inference faults the heap top in again
    at every flow step.  Grad mode takes a new one per call: kept, it adds to the tape's peak."""

    buf = np.empty(0, np.uint8)

    def take(self, size, dtype):
        if _grad_enabled:
            self.buf = _Scratch.buf
            return np.empty(size, dtype)
        nbytes = size * np.dtype(dtype).itemsize
        if self.buf.nbytes < nbytes:
            self.buf = None  # freed before its successor is allocated
            self.buf = np.empty(nbytes, np.uint8)
        return self.buf[:nbytes].view(dtype)


_scratch = _Scratch()


def _window_gemms(ap, k, left=None, right=None):
    """left @ W and W @ right.T, W being padded [C,Hp,Wp,N]'s window matrix (``_im2col``),
    copied a block of columns at a time into the thread's ``_Scratch`` (MEC, Cho & Brand
    2017).  Blocks of output rows, with counts that differ by at most one, hold about
    _BLOCK_BYTES, but each GEMM does _BLOCK_MACS multiply-adds or more: OpenBLAS then gives
    each float32 element of left @ W one whole GEMM's bits (float64: within ulps).
    W @ right.T adds its blocks' GEMMs in block order.  A None operand gives None."""
    win = _im2col(ap, k)
    c, _, _, h, wn = win.shape
    row, m = c * k * k * wn, len(left if left is not None else right)  # row: its window elements
    blocks = max(1, min(-(-h // max(1, _BLOCK_BYTES // (row * ap.itemsize))),
                        h // -(-_BLOCK_MACS // (m * row))))
    flat = _scratch.take(row * -(-h // blocks), ap.dtype)  # room for the largest block
    lw, wr = None if left is None else np.empty((m, h * wn), dtype=ap.dtype), None
    for i in range(blocks):
        r0, r1 = i * h // blocks, (i + 1) * h // blocks
        cols = flat[: row * (r1 - r0)].reshape(c * k * k, -1)
        cols.reshape(win[:, :, :, r0:r1].shape)[...] = win[:, :, :, r0:r1]
        if left is not None:
            np.matmul(left, cols, out=lw[:, r0 * wn : r1 * wn])
        if right is not None:
            part = np.matmul(cols, right[:, r0 * wn : r1 * wn].T)
            wr = np.add(wr, part, out=wr) if i else part
    return lw, wr


def _correlate(ap, wt):
    """Padded [Ci,Hp,Wp,N] correlated with wt [Co,Ci,k,k] -> [Co,H,W,N].

    GEMMs with pixels and batch in their columns over the narrower side's window
    copy, one block of it at a time: ``_window_gemms`` when Ci <= Co, else one kernel
    row's k*Co tap planes in the thread's ``_Scratch`` and their k shifted adds over
    W*N runs (one GEMM per kernel row when that does _BLOCK_MACS multiply-adds).
    """
    c_out, c_in, k, _ = wt.shape
    _, hp, wp, n = ap.shape
    h, wd = hp - k + 1, wp - k + 1
    if c_in <= c_out:
        return _window_gemms(ap, k, left=wt.reshape(c_out, -1))[0].reshape(c_out, h, wd, n)
    acc = np.zeros((c_out, h, wd * n), dtype=ap.dtype)
    g = 1 if k * c_out * c_in * h * wp * n >= _BLOCK_MACS else k  # kernel rows per GEMM
    taps = _scratch.take(g * k * c_out * (h + g - 1) * wp * n, ap.dtype)
    taps = taps.reshape(g, k, c_out, h + g - 1, wp * n)
    for j, w_rows in enumerate(wt.transpose(2, 3, 0, 1).reshape(k // g, -1, c_in)):
        rows = ap[:, j * g : j * g + h + g - 1].reshape(c_in, -1)  # a view: ap is C-contiguous
        np.matmul(w_rows, rows, out=taps.reshape(len(w_rows), -1))
        for dy, dx in np.ndindex(g, k):
            acc += taps[dy, dx, :, dy : dy + h, dx * n : (dx + wd) * n]
    return acc.reshape(c_out, h, wd, n)


def conv2d_same(x, w, b=None, tanh=False):
    """2-D cross-correlation with zero 'same' padding, stride 1, odd kernel.

    x: [N,Cin,H,W], w: [Cout,Cin,k,k], optional b: [Cout].  Output spatial
    size equals the input's.  With ``tanh`` the result is tanh(conv) in one
    tape record, bitwise equal to ``tanh(conv2d_same(...))`` but with no
    pre-tanh output on the tape.  Each pass runs GEMMs over a batch-innermost
    layout: operands are padded into [C, H+2p, W+2p, N] buffers (see
    ``_pad_chwn``), so each window copy runs over W*N contiguous elements,
    and GEMM columns are pixels in (h, w, n) order.  Both passes hold one
    block of their window copy at a time (``_correlate``, ``_window_gemms``):
    the weight gradient adds one GEMM per block of the narrower side's window
    (x's when Cin < Cout, else the output gradient's, whose blocks also feed
    the input gradient).  The result and the input gradient stay in the
    [C, H, W, N] memory the GEMMs wrote, as [N, C, H, W]-shaped views, so a
    conv that feeds another conv costs no layout copy in either pass.  The
    input gradient correlates the output gradient with the kernel flipped in
    space and its channel axes swapped.  Each forward output and input
    gradient element is the same dot product, in the same order, as with the
    batch outermost, so both are bitwise what a [C, N*H*W] layout gives; the
    weight and bias gradients sum their pixels in (h, w, n) order (the weight's
    in blocks), whatever the incoming gradient's layout.  No padded x is taped:
    the rule reads ``x.data`` and its result's ``.data`` when it runs, so either may be
    dropped after the forward: the result's rebuild is this call again, the same bits.
    """
    _check_nchw(x, "conv2d_same")
    if w.ndim != 4 or w.shape[2] != w.shape[3]:
        raise ValueError(f"conv2d_same: weight must be [Cout,Cin,k,k], got {w.shape}")
    k = w.shape[2]
    if k % 2 != 1:
        raise ValueError(f"conv2d_same: kernel size {k} is not odd")
    if w.shape[1] != x.shape[1]:
        raise ValueError(
            f"conv2d_same: input has {x.shape[1]} channels, weight expects {w.shape[1]}"
        )
    _check_dtypes(x, w, "conv2d_same")
    if b is not None:
        _check_dtypes(x, b, "conv2d_same")
        if b.shape != (w.shape[0],):
            raise ValueError(f"conv2d_same: bias shape {b.shape} != ({w.shape[0]},)")

    n, c_in, h, wd = x.shape
    c_out = w.shape[0]
    pad = (k - 1) // 2
    acc = _correlate(_pad_chwn(x.data, pad), w.data)
    if b is not None:
        acc += b.data[:, None, None, None]
    data = acc.transpose(3, 0, 1, 2)
    if tanh:
        np.tanh(data, out=data)

    parents = (x, w) if b is None else (x, w, b)

    def bwd():
        g = out.grad * (1 - out.data * out.data) if tanh else out.grad
        go = _pad_chwn(g, 0).reshape(c_out, -1)  # a view when g comes from a conv
        if b is not None and b.requires_grad:
            _accum(b, go.sum(axis=1))
        flipped = w.data.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
        gw = None
        if c_in < c_out:  # gx on _correlate's taps side, gw from x's window
            if x.requires_grad:
                gx = _correlate(_pad_chwn(g, pad), flipped)
            if w.requires_grad:
                gw = _window_gemms(_pad_chwn(x.data, pad), k, right=go)[1].T.reshape(w.shape)
        elif x.requires_grad or w.requires_grad:  # both from g's window, the narrower or equal one
            gp, g, go, out.grad = _pad_chwn(g, pad), None, None, None  # g goes once padded
            xmat = _pad_chwn(x.data, 0).reshape(c_in, -1) if w.requires_grad else None
            gx, gw = _window_gemms(gp, k, flipped.reshape(c_in, -1) if x.requires_grad else None, xmat)
            if gw is not None:  # rows in (c_out, dy, dx) order of the flipped kernel
                gw = gw.reshape(c_out, k, k, c_in)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
        if x.requires_grad:
            _accum(x, gx.reshape(c_in, h, wd, n).transpose(3, 0, 1, 2))
        if gw is not None:
            _accum(w, np.ascontiguousarray(gw))

    out = _result(data, parents, bwd, lambda: conv2d_same(x, w, b, tanh).data)
    return out


def reshape(x, shape):
    shape = tuple(int(s) for s in shape)
    data = x.data.reshape(shape)

    def bwd():
        _accum(x, out.grad.reshape(x.shape))

    out = _result(data, (x,), bwd)
    return out


def narrow_channels(x, start, stop):
    """Channel slice [:, start:stop] of an [N,C,H,W] tensor, as a view of x."""
    _check_nchw(x, "narrow_channels")
    if not (0 <= start < stop <= x.shape[1]):
        raise ValueError(f"narrow_channels: bad range [{start}:{stop}] for C={x.shape[1]}")

    def bwd():
        g = np.zeros_like(x.data)  # keeps x's layout, say a conv's [C,H,W,N]
        g[:, start:stop] = out.grad
        _accum(x, g)

    out = _result(x.data[:, start:stop], (x,), bwd, lambda: x.data[:, start:stop])
    return out


def concat_channels(a, b):
    """Concatenate two [N,C,H,W] tensors along the channel axis."""
    _check_nchw(a, "concat_channels")
    _check_nchw(b, "concat_channels")
    _check_dtypes(a, b, "concat_channels")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ValueError(f"concat_channels: incompatible shapes {a.shape} and {b.shape}")
    ca = a.shape[1]

    def bwd():
        g = out.grad
        if a.requires_grad:
            _accum(a, g[:, :ca].copy())
        if b.requires_grad:
            _accum(b, g[:, ca:].copy())

    out = _result(np.concatenate([a.data, b.data], axis=1), (a, b), bwd)
    return out


def backward(loss):
    """Populate grads of every reachable leaf tensor from a scalar.

    Runs each tape record once in reverse topological order and frees it,
    with its ``.grad``, as soon as its rule has run: an activation lives only
    until its last consumer's rule is done.  A rule runs before those of the
    records it depends on, so a dropped array it reads rebuilds from inputs still
    there.  Leaves (parameters, say) keep their grads; a second backward on a graph raises.
    """
    if loss.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    if loss._parents is None:
        raise RuntimeError("backward: graph already consumed")
    if not loss.requires_grad:
        raise RuntimeError("backward: loss does not require grad")

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))

    loss.grad = np.ones(loss.shape, dtype=loss.dtype)
    while topo:
        node = topo.pop()
        if node._backward is not None:
            node._backward()
            node._backward = None
            node._parents = None
            node.grad = None


def finite_diff_grad(f, x, h=1e-5):
    """Central-difference gradient of a scalar-valued f at leaf tensor x.

    The independent oracle for every backward rule in this module; runs f
    with the tape suspended, perturbing one coordinate of ``x.data`` in place
    at a time, whatever its memory layout.
    """
    if h <= 0:
        raise ValueError("finite_diff_grad: h must be positive")
    data = x.data
    grad = np.empty(data.shape, dtype=np.float64)
    with no_grad():
        for i in np.ndindex(data.shape):
            orig = data[i]
            data[i] = orig + h
            fp = f(x).item()
            data[i] = orig - h
            fm = f(x).item()
            data[i] = orig
            grad[i] = (fp - fm) / (2 * h)
    return grad.astype(x.dtype, copy=False)
