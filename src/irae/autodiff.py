"""Dense NCHW tensors with tape-based reverse-mode automatic differentiation.

Deliberately small: float32/float64 only, row-major layout, explicit shapes,
and exactly one implicit broadcast: a per-channel vector [C] as the right
operand of add/sub/mul, against a batch [N,C,H,W] on the left.  ``backward``
frees the tape record by record; there are no higher-order derivatives.
A graph and the tensors it connects belong to a single thread; tensors with
``requires_grad=False`` may be shared read-only.  Threads may share a
parameter's numpy array if each gives it its own leaf Tensor, so that each
accumulates its own ``.grad``: training runs its batch shards this way, on
model replicas (``IraeModel.replica``).  Grad mode is one process-wide flag,
so while shards record, no thread may enter ``no_grad``.
"""

from __future__ import annotations

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
    "channel_mix",
    "reshape",
    "narrow_channels",
    "concat_channels",
    "backward",
    "finite_diff_grad",
]

_FLOAT_DTYPES = (np.float32, np.float64)

_grad_enabled = True


class no_grad:
    """Context manager that suspends graph recording (inference paths).

    Grad mode is one process-wide flag: entering this on any thread stops
    recording on all threads until it exits.
    """

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """Dense real tensor; records a backward rule while grad mode is on.

    ``grad`` is a numpy array of the same shape, left on leaves by
    ``backward`` and accumulated across multiple uses of the tensor in one
    graph; a non-leaf's grad is dropped once its backward rule has run.
    """

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents", "_spent")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype.type not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._backward = None
        self._parents = ()
        self._spent = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}{flag})"


def _result(data, parents, backward_fn):
    """Wrap an op result, attaching the tape record when grad is needed.

    backward_fn takes no arguments; it reads the grad of the returned tensor.
    """
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._spent = False
    live = [p for p in parents if p.requires_grad]
    if _grad_enabled and live:
        for p in live:
            if p._spent:
                raise RuntimeError("building on a graph already consumed by backward()")
        out.requires_grad = True
        out._parents = tuple(live)
        out._backward = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _accum(t, g):
    t.grad = g if t.grad is None else t.grad + g


def _check_dtypes(a, b, name):
    if a.dtype != b.dtype:
        raise ValueError(f"{name}: mixed dtypes {a.dtype} vs {b.dtype}")


def _right_is_channel(a, b, name):
    """False when a and b share a shape, True when b is [C] against a [N,C,H,W]."""
    if a.shape == b.shape:
        return False
    if b.ndim == 1 and a.ndim == 4 and b.shape[0] == a.shape[1]:
        return True
    raise ValueError(f"{name}: incompatible shapes {a.shape} and {b.shape}")


def _chan(v):
    return v.reshape(1, -1, 1, 1)


def _binary(name, a, b, fn, grad_a, grad_b):
    """Shared body of add/sub/mul.

    A [C] right operand is broadcast for fn and its gradient folded back to
    [C]; grad_a(g, av, bv) and grad_b(g, av, bv) give each operand's unfolded
    gradient from the output gradient g and the broadcast operands.
    """
    _check_dtypes(a, b, name)
    channel = _right_is_channel(a, b, name)
    av = a.data
    bv = _chan(b.data) if channel else b.data

    def bwd():
        g = out.grad
        if a.requires_grad:
            _accum(a, grad_a(g, av, bv))
        if b.requires_grad:
            gb = grad_b(g, av, bv)
            _accum(b, gb.sum(axis=(0, 2, 3)) if channel else gb)

    out = _result(fn(av, bv), (a, b), bwd)
    return out


def _pass_grad(g, av, bv):
    return g


def add(a, b):
    if not isinstance(b, Tensor):
        c = float(b)
        return _scalar_op(a, lambda d: d + a.dtype.type(c), lambda g, d, y: g)
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


def channel_mix(w, x):
    """Per-pixel channel mix y[n,:,i,j] = w @ x[n,:,i,j]: w [Co,Ci], x [N,Ci,H,W].

    One matmul over the [N, Ci, H*W] view of x, with no padding or copy of
    x; the weight gradient is one GEMM over the batch and pixels.
    """
    _check_nchw(x, "channel_mix")
    if w.ndim != 2 or w.shape[1] != x.shape[1]:
        raise ValueError(f"channel_mix: weight {w.shape} does not fit input {x.shape}")
    _check_dtypes(x, w, "channel_mix")
    n, c_in, h, wd = x.shape
    xf = x.data.reshape(n, c_in, h * wd)

    def bwd():
        g = out.grad.reshape(n, -1, h * wd)
        if x.requires_grad:
            _accum(x, np.matmul(w.data.T, g).reshape(x.shape))
        if w.requires_grad:
            _accum(w, np.tensordot(g, xf, axes=((0, 2), (0, 2))))

    out = _result(np.matmul(w.data, xf).reshape(n, -1, h, wd), (x, w), bwd)
    return out


def _pad_cn(a, pad):
    """[N,C,H,W] -> zero-padded copy laid out [C,N,H+2p,W+2p]."""
    n, c, h, wd = a.shape
    ap = np.zeros((c, n, h + 2 * pad, wd + 2 * pad), dtype=a.dtype)
    ap[:, :, pad : pad + h, pad : pad + wd] = a.transpose(1, 0, 2, 3)
    return ap


def _im2col(ap, k):
    """Padded [C,N,Hp,Wp] -> window matrix [C*k*k, N*H*W], in one copy.

    A plain strided view: sliding_window_view's ``__array_interface__``
    dict churns CPython's interned-string table, whose 0.9 MiB rebuilds
    then land at random in a training step's memory peak.
    """
    c, n, hp, wp = ap.shape
    shape = (c, n, hp - k + 1, wp - k + 1, k, k)
    win = np.ndarray(shape, ap.dtype, ap, 0, ap.strides + ap.strides[2:])
    return win.transpose(0, 4, 5, 1, 2, 3).reshape(c * k * k, -1)


def _correlate(ap, wt):
    """Padded [Ci,N,Hp,Wp] correlated with wt [Co,Ci,k,k] -> [Co,N,H,W].

    One GEMM with the batch in its columns.  The k*k window copy is made on
    the narrower side: im2col of the input when Ci <= Co, otherwise k*k
    shifted adds of the Co-plane products of each tap with the input.
    """
    c_out, c_in, k, _ = wt.shape
    _, n, hp, wp = ap.shape
    h, wd = hp - k + 1, wp - k + 1
    if c_in <= c_out:
        return (wt.reshape(c_out, -1) @ _im2col(ap, k)).reshape(c_out, n, h, wd)
    taps = wt.transpose(2, 3, 0, 1).reshape(k * k * c_out, c_in) @ ap.reshape(c_in, -1)
    taps = taps.reshape(k, k, c_out, n, hp, wp)
    acc = np.zeros((c_out, n, h, wd), dtype=taps.dtype)
    for dy, dx in np.ndindex(k, k):
        acc += taps[dy, dx, :, :, dy : dy + h, dx : dx + wd]
    return acc


def conv2d_same(x, w, b=None, tanh=False):
    """2-D cross-correlation with zero 'same' padding, stride 1, odd kernel.

    x: [N,Cin,H,W], w: [Cout,Cin,k,k], optional b: [Cout].  Output spatial
    size equals the input's.  With ``tanh`` the result is tanh(conv) in one
    tape record, bitwise equal to ``tanh(conv2d_same(...))`` but with no
    pre-tanh output on the tape.  Forward, input gradient and weight gradient
    are one GEMM each over a [C, N*H*W] layout (see ``_correlate``); the
    input gradient correlates the output gradient with the kernel flipped
    in space and its channel axes swapped, and the weight gradient reuses
    the narrower side's im2col (x's when Cin <= Cout, else the output
    gradient's).  The tape keeps no padded copy of x.
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
    acc = _correlate(_pad_cn(x.data, pad), w.data)
    if b is not None:
        acc += b.data[:, None, None, None]
    data = np.ascontiguousarray(acc.transpose(1, 0, 2, 3))
    if tanh:
        np.tanh(data, out=data)

    parents = (x, w) if b is None else (x, w, b)

    def bwd():
        g = out.grad * (1 - data * data) if tanh else out.grad
        flipped = w.data.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
        if c_in <= c_out:
            if x.requires_grad:
                gx = _correlate(_pad_cn(g, pad), flipped)
            if w.requires_grad:
                go = g.transpose(1, 0, 2, 3).reshape(c_out, -1)
                gw = (_im2col(_pad_cn(x.data, pad), k) @ go.T).T.reshape(w.shape)
        else:  # the narrow im2col is g's, and both gradients use it
            cols = _im2col(_pad_cn(g, pad), k)
            if x.requires_grad:
                gx = (flipped.reshape(c_in, -1) @ cols).reshape(c_in, n, h, wd)
            if w.requires_grad:
                gw = cols @ x.data.transpose(1, 0, 2, 3).reshape(c_in, -1).T
                gw = gw.reshape(c_out, k, k, c_in)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
        if x.requires_grad:
            _accum(x, np.ascontiguousarray(gx.transpose(1, 0, 2, 3)))
        if w.requires_grad:
            _accum(w, np.ascontiguousarray(gw))
        if b is not None and b.requires_grad:
            _accum(b, g.sum(axis=(0, 2, 3)))

    out = _result(data, parents, bwd)
    return out


def reshape(x, shape):
    shape = tuple(int(s) for s in shape)
    data = x.data.reshape(shape)

    def bwd():
        _accum(x, out.grad.reshape(x.shape))

    out = _result(data, (x,), bwd)
    return out


def narrow_channels(x, start, stop):
    """Contiguous channel slice [:, start:stop] of an [N,C,H,W] tensor."""
    _check_nchw(x, "narrow_channels")
    if not (0 <= start < stop <= x.shape[1]):
        raise ValueError(f"narrow_channels: bad range [{start}:{stop}] for C={x.shape[1]}")

    def bwd():
        g = np.zeros(x.shape, dtype=x.dtype)
        g[:, start:stop] = out.grad
        _accum(x, g)

    out = _result(np.ascontiguousarray(x.data[:, start:stop]), (x,), bwd)
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
    with its ``.grad``, as soon as its rule has run: an activation lives
    only until its last consumer's rule is done.  Leaves (tensors with no
    backward rule, such as parameters) keep their grads.  A second backward
    through the same graph raises.
    """
    if loss.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    if loss._spent:
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
            node._parents = ()
            node._spent = True
            node.grad = None


def finite_diff_grad(f, x, h=1e-5):
    """Central-difference gradient of a scalar-valued f at leaf tensor x.

    The independent oracle for every backward rule in this module; runs f
    with the tape suspended, perturbing one coordinate at a time.
    """
    if h <= 0:
        raise ValueError("finite_diff_grad: h must be positive")
    flat = x.data.reshape(-1)
    grad = np.empty(flat.shape, dtype=np.float64)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f(x).item()
            flat[i] = orig - h
            fm = f(x).item()
            flat[i] = orig
            grad[i] = (fp - fm) / (2 * h)
    return grad.reshape(x.shape).astype(x.dtype, copy=False)
