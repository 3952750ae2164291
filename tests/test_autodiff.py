"""Tensor and reverse-mode autodiff checks against independent oracles.

The two oracles everything else leans on: a hand-rolled nested-loop
convolution, and central finite differences for every backward rule.
"""

import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irae.autodiff import (
    Tensor,
    absolute,
    add,
    backward,
    channel_mean,
    channel_std,
    concat_channels,
    conv2d_same,
    exp,
    finite_diff_grad,
    log,
    mean_all,
    mul,
    narrow_channels,
    no_grad,
    reshape,
    sigmoid,
    sub,
    sum_all,
    tanh,
)
from irae.autodiff import _BLOCK_BYTES, _correlate, _grad_enabled
from irae.layers import ActNorm, InvertibleConv1x1, squeeze, unsqueeze
from memtools import peak_of

FD_STEP = 1e-5
FD_RTOL = 1e-4


def conv2d_loops(x, w, b):
    """Brute-force direct convolution oracle: plain nested loops."""
    n, c_in, h, wd = x.shape
    c_out, _, k, _ = w.shape
    pad = (k - 1) // 2
    out = np.zeros((n, c_out, h, wd))
    for ni in range(n):
        for co in range(c_out):
            for i in range(h):
                for j in range(wd):
                    acc = b[co]
                    for ci in range(c_in):
                        for dy in range(k):
                            for dx in range(k):
                                ii, jj = i + dy - pad, j + dx - pad
                                if 0 <= ii < h and 0 <= jj < wd:
                                    acc += w[co, ci, dy, dx] * x[ni, ci, ii, jj]
                    out[ni, co, i, j] = acc
    return out


def assert_grad_matches_fd(f, leaf, rtol=FD_RTOL):
    leaf.grad = None
    out = f(leaf)
    backward(out)
    fd = finite_diff_grad(f, leaf, FD_STEP)
    rel = np.abs(leaf.grad - fd) / (np.abs(fd) + 1e-8)
    assert rel.max() < rtol, f"AD/FD mismatch: worst relative error {rel.max():.3e}"


class TestElementwise:
    def test_add(self):
        out = add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        assert np.array_equal(out.data, [4.0, 6.0])

    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor([0.0])).data[0] == 0.5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_within_4_ulp(self, dtype):
        x = np.linspace(-110.0, 110.0, 400_001).astype(dtype)
        got = sigmoid(Tensor(x)).data
        assert got.dtype == dtype
        wide = x.astype(np.longdouble)  # float64 or wider
        ref = 1 / (1 + np.exp(-wide))
        ulps = np.abs(got - ref) / np.spacing(ref.astype(dtype))
        assert ulps.max() <= 4.0, f"worst {ulps.max():.2f} ULP at x={x[np.argmax(ulps)]}"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_positive_to_minus_103_and_silent_at_extremes(self, dtype):
        assert np.all(sigmoid(Tensor(np.arange(-103.0, 1.0).astype(dtype))).data > 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="warn", divide="warn", invalid="warn"):
                got = sigmoid(Tensor(np.array([-1e4, 1e4], dtype=dtype))).data
        assert np.array_equal(got, [0.0, 1.0])

    def test_sub_and_abs(self):
        out = absolute(sub(Tensor([1.0, -4.0]), Tensor([3.0, -1.0])))
        assert np.array_equal(out.data, [2.0, 3.0])

    def test_scalar_operand(self):
        # only mul takes a number; add and sub take two tensors
        out = add(mul(Tensor([2.0, 3.0]), 2.0), Tensor([1.0, 1.0]))
        assert np.array_equal(out.data, [5.0, 7.0])

    def test_mul_channel_broadcast(self):
        # a per-channel [C] scale is refused; the same scale at the input's shape multiplies
        x = Tensor(np.array([3.0, 5.0]).reshape(1, 2, 1, 1))
        with pytest.raises(ValueError, match="incompatible shapes"):
            mul(x, Tensor([2.0, 10.0]))
        out = mul(x, Tensor(np.array([2.0, 10.0]).reshape(1, 2, 1, 1)))
        assert np.array_equal(out.data.ravel(), [6.0, 50.0])

    def test_shape_mismatch_rejected(self):
        # no implicit broadcast: [N,C,H,W] against a per-channel [C] is refused too
        pairs = [
            (Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0])),
            (Tensor(np.array([3.0, 5.0]).reshape(1, 2, 1, 1)), Tensor([2.0, 10.0])),
            (Tensor(np.ones((2, 3, 4, 4))), Tensor(np.ones(3))),
        ]
        for op in (add, sub, mul):
            for a, b in pairs:
                with pytest.raises(ValueError, match="incompatible shapes"):
                    op(a, b)

    def test_mixed_dtype_rejected(self):
        a = Tensor(np.ones(2, dtype=np.float32))
        b = Tensor(np.ones(2, dtype=np.float64))
        with pytest.raises(ValueError, match="mixed dtypes"):
            add(a, b)

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="non-positive"):
            log(Tensor([1.0, 0.0]))

    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = Tensor(rng.standard_normal((2, 3, 4, 4)))
            for op in (sigmoid, tanh, exp, absolute):
                assert np.all(np.isfinite(op(x).data))


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(np.arange(2 * 3 * 4 * 4, dtype=np.float64).reshape(2, 3, 4, 4))
        w = Tensor(np.eye(3).reshape(3, 3, 1, 1))
        assert np.array_equal(conv2d_same(x, w, Tensor(np.zeros(3))).data, x.data)

    def test_zero_weights_constant_bias(self):
        x = Tensor(np.random.default_rng(1).standard_normal((1, 2, 3, 3)))
        w = Tensor(np.zeros((4, 2, 3, 3)))
        b = Tensor(np.full(4, 2.5))
        out = conv2d_same(x, w, b)
        assert np.all(out.data == 2.5)

    def test_averaging_kernel_matches_loop_oracle(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        w = np.full((1, 1, 3, 3), 1.0 / 9.0)
        b = np.zeros(1)
        expected = conv2d_loops(x, w, b)
        out = conv2d_same(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-15)

    def test_random_cases_match_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.standard_normal((2, 3, 5, 4))
            w = rng.standard_normal((4, 3, 3, 3))
            b = rng.standard_normal(4)
            expected = conv2d_loops(x, w, b)
            out = conv2d_same(Tensor(x), Tensor(w), Tensor(b))
            np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-12)

    def test_linear_in_weights(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        w1 = rng.standard_normal((3, 2, 3, 3))
        w2 = rng.standard_normal((3, 2, 3, 3))
        b = Tensor(np.zeros(3))
        alpha, beta = 0.3, -1.7
        combined = conv2d_same(x, Tensor(alpha * w1 + beta * w2), b).data
        separate = (alpha * conv2d_same(x, Tensor(w1), b).data
                    + beta * conv2d_same(x, Tensor(w2), b).data)
        np.testing.assert_allclose(combined, separate, rtol=0, atol=1e-10)

    def test_channel_mismatch_rejected(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        w = Tensor(np.zeros((1, 3, 3, 3)))
        with pytest.raises(ValueError, match="channels"):
            conv2d_same(x, w, Tensor(np.zeros(1)))


class TestConv2dTanh:
    """conv2d_same(..., tanh=True) is tanh(conv2d_same(...)) in one record."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c_in, c_out", [(2, 5), (5, 2)])
    def test_forward_and_leaf_gradients_bitwise_equal_to_tanh_of_conv(self, dtype, c_in, c_out):
        rng = np.random.default_rng(41)
        arrays = [
            rng.standard_normal(shape).astype(dtype)
            for shape in [(2, c_in, 5, 4), (c_out, c_in, 3, 3), (c_out,)]
        ]
        projection = Tensor(rng.standard_normal((2, c_out, 5, 4)).astype(dtype))
        runs = []
        for fused in (False, True):
            leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            y = conv2d_same(*leaves, tanh=True) if fused else tanh(conv2d_same(*leaves))
            backward(sum_all(mul(y, projection)))
            runs.append([y.data] + [leaf.grad for leaf in leaves])
        for plain, fused in zip(*runs):
            assert fused.dtype == plain.dtype == dtype
            assert fused.shape == plain.shape
            assert fused.tobytes() == plain.tobytes()

    def test_one_tape_record(self):
        x = Tensor(np.ones((1, 1, 3, 3)), requires_grad=True)
        w = Tensor(np.ones((1, 1, 3, 3)), requires_grad=True)
        b = Tensor(np.zeros(1), requires_grad=True)
        y = conv2d_same(x, w, b, tanh=True)
        assert y._parents == (x, w, b)


@st.composite
def conv_cases(draw, relation):
    """float64 (x, w, b, r) with Cin `relation` Cout, N in 1..6, k in {1,3,5}
    and H != W in 1..5, so both of conv2d_same's copy orders (N < W and
    N >= W) are drawn; r is a random projection of the output for gradient
    checks."""
    narrow = draw(st.integers(1, 3))
    wide = narrow if relation == "==" else narrow + draw(st.integers(1, 3))
    c_in, c_out = (wide, narrow) if relation == ">" else (narrow, wide)
    n = draw(st.integers(1, 6))
    k = draw(st.sampled_from([1, 3, 5]))
    h, wd = draw(st.lists(st.integers(1, 5), min_size=2, max_size=2, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (
        rng.standard_normal((n, c_in, h, wd)),
        rng.standard_normal((c_out, c_in, k, k)),
        rng.standard_normal(c_out),
        rng.standard_normal((n, c_out, h, wd)),
    )


@pytest.mark.parametrize("relation", ["<", "==", ">"])
class TestConv2dLayouts:
    """conv2d_same lays out its GEMM by Cin against Cout; every side is
    checked against the loop oracle and finite differences."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_forward_matches_loop_oracle(self, relation, data):
        x, w, b, _ = data.draw(conv_cases(relation))
        out = conv2d_same(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, conv2d_loops(x, w, b), rtol=1e-12, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_gradients_match_finite_differences(self, relation, data):
        *arrays, r = data.draw(conv_cases(relation))
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        for i, leaf in enumerate(leaves):

            def f(t, i=i):
                operands = [t if j == i else other for j, other in enumerate(leaves)]
                return sum_all(mul(conv2d_same(*operands), Tensor(r)))

            assert_grad_matches_fd(f, leaf)


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("c_in, c_out", [(2, 3), (2, 2), (3, 2)], ids=["<", "==", ">"])
@pytest.mark.parametrize("n, wd", [(2, 5), (5, 3)], ids=["N<W", "N>=W"])
class TestConv2dCopyOrders:
    """conv2d_same pads into its batch-innermost buffer image by image when
    N < W and as one transpose otherwise; each order, on each GEMM side,
    against the loop oracle and finite differences."""

    def arrays(self, n, wd, c_in, c_out, k):
        rng = np.random.default_rng(100 * n + 10 * c_in + k)
        return [
            rng.standard_normal(shape)
            for shape in [(n, c_in, 4, wd), (c_out, c_in, k, k), (c_out,), (n, c_out, 4, wd)]
        ]

    def test_forward_matches_loop_oracle(self, n, wd, c_in, c_out, k):
        x, w, b, _ = self.arrays(n, wd, c_in, c_out, k)
        out = conv2d_same(Tensor(x), Tensor(w), Tensor(b))
        assert out.data.transpose(1, 2, 3, 0).flags.c_contiguous
        np.testing.assert_allclose(out.data, conv2d_loops(x, w, b), rtol=1e-12, atol=1e-12)

    def test_gradients_match_finite_differences(self, n, wd, c_in, c_out, k):
        *arrays, r = self.arrays(n, wd, c_in, c_out, k)
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        for i, leaf in enumerate(leaves):

            def f(t, i=i):
                operands = [t if j == i else other for j, other in enumerate(leaves)]
                return sum_all(mul(conv2d_same(*operands), Tensor(r)))

            assert_grad_matches_fd(f, leaf)


def conv_result(rng, shape):
    """A conv2d_same result of `shape`: an [N,C,H,W] view of the [C,H,W,N]
    memory its GEMM wrote."""
    n, c, h, wd = shape
    out = conv2d_same(Tensor(rng.standard_normal((n, 2, h, wd))),
                      Tensor(rng.standard_normal((c, 2, 3, 3))), Tensor(np.zeros(c))).data
    assert out.transpose(1, 2, 3, 0).flags.c_contiguous
    return out


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("c_in, c_out", [(2, 3), (3, 3), (3, 2)], ids=["<", "==", ">"])
@pytest.mark.parametrize("n", [1, 2, 6], ids=["N=1", "N<W", "N>=W"])
def test_conv2d_on_conv_results_bitwise_equal_to_row_major_copies(n, c_in, c_out, k):
    """Fed another conv's batch-innermost result as its input and as its
    incoming gradient, conv2d_same gives bitwise the forward and the x, w
    and b gradients it gives on row-major copies of them."""
    rng = np.random.default_rng(100 * n + 10 * c_in + c_out + k)
    x = conv_result(rng, (n, c_in, 4, 5))
    r = conv_result(rng, (n, c_out, 4, 5))
    w = rng.standard_normal((c_out, c_in, k, k))
    b = rng.standard_normal(c_out)
    runs = []
    for layout in (lambda a: a, np.ascontiguousarray):
        leaves = [Tensor(a, requires_grad=True) for a in (layout(x), w.copy(), b.copy())]
        y = conv2d_same(*leaves)
        backward(sum_all(mul(y, Tensor(layout(r)))))
        runs.append([y.data] + [leaf.grad for leaf in leaves])
    for view, row_major in zip(*runs):
        assert view.tobytes() == row_major.tobytes()


@pytest.mark.parametrize("n", [1, 2, 6], ids=["N=1", "N<W", "N>=W"])
def test_narrow_channels_gradient_on_a_conv_result(n):
    """The gradient of a channel slice of a conv result equals its gradient
    on a row-major copy, and keeps the conv's batch-innermost layout."""
    rng = np.random.default_rng(n)
    x = conv_result(rng, (n, 4, 4, 5))
    r = Tensor(rng.standard_normal((n, 2, 4, 5)))
    grads = []
    for data in (x, np.ascontiguousarray(x)):
        leaf = Tensor(data, requires_grad=True)
        backward(sum_all(mul(narrow_channels(leaf, 1, 3), r)))
        grads.append(leaf.grad)
    assert grads[0].tobytes() == grads[1].tobytes()
    assert grads[0].transpose(1, 2, 3, 0).flags.c_contiguous


def test_narrow_channels_is_a_view_of_its_input():
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((2, 4, 3, 3)), requires_grad=True)
    assert np.shares_memory(narrow_channels(x, 1, 3).data, x.data)
    r = Tensor(rng.standard_normal((2, 2, 3, 3)))
    assert_grad_matches_fd(lambda t: sum_all(mul(narrow_channels(t, 1, 3), r)), x)


def test_conv2d_float32_at_desk_shape_matches_float64():
    """The desk config's 32 -> 32 hidden conv on its second level: N=16,
    4x4 (the whole-batch copy order).  float32 forward against the float64
    loop oracle, and float32 gradients against float64 ones."""
    rng = np.random.default_rng(44)
    arrays = [rng.standard_normal(s) for s in [(16, 32, 4, 4), (32, 32, 3, 3), (32,)]]
    r = rng.standard_normal((16, 32, 4, 4))
    out = conv2d_same(*[Tensor(a.astype(np.float32)) for a in arrays])
    expected = conv2d_loops(*arrays)
    assert out.data.dtype == np.float32
    np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-5 * np.abs(expected).max())
    grads = {}
    for dtype in (np.float32, np.float64):
        leaves = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
        backward(sum_all(mul(conv2d_same(*leaves), Tensor(r.astype(dtype)))))
        grads[dtype] = [leaf.grad for leaf in leaves]
    for g32, g64 in zip(grads[np.float32], grads[np.float64]):
        assert g32.dtype == np.float32
        np.testing.assert_allclose(g32, g64, rtol=0, atol=1e-5 * np.abs(g64).max())



def correlate_one_gemm(ap, wt):
    """_correlate as one GEMM over its whole lowered operand: the input's
    im2col when Ci <= Co, else all k*k*Co tap planes over every padded row,
    followed by k*k shifted adds."""
    c_out, c_in, k, _ = wt.shape
    _, hp, wp, n = ap.shape
    h, wd = hp - k + 1, wp - k + 1
    if c_in <= c_out:
        win = np.lib.stride_tricks.sliding_window_view(ap, (k, k), axis=(1, 2))
        cols = win.transpose(0, 4, 5, 1, 2, 3).reshape(c_in * k * k, -1)  # (c, dy, dx) x (h, w, n)
        return (wt.reshape(c_out, -1) @ cols).reshape(c_out, h, wd, n)
    taps = wt.transpose(2, 3, 0, 1).reshape(k * k * c_out, c_in) @ ap.reshape(c_in, -1)
    taps = taps.reshape(k, k, c_out, hp, wp * n)
    acc = np.zeros((c_out, h, wd * n), dtype=ap.dtype)
    for dy, dx in np.ndindex(k, k):
        acc += taps[dy, dx, :, dy : dy + h, dx * n : (dx + wd) * n]
    return acc.reshape(c_out, h, wd, n)


class TestCorrelateBlocks:
    """_correlate splits its GEMM into blocks of output rows (im2col side)
    or kernel rows (taps side); each case names the GEMM count it must use,
    and the result must be bitwise the one-GEMM formula's.  float64 splits
    are held to a few ulps instead: OpenBLAS's float64 kernels round the
    columns of a GEMM's last partial panel, or its last rows, differently
    from the same columns inside a wider GEMM."""

    CASES = {
        # id: (padded input [Ci,Hp,Wp,N], Co, k, dtype, GEMMs)
        "one block": ((6, 18, 18, 4), 29, 3, np.float32, 1),
        "blocks, uneven": ((29, 34, 34, 2), 29, 3, np.float32, 5),  # Ci == Co
        "blocks, N=1": ((29, 66, 66, 1), 29, 3, np.float32, 10),
        "blocks, k=1": ((64, 64, 64, 2), 64, 1, np.float32, 4),
        "blocks, k=5": ((24, 20, 20, 2), 29, 5, np.float32, 3),
        "taps, per kernel row": ((29, 34, 34, 2), 12, 3, np.float32, 3),  # Ci > Co
        "taps, k=5": ((64, 36, 36, 2), 8, 5, np.float32, 5),
        "taps, k=1": ((64, 64, 64, 2), 8, 1, np.float32, 1),
        "taps, one GEMM": ((32, 10, 10, 16), 2, 3, np.float32, 1),
        "blocks, float64": ((29, 34, 34, 2), 29, 3, np.float64, 10),
        "taps, float64": ((29, 66, 66, 1), 12, 3, np.float64, 3),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_bitwise_one_gemm_result_holding_one_block(self, case, monkeypatch):
        shape, c_out, k, dtype, gemms = self.CASES[case]
        rng = np.random.default_rng(sum(shape) + c_out + k)
        ap = rng.standard_normal(shape).astype(dtype)
        wt = rng.standard_normal((c_out, shape[0], k, k)).astype(dtype)
        operands, matmul = [], np.matmul

        def spy(a, b, **kw):
            operands.append(b)
            return matmul(a, b, **kw)

        monkeypatch.setattr(np, "matmul", spy)
        got = _correlate(ap, wt)
        monkeypatch.undo()
        with no_grad():  # blocks go through the thread's kept buffer, twice
            for _ in range(2):
                assert _correlate(ap, wt).tobytes() == got.tobytes()
        want = correlate_one_gemm(ap, wt)
        assert got.shape == want.shape and got.dtype == dtype
        if dtype == np.float32:
            assert got.tobytes() == want.tobytes()
        else:
            scale = correlate_one_gemm(np.abs(ap), np.abs(wt))  # |w| . |x| per element
            assert np.all(np.abs(got - want) <= 4 * np.finfo(dtype).eps * scale)
        assert len(operands) == gemms
        if shape[0] <= c_out and gemms > 1:  # blocks of rows that differ by at most one
            rows = [b.shape[1] // (shape[2] - k + 1) // shape[3] for b in operands]
            assert sum(rows) == shape[1] - k + 1
            assert max(rows) - min(rows) == (0 if "k=1" in case else 1)
            if dtype == np.float32:  # within a row of _BLOCK_BYTES; float64 meets _BLOCK_MACS first
                assert max(b.nbytes for b in operands) * (max(rows) - 1) // max(rows) <= _BLOCK_BYTES


def conv_grads_one_gemm(x, w, g):
    """conv2d_same's input and weight gradients for output gradient g, each
    from one GEMM over a whole lowered operand: g's im2col feeds both when
    Ci >= Co; when Ci < Co the weight gradient runs over x's im2col and the
    input gradient is correlate_one_gemm's taps side."""
    c_out, c_in, k, _ = w.shape
    n, _, h, wd = x.shape
    pad = k // 2

    def padded(a):  # [N,C,H,W] -> zero-padded [C,H+2p,W+2p,N]
        return np.pad(a.transpose(1, 2, 3, 0), ((0, 0), (pad, pad), (pad, pad), (0, 0)))

    def im2col(a):  # rows in (c, dy, dx) order, columns in (h, w, n) order
        win = np.lib.stride_tricks.sliding_window_view(padded(a), (k, k), axis=(1, 2))
        return win.transpose(0, 4, 5, 1, 2, 3).reshape(a.shape[1] * k * k, -1)

    flipped = w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
    if c_in < c_out:
        gx = correlate_one_gemm(padded(g), flipped)
        gw = (im2col(x) @ g.transpose(1, 2, 3, 0).reshape(c_out, -1).T).T.reshape(w.shape)
    else:
        cols = im2col(g)
        gx = (flipped.reshape(c_in, -1) @ cols).reshape(c_in, h, wd, n)
        gw = cols @ x.transpose(1, 2, 3, 0).reshape(c_in, -1).T
        gw = gw.reshape(c_out, k, k, c_in)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
    return gx.transpose(3, 0, 1, 2), gw


class TestConvBackwardBlocks:
    """conv2d_same's backward copies the narrower side's window one block of
    output rows at a time, as _correlate's forward does: g's window feeds
    both gradients when Ci >= Co, x's feeds the weight gradient when Ci < Co.
    Each case names its GEMM count and its window blocks.  The input gradient
    must be bitwise the one-GEMM formula's, and so must the weight gradient
    when the window fits one block; from more blocks it adds their GEMMs in
    block order, a few float32 ulps of |g| . |x| from one GEMM.  float64 is
    held to ulps throughout, as in TestCorrelateBlocks."""

    CASES = {
        # id: (x [N,Ci,H,W], Co, k, dtype, GEMMs, window blocks)
        "Ci > Co, one block": ((2, 12, 8, 8), 6, 3, np.float32, 2, 1),
        "Ci > Co, blocks": ((2, 40, 32, 32), 32, 3, np.float32, 10, 5),
        "Ci > Co, blocks, k=5": ((2, 24, 20, 20), 16, 5, np.float32, 6, 3),
        "Ci == Co, one block": ((4, 16, 8, 8), 16, 3, np.float32, 2, 1),
        "Ci == Co, blocks, N=1": ((1, 32, 48, 48), 32, 3, np.float32, 12, 6),
        "Ci == Co, blocks, k=1": ((2, 64, 64, 64), 64, 1, np.float32, 8, 4),
        "Ci < Co, one block": ((2, 6, 8, 8), 29, 3, np.float32, 2, 1),
        "Ci < Co, blocks": ((2, 24, 32, 32), 48, 3, np.float32, 7, 4),
        "Ci == Co, blocks, float64": ((2, 29, 32, 32), 29, 3, np.float64, 20, 10),
        "Ci < Co, blocks, float64": ((1, 12, 64, 64), 29, 3, np.float64, 11, 8),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_gradients_one_gemm_result_holding_one_block(self, case, monkeypatch):
        shape, c_out, k, dtype, gemms, blocks = self.CASES[case]
        n, c_in, h, wd = shape
        rng = np.random.default_rng(sum(shape) + c_out + k)
        x, w, b = (Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True)
                   for s in [shape, (c_out, c_in, k, k), (c_out,)])
        g = rng.standard_normal((n, c_out, h, wd)).astype(dtype)
        calls, matmul = [], np.matmul

        def spy(p, q, **kw):
            calls.append((p.shape, q.shape, "out" in kw))
            return matmul(p, q, **kw)

        y = conv2d_same(x, w, b)
        y.grad = g
        monkeypatch.setattr(np, "matmul", spy)
        y._backward()
        monkeypatch.undo()
        assert b.grad.tobytes() == g.transpose(1, 2, 3, 0).reshape(c_out, -1).sum(axis=1).tobytes()
        want_gx, want_gw = conv_grads_one_gemm(x.data, w.data, g)
        scale_gx, scale_gw = conv_grads_one_gemm(np.abs(x.data), np.abs(w.data), np.abs(g))
        ulps = 4 * np.finfo(dtype).eps
        if dtype == np.float32:
            assert x.grad.tobytes() == want_gx.tobytes()
        else:
            assert np.all(np.abs(x.grad - want_gx) <= ulps * scale_gx)
        if blocks == 1:
            assert w.grad.tobytes() == want_gw.tobytes()
        else:
            assert np.all(np.abs(w.grad - want_gw) <= ulps * scale_gw)
        # the weight gradient's GEMMs write no out=; the window block is their first operand
        assert len(calls) == gemms
        cols = [p[1] for p, q, has_out in calls if not has_out]
        if c_in >= c_out:  # the input gradient's GEMMs take the same blocks
            assert [q[1] for p, q, has_out in calls if has_out] == cols
        rows = [c // (wd * n) for c in cols]
        assert len(rows) == blocks and sum(rows) == h and max(rows) - min(rows) <= 1
        if dtype == np.float32 and blocks > 1:  # within a row of _BLOCK_BYTES
            block_bytes = min(c_in, c_out) * k * k * max(cols) * np.dtype(dtype).itemsize
            assert block_bytes * (max(rows) - 1) // max(rows) <= _BLOCK_BYTES


def test_conv2d_peak_memory_holds_one_block_of_its_im2col():
    """The restore model's first-level hidden conv (29 -> 29, N=2, 32x32):
    a one-GEMM im2col alone would be nine times the output.  It runs on a
    new thread, whose conv scratch buffer starts empty."""
    rng = np.random.default_rng(45)
    x, w, b = (Tensor(rng.standard_normal(s).astype(np.float32))
               for s in [(2, 29, 32, 32), (29, 29, 3, 3), (29,)])

    def run():
        with no_grad():
            return conv2d_same(x, w, b, tanh=True).data

    out, peak = peak_of(run, timeout=60)
    ratio = peak / out.nbytes
    assert ratio < 6, f"peak {ratio:.1f}x the output"


def test_conv2d_backward_peak_memory_holds_one_block_of_its_window():
    """The reference model's hidden conv (64 -> 64, N=8, 16x16, with tanh),
    x and the output gradient in a conv result's batch-innermost layout: a
    whole im2col of the output gradient would alone be nine times the
    output.  Its backward runs on a new thread, as the forward's test does."""
    rng = np.random.default_rng(46)

    def conv_result(c):  # [C,H,W,N] memory viewed as [N,C,H,W]
        return rng.standard_normal((c, 16, 16, 8)).astype(np.float32).transpose(3, 0, 1, 2)

    x = Tensor(conv_result(64), requires_grad=True)
    w = Tensor(0.05 * rng.standard_normal((64, 64, 3, 3)).astype(np.float32), requires_grad=True)
    b = Tensor(np.zeros(64, np.float32), requires_grad=True)
    y = conv2d_same(x, w, b, tanh=True)
    y.grad = conv_result(64)
    _, peak = peak_of(y._backward, timeout=60)
    ratio = peak / y.data.nbytes
    assert ratio < 7, f"peak {ratio:.1f}x the output"


class TestReduce:
    def test_mean(self):
        assert mean_all(Tensor([1.0, 2.0, 3.0])).item() == 2.0

    def test_channel_mean(self):
        x = Tensor(np.array([[1.0, 3.0], [10.0, 30.0]]).reshape(1, 2, 2, 1))
        assert np.array_equal(channel_mean(x).data, [2.0, 20.0])

    def test_channel_std_population_convention(self):
        x = Tensor(np.array([1.0, 3.0]).reshape(1, 1, 2, 1))
        assert channel_std(x).data[0] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            sum_all(Tensor(np.zeros((0,))))


class TestBackward:
    def test_linear(self):
        x = Tensor([1.0, 1.0], requires_grad=True)
        backward(sum_all(mul(x, 2.0)))
        assert np.array_equal(x.grad, [2.0, 2.0])

    def test_square(self):
        x = Tensor([3.0], requires_grad=True)
        backward(sum_all(mul(x, x)))
        assert np.array_equal(x.grad, [6.0])

    def test_grad_accumulates_across_uses(self):
        x = Tensor([2.0], requires_grad=True)
        backward(sum_all(add(mul(x, 3.0), mul(x, x))))
        assert np.array_equal(x.grad, [7.0])  # 3 + 2x

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(mul(x, 2.0))

    def test_second_backward_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        loss = sum_all(mul(x, x))
        backward(loss)
        with pytest.raises(RuntimeError, match="consumed"):
            backward(loss)

    def test_building_on_consumed_graph_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = mul(x, x)
        backward(sum_all(y))
        with pytest.raises(RuntimeError, match="already consumed"):
            sigmoid(y)

    def test_independent_subgraphs_match_separate_backwards(self):
        rng = np.random.default_rng(4)
        a_data = rng.standard_normal(4)
        b_data = rng.standard_normal(4)

        a1, b1 = Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=True)
        backward(add(sum_all(mul(a1, a1)), sum_all(sigmoid(b1))))
        a2 = Tensor(a_data, requires_grad=True)
        backward(sum_all(mul(a2, a2)))
        b2 = Tensor(b_data, requires_grad=True)
        backward(sum_all(sigmoid(b2)))
        np.testing.assert_array_equal(a1.grad, a2.grad)
        np.testing.assert_array_equal(b1.grad, b2.grad)

    def test_frees_each_record_once_its_rule_has_run(self):
        # 1x1 kernels keep one rule's temporaries small next to the tape, so
        # the peak above the memory live at the start is what backward keeps;
        # an 8.5 MiB tape keeps a rebuild of CPython's interned-string table
        # (0.9 MiB, at unpredictable times) from deciding the outcome
        rng = np.random.default_rng(42)
        layers = [
            (Tensor(0.3 * rng.standard_normal((8, 8, 1, 1)), requires_grad=True),
             Tensor(rng.standard_normal(8), requires_grad=True))
            for _ in range(8)
        ]
        x = Tensor(rng.standard_normal((8, 8, 32, 32)))
        projection = Tensor(rng.standard_normal((8, 8, 32, 32)))
        tracemalloc.start()
        try:
            h = x
            for w, b in layers:
                h = tanh(conv2d_same(h, w, b))
            loss = sum_all(mul(h, projection))
            del h
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grown = (peak - live) / live
        assert grown < 0.25, f"backward grew {live} live bytes by {grown:.1%}"

    def test_only_leaves_keep_their_grads(self):
        rng = np.random.default_rng(43)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        x = Tensor(rng.standard_normal((1, 2, 4, 4)), requires_grad=True)
        conv = conv2d_same(x, w, b)
        act = tanh(conv)
        total = add(act, conv)
        loss = sum_all(mul(total, total))
        backward(loss)
        for leaf in (w, b, x):
            assert leaf.grad is not None and leaf.grad.shape == leaf.shape
        for node in (conv, act, total, loss):
            assert node.grad is None

    def test_no_grad_suppresses_tape(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = mul(x, x)
        assert not out.requires_grad

    def test_grad_mode_belongs_to_the_calling_thread(self):
        seen = []

        def record():
            x = Tensor([1.0], requires_grad=True)
            seen.append((bool(_grad_enabled), mul(x, x).requires_grad))

        assert bool(_grad_enabled)
        with no_grad():
            assert not bool(_grad_enabled)
            worker = threading.Thread(target=record)
            worker.start()
            worker.join(timeout=30)
            assert not worker.is_alive()
            assert not bool(_grad_enabled)
        assert bool(_grad_enabled)
        assert seen == [(True, True)]


class TestGradientsAgainstFiniteDifferences:
    """Every differentiable op, 64-bit, 20+ random trials, rel err < 1e-4."""

    def test_unary_ops(self):
        rng = np.random.default_rng(5)
        ops = [sigmoid, tanh, exp, absolute]
        for trial in range(20):
            op = ops[trial % len(ops)]
            x = Tensor(rng.uniform(0.1, 2.0, (2, 3)), requires_grad=True)
            assert_grad_matches_fd(lambda t, op=op: sum_all(op(t)), x)

    def test_log(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = Tensor(rng.uniform(0.5, 3.0, (4,)), requires_grad=True)
            assert_grad_matches_fd(lambda t: sum_all(log(t)), x)

    def test_binary_ops_both_sides(self):
        rng = np.random.default_rng(7)
        for op in (add, sub, mul):
            for _ in range(7):
                a = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
                b = Tensor(rng.standard_normal((2, 4)))
                assert_grad_matches_fd(lambda t, op=op, b=b: sum_all(op(t, b)), a)
                c = Tensor(rng.standard_normal((2, 4)))
                d = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
                assert_grad_matches_fd(lambda t, op=op, c=c: sum_all(op(c, t)), d)

    def test_conv2d_grads_all_operands(self):
        rng = np.random.default_rng(9)
        for k in (1, 3):
            for _ in range(10):
                x = Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True)
                w = Tensor(rng.standard_normal((3, 2, k, k)), requires_grad=True)
                b = Tensor(rng.standard_normal(3), requires_grad=True)
                loss = lambda _, x=x, w=w, b=b: sum_all(tanh(conv2d_same(x, w, b)))
                for leaf in (x, w, b):
                    assert_grad_matches_fd(lambda t, leaf=leaf: loss(None), leaf)

    def test_reduce_grads(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            x = Tensor(rng.uniform(0.5, 2.0, (2, 3, 2, 2)), requires_grad=True)
            assert_grad_matches_fd(lambda t: mean_all(t), x)
            assert_grad_matches_fd(lambda t: sum_all(channel_mean(t)), x)
            assert_grad_matches_fd(lambda t: sum_all(channel_std(t)), x)

    def test_structural_op_grads(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = Tensor(rng.standard_normal((1, 4, 2, 2)), requires_grad=True)
            assert_grad_matches_fd(
                lambda t: sum_all(sigmoid(narrow_channels(t, 1, 3))), x
            )
            assert_grad_matches_fd(
                lambda t: sum_all(mul(reshape(t, (16,)), reshape(t, (16,)))), x
            )
            y = Tensor(rng.standard_normal((1, 2, 2, 2)), requires_grad=True)
            z = Tensor(rng.standard_normal((1, 3, 2, 2)))
            assert_grad_matches_fd(
                lambda t, z=z: sum_all(tanh(concat_channels(t, z))), y
            )

    def test_composite_of_layer_ops(self):
        rng = np.random.default_rng(12)
        w = Tensor(rng.standard_normal((4, 2, 3, 3)))
        b = Tensor(rng.standard_normal(4))
        norm = ActNorm(4, dtype=np.float64)
        norm.initialize(tanh(conv2d_same(Tensor(rng.standard_normal((2, 2, 4, 4))), w, b)))

        def f(t):
            return sum_all(absolute(norm.forward(tanh(conv2d_same(t, w, b)))))

        for _ in range(20):
            x = Tensor(rng.standard_normal((1, 2, 4, 4)), requires_grad=True)
            assert_grad_matches_fd(f, x)


class TestFiniteDiff:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.array([1.0, -2.0, 5.0]))
        fd = finite_diff_grad(lambda t: sum_all(t), x, 1e-5)
        np.testing.assert_allclose(fd, np.ones(3), atol=1e-9)

    def test_square(self):
        x = Tensor([3.0])
        fd = finite_diff_grad(lambda t: sum_all(mul(t, t)), x, 1e-5)
        np.testing.assert_allclose(fd, [6.0], atol=1e-8)

    def test_perturbs_a_non_contiguous_leaf_in_place(self):
        data = np.arange(1.0, 7.0).reshape(2, 3).T
        x = Tensor(data)
        fd = finite_diff_grad(lambda t: sum_all(mul(t, t)), x, 1e-5)
        np.testing.assert_allclose(fd, 2 * data, rtol=1e-8)
        assert x.data is data
        np.testing.assert_array_equal(data, np.arange(1.0, 7.0).reshape(2, 3).T)

    def test_read_only_leaf_raises(self):
        data = np.ones(3)
        data.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            finite_diff_grad(lambda t: sum_all(t), Tensor(data), 1e-5)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError, match="positive"):
            finite_diff_grad(lambda t: sum_all(t), Tensor([1.0]), 0.0)


class TestProperties:
    def test_add_mul_commutative(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a = Tensor(rng.standard_normal((3, 3)))
            b = Tensor(rng.standard_normal((3, 3)))
            np.testing.assert_array_equal(add(a, b).data, add(b, a).data)
            np.testing.assert_array_equal(mul(a, b).data, mul(b, a).data)

    def test_tensor_invariants(self):
        t = Tensor(np.zeros((2, 3)), requires_grad=True)
        assert t.size == int(np.prod(t.shape))
        backward(sum_all(t))
        assert t.grad.shape == t.shape

    def test_numpy_refuses_a_tensor_and_points_to_its_data(self):
        for convert in (np.asarray, np.ascontiguousarray):
            with pytest.raises(TypeError, match=r"use its \.data"):
                convert(Tensor(np.zeros((2, 3))))


def _draw_step(data, rng, shape, leaves):
    """One tape op that accepts an [N,C,H,W] input of this shape, with any
    operands it needs appended to leaves: (op, output shape)."""
    n, c, h, w = shape
    names = [
        "sigmoid", "tanh", "add", "sub", "mul", "actnorm", "conv2d_same", "conv2d_same_tanh",
        "conv1x1", "narrow_concat", "reshape",
    ]
    if h % 2 == 0 and w % 2 == 0:
        names.append("squeeze")
    if c % 4 == 0:
        names.append("unsqueeze")
    name = data.draw(st.sampled_from(names), label="op")

    def leaf(*leaf_shape):
        t = Tensor(rng.uniform(-1.0, 1.0, leaf_shape), requires_grad=True)
        leaves.append(t)
        return t

    if name in ("sigmoid", "tanh"):
        return {"sigmoid": sigmoid, "tanh": tanh}[name], shape
    if name in ("add", "sub", "mul"):
        binary = {"add": add, "sub": sub, "mul": mul}[name]
        kinds = ["leaf", "scalar"] if name == "mul" else ["leaf"]
        kind = data.draw(st.sampled_from(kinds), label="operand")
        other = float(rng.uniform(-2.0, 2.0)) if kind == "scalar" else leaf(*shape)
        return (lambda x: binary(x, other)), shape
    if name == "actnorm":
        norm = ActNorm(c, dtype=np.float64)
        norm.scale, norm.bias, norm.initialized = leaf(c), leaf(c), True
        return norm.forward, shape
    if name in ("conv2d_same", "conv2d_same_tanh"):
        k = data.draw(st.sampled_from([1, 3]), label="k")
        c_out = data.draw(st.integers(1, 4), label="c_out")
        weight, bias = leaf(c_out, c, k, k), leaf(c_out)
        fused = name == "conv2d_same_tanh"
        return (lambda x: conv2d_same(x, weight, bias, tanh=fused)), (n, c_out, h, w)
    if name == "conv1x1":
        conv = InvertibleConv1x1(c, rng=None, dtype=np.float64)
        conv.weight = leaf(c, c)
        return conv.forward, shape
    if name == "narrow_concat":
        start = data.draw(st.integers(0, c - 1), label="start")
        stop = data.draw(st.integers(start + 1, c), label="stop")
        grown = (n, c + stop - start, h, w)
        return (lambda x: concat_channels(narrow_channels(x, start, stop), x)), grown
    if name == "squeeze":
        return squeeze, (n, 4 * c, h // 2, w // 2)
    if name == "unsqueeze":
        return unsqueeze, (n, c // 4, 2 * h, 2 * w)
    # the same buffer read with the channel and row axes' sizes swapped
    return (lambda x: reshape(x, (n, h, c, w))), (n, h, c, w)


class TestRandomCompositions:
    """Tape gradients of random chains of 1-4 ops, ending in a fixed random
    projection, match central differences at every leaf."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_chain_gradients_match_finite_differences(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        shape = (
            data.draw(st.integers(1, 2), label="n"),
            data.draw(st.integers(1, 4), label="c"),
            data.draw(st.sampled_from([2, 4]), label="h"),
            data.draw(st.sampled_from([2, 4]), label="w"),
        )
        leaves = [Tensor(rng.uniform(-1.0, 1.0, shape), requires_grad=True)]
        ops = []
        for _ in range(data.draw(st.integers(1, 4), label="length")):
            op, shape = _draw_step(data, rng, shape, leaves)
            ops.append(op)
        projection = Tensor(rng.standard_normal(shape))

        def loss(_=None):
            y = leaves[0]
            for op in ops:
                y = op(y)
            return sum_all(mul(y, projection))

        backward(loss())
        for i, leaf in enumerate(leaves):
            fd = finite_diff_grad(loss, leaf, FD_STEP)
            err = np.max(np.abs(leaf.grad - fd)) / max(np.max(np.abs(fd)), 1e-8)
            assert err < 1e-6, f"leaf {i} {leaf.shape}: worst relative error {err:.3e}"
