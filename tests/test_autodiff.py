"""Tensor and reverse-mode autodiff checks against independent oracles.

The two oracles everything else leans on: a hand-rolled nested-loop
convolution, and central finite differences for every backward rule.
"""

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

    def test_mul_channel_broadcast(self):
        x = Tensor(np.array([3.0, 5.0]).reshape(1, 2, 1, 1))
        scale = Tensor([2.0, 10.0])
        out = mul(x, scale)
        assert np.array_equal(out.data.ravel(), [6.0, 50.0])

    def test_sub_and_abs(self):
        out = absolute(sub(Tensor([1.0, -4.0]), Tensor([3.0, -1.0])))
        assert np.array_equal(out.data, [2.0, 3.0])

    def test_scalar_operand(self):
        out = add(mul(Tensor([2.0, 3.0]), 2.0), 1.0)
        assert np.array_equal(out.data, [5.0, 7.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="incompatible shapes"):
            add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))

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
        assert np.array_equal(conv2d_same(x, w).data, x.data)

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
        alpha, beta = 0.3, -1.7
        combined = conv2d_same(x, Tensor(alpha * w1 + beta * w2)).data
        separate = alpha * conv2d_same(x, Tensor(w1)).data + beta * conv2d_same(x, Tensor(w2)).data
        np.testing.assert_allclose(combined, separate, rtol=0, atol=1e-10)

    def test_channel_mismatch_rejected(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        w = Tensor(np.zeros((1, 3, 3, 3)))
        with pytest.raises(ValueError, match="channels"):
            conv2d_same(x, w)


@st.composite
def conv_cases(draw, relation):
    """float64 (x, w, b, r) with Cin `relation` Cout, N in 1..3, k in {1,3,5}
    and H != W; r is a random projection of the output for gradient checks."""
    narrow = draw(st.integers(1, 3))
    wide = narrow if relation == "==" else narrow + draw(st.integers(1, 3))
    c_in, c_out = (wide, narrow) if relation == ">" else (narrow, wide)
    n = draw(st.integers(1, 3))
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

    def test_no_grad_suppresses_tape(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = mul(x, x)
        assert not out.requires_grad


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

    def test_channel_broadcast_grads(self):
        rng = np.random.default_rng(8)
        for op in (add, sub, mul):
            for _ in range(7):
                x = Tensor(rng.standard_normal((2, 3, 2, 2)), requires_grad=True)
                v = Tensor(rng.standard_normal(3), requires_grad=True)
                assert_grad_matches_fd(lambda t, v=v, op=op: sum_all(op(t, v)), x)
                x2 = Tensor(rng.standard_normal((2, 3, 2, 2)))
                v2 = Tensor(rng.standard_normal(3), requires_grad=True)
                assert_grad_matches_fd(lambda t, x2=x2, op=op: mean_all(op(x2, t)), v2)

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
        scale = Tensor(rng.uniform(0.5, 1.5, 4))

        def f(t):
            h = tanh(conv2d_same(t, w, b))
            h = mul(h, scale)
            return mean_all(absolute(h))

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
