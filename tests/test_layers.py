"""Invertible-layer checks: round trips, permutation structure, gradients."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import irae.layers as layers_module
from irae.autodiff import (
    Tensor,
    add,
    backward,
    concat_channels,
    conv2d_same,
    finite_diff_grad,
    mul,
    narrow_channels,
    no_grad,
    sigmoid,
    sum_all,
    tanh,
)
from irae.layers import (
    ActNorm,
    AffineCoupling,
    InvertibleConv1x1,
    SingularWeightError,
    lu_det,
    lu_factor,
    lu_inverse,
    random_orthogonal,
    squeeze,
    squeeze_array,
    unsqueeze,
    unsqueeze_array,
)

SIGMOID_OF_2 = 1.0 / (1.0 + np.exp(-2.0))  # 0.8807970779778823


class TestLU:
    def test_det_matches_numpy(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.standard_normal((5, 5))
            lu, _, sign = lu_factor(a)
            assert abs(lu_det(lu, sign) - np.linalg.det(a)) < 1e-9 * max(1, abs(np.linalg.det(a)))

    def test_inverse_reconstructs_identity(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 7, 16):
            a = rng.standard_normal((n, n)) + np.eye(n)
            lu, perm, _ = lu_factor(a)
            inv = lu_inverse(lu, perm)
            np.testing.assert_allclose(a @ inv, np.eye(n), atol=1e-10)

    def test_orthogonal_init_has_unit_det(self):
        rng = np.random.default_rng(2)
        for n in (2, 4, 12):
            q = random_orthogonal(n, rng)
            assert abs(abs(np.linalg.det(q)) - 1.0) < 1e-12
            np.testing.assert_allclose(q.T @ q, np.eye(n), atol=1e-12)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            lu_factor(np.zeros((2, 3)))


class TestActNorm:
    def _init_from(self, data):
        layer = ActNorm(data.shape[1], dtype=np.float64)
        layer.initialize(Tensor(data))
        return layer

    def test_init_from_known_stats(self):
        # channel with mean 0.3 and std 0.2 -> s = 5, b = -1.5
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((4, 1, 8, 8))
        raw = (raw - raw.mean()) / raw.std() * 0.2 + 0.3
        layer = self._init_from(raw)
        assert abs(layer.scale.data[0] - 5.0) < 1e-9
        assert abs(layer.bias.data[0] - (-1.5)) < 1e-9

    def test_init_on_standardized_batch_is_identity(self):
        rng = np.random.default_rng(4)
        raw = rng.standard_normal((8, 2, 4, 4))
        raw = (raw - raw.mean(axis=(0, 2, 3), keepdims=True)) / raw.std(
            axis=(0, 2, 3), keepdims=True
        )
        layer = self._init_from(raw)
        np.testing.assert_allclose(layer.scale.data, 1.0, atol=1e-12)
        np.testing.assert_allclose(layer.bias.data, 0.0, atol=1e-12)

    def test_forward_standardizes_first_batch(self):
        rng = np.random.default_rng(5)
        raw = rng.uniform(-3.0, 7.0, (4, 3, 6, 6))
        layer = self._init_from(raw)
        out = layer.forward(Tensor(raw))
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.data.std(axis=(0, 2, 3)), 1.0, atol=1e-10)

    def test_constant_channel_clamps_and_warns(self):
        data = np.ones((2, 1, 4, 4))
        layer = ActNorm(1, dtype=np.float64)
        with pytest.warns(RuntimeWarning, match="constant channel"):
            layer.initialize(Tensor(data))
        assert layer.scale.data[0] == 1e8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_first_batch_refused_and_layer_untouched(self, bad):
        data = np.random.default_rng(8).uniform(0, 1, (2, 2, 4, 4))
        data[1, 0, 2, 3] = bad
        layer = ActNorm(2, dtype=np.float64)
        with pytest.raises(ValueError, match="not finite"):
            layer.initialize(Tensor(data))
        assert not layer.initialized
        assert np.array_equal(layer.scale.data, np.ones(2))
        assert np.array_equal(layer.bias.data, np.zeros(2))

    def test_round_trip_scalar_example(self):
        layer = ActNorm(1, dtype=np.float64)
        layer.scale.data[...] = 2.0
        layer.bias.data[...] = 1.0
        layer.initialized = True
        x = np.full((1, 1, 1, 1), 0.5)
        y = layer.forward(Tensor(x))
        assert y.data.ravel()[0] == 2.0
        assert layer.inverse(y.data).ravel()[0] == 0.5

    def test_random_round_trips(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            c = int(rng.integers(1, 5))
            layer = ActNorm(c, dtype=np.float64)
            layer.scale.data[...] = rng.uniform(0.2, 3.0, c) * rng.choice([-1, 1], c)
            layer.bias.data[...] = rng.standard_normal(c)
            layer.initialized = True
            x = rng.standard_normal((2, c, 4, 4))
            y = layer.forward(Tensor(x))
            assert np.max(np.abs(layer.inverse(y.data) - x)) < 1e-12
            assert np.max(np.abs(layer.forward(Tensor(layer.inverse(x))).data - x)) < 1e-12
            assert np.isfinite(layer.log_det(4, 4))

    def test_uninitialized_use_rejected(self):
        layer = ActNorm(2)
        with pytest.raises(RuntimeError, match="before initialization"):
            layer.forward(Tensor(np.zeros((1, 2, 2, 2))))

    def test_wrong_channels_and_mixed_dtype_rejected(self):
        layer = self._init_from(np.random.default_rng(9).standard_normal((2, 3, 4, 4)))
        for bad in (np.zeros((2, 2, 4, 4)), np.zeros((3, 4, 4))):
            with pytest.raises(ValueError, match="incompatible shapes"):
                layer.forward(Tensor(bad))
        with pytest.raises(ValueError, match="mixed dtypes"):
            layer.forward(Tensor(np.zeros((2, 3, 4, 4), dtype=np.float32)))

    def test_inverse_refuses_wrong_channel_count_as_forward_does(self):
        layer = self._init_from(np.random.default_rng(11).standard_normal((2, 4, 2, 2)))
        y = np.zeros((1, 1, 2, 2))
        with pytest.raises(ValueError, match="actnorm: incompatible shapes") as forward:
            layer.forward(Tensor(y))
        with pytest.raises(ValueError) as inverse:
            layer.inverse(y)
        assert str(inverse.value) == str(forward.value)

    def test_forward_is_one_record_over_input_scale_and_bias(self):
        layer = self._init_from(np.random.default_rng(10).standard_normal((2, 3, 4, 4)))
        x = Tensor(np.ones((2, 3, 4, 4)), requires_grad=True)
        assert layer.forward(x)._parents == (x, layer.scale, layer.bias)

    def test_gradients(self):
        rng = np.random.default_rng(7)
        layer = ActNorm(3, dtype=np.float64)
        layer.scale.data[...] = rng.uniform(0.5, 1.5, 3)
        layer.bias.data[...] = rng.standard_normal(3)
        layer.initialized = True
        x = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)

        def f(_):
            return sum_all(tanh(layer.forward(x)))

        backward(f(None))
        for leaf in (x, layer.scale, layer.bias):
            fd = finite_diff_grad(f, leaf, 1e-5)
            rel = np.abs(leaf.grad - fd) / (np.abs(fd) + 1e-8)
            assert rel.max() < 1e-4
            leaf.grad = None


def conv1x1_with(weight, dtype=np.float64):
    layer = InvertibleConv1x1(len(weight), rng=np.random.default_rng(0), dtype=dtype)
    layer.weight.data[...] = weight
    return layer


@st.composite
def conv1x1_cases(draw):
    """(layer, x): W = scale * U diag(sv) V^T with U, V random orthogonal and
    singular values sv in [0.5, 2], so cond(W) <= 4 at every scale in
    [1e-4, 1e4]; C in 1..64, either dtype, x a random [N, C, H, W] input."""
    c = draw(st.integers(1, 64))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    scale = 10.0 ** draw(st.floats(-4.0, 4.0))
    n, h, wd = draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, v = random_orthogonal(c, rng), random_orthogonal(c, rng)
    weight = scale * (u * rng.uniform(0.5, 2.0, c)) @ v
    return conv1x1_with(weight, dtype), rng.standard_normal((n, c, h, wd)).astype(dtype)


def tape_records(y):
    """The tape records reachable from y, by id."""
    records, stack = {}, [y]
    while stack:
        t = stack.pop()
        if t._backward is not None and id(t) not in records:
            records[id(t)] = t
            stack.extend(t._parents)
    return records


class TestInvertibleConv1x1:
    def test_matches_per_pixel_matrix_product(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 4, 5))
        w = rng.standard_normal((3, 3))
        want = np.einsum("oc,nchw->nohw", w, x)
        np.testing.assert_allclose(conv1x1_with(w).forward(Tensor(x)).data, want, rtol=1e-12)

    def test_wrong_channel_count_refused(self):
        # forward and inverse share one check, and so one message
        layer, y = conv1x1_with(np.eye(2)), np.zeros((1, 3, 2, 2))
        expected = r"conv1x1: expected \[N,2,H,W\], got shape \(1, 3, 2, 2\)"
        with pytest.raises(ValueError, match=expected) as forward:
            layer.forward(Tensor(y))
        with pytest.raises(ValueError) as inverse:
            layer.inverse(y)
        assert str(inverse.value) == str(forward.value)

    def test_forward_is_one_record_over_input_and_weight(self):
        layer = conv1x1_with(np.eye(3))
        x = Tensor(np.ones((2, 3, 2, 2)), requires_grad=True)
        y = layer.forward(x)
        assert len(tape_records(y)) == 1 and y._parents == (x, layer.weight)

    def test_identity_weight(self):
        layer = InvertibleConv1x1(3, rng=np.random.default_rng(8), dtype=np.float64)
        layer.weight.data[...] = np.eye(3)
        x = np.random.default_rng(9).standard_normal((2, 3, 4, 4))
        np.testing.assert_array_equal(layer.forward(Tensor(x)).data, x)

    def test_swap_weight_is_permutation(self):
        layer = InvertibleConv1x1(2, rng=np.random.default_rng(10), dtype=np.float64)
        layer.weight.data[...] = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = np.random.default_rng(11).standard_normal((1, 2, 2, 2))
        once = layer.forward(Tensor(x)).data
        np.testing.assert_array_equal(once[:, 0], x[:, 1])
        np.testing.assert_array_equal(once[:, 1], x[:, 0])
        twice = layer.forward(Tensor(once)).data
        np.testing.assert_array_equal(twice, x)

    def test_orthogonal_round_trip_and_logdet(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            c = int(rng.integers(1, 9))
            layer = InvertibleConv1x1(c, rng=rng, dtype=np.float64)
            x = rng.standard_normal((1, c, 3, 3))
            y = layer.forward(Tensor(x))
            assert np.max(np.abs(layer.inverse(y.data) - x)) < 1e-12
            assert np.max(np.abs(layer.forward(Tensor(layer.inverse(x))).data - x)) < 1e-12
            assert abs(layer.log_det(3, 3)) < 1e-9  # |det| = 1 for orthogonal init

    def test_singular_weight_refuses_inverse(self):
        layer = InvertibleConv1x1(2, rng=np.random.default_rng(13), dtype=np.float64)
        layer.weight.data[...] = np.array([[1.0, 1.0], [1.0, 1.0]])
        x = np.zeros((1, 2, 2, 2))
        layer.forward(Tensor(x))  # forward still runs; training may continue
        with pytest.raises(SingularWeightError, match="singular"):
            layer.inverse(x)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_refuses_inverse(self, bad, dtype):
        weight = np.eye(3)
        weight[1, 2] = bad
        with pytest.raises(SingularWeightError, match="not finite"):
            conv1x1_with(weight, dtype).inverse(np.zeros((1, 3, 2, 2), dtype=dtype))

    def test_log_det_finite_when_pivot_product_overflows(self):
        # det W = 1, but the product of the pivots passes 1e384 on the way
        layer = conv1x1_with(np.diag([1e4] * 96 + [1e-4] * 96))
        assert abs(layer.log_det(1, 1)) < 1e-9

    def test_log_det_of_scaled_identity(self):
        layer = conv1x1_with(100.0 * np.eye(192))
        assert layer.log_det(1, 1) == pytest.approx(192 * np.log(100.0), rel=1e-12)

    @pytest.mark.parametrize(
        "weight",
        [[[1.0, 1.0], [1.0, 1.0]], [[1.0, 0.0, 2.0], [3.0, 0.0, 4.0], [5.0, 0.0, 6.0]]],
        ids=["equal-rows", "zero-column"],
    )
    def test_rank_deficient_log_det_is_minus_inf_without_warning(self, weight):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert conv1x1_with(np.array(weight)).log_det(2, 2) == -np.inf

    @settings(max_examples=200, deadline=None)
    @given(case=conv1x1_cases())
    def test_random_well_conditioned_weights(self, case):
        """cond(W) <= 4 at every scale, so the inverse never refuses:
        inverse(forward(x)) == x and log_det matches the reference."""
        layer, x = case
        _, _, h, w = x.shape
        det = np.linalg.det(layer.weight.data.astype(np.float64))
        tol = 1e-4 if x.dtype == np.float32 else 1e-10
        back = layer.inverse(layer.forward(Tensor(x)).data)
        assert back.dtype == x.dtype
        assert np.max(np.abs(back - x)) <= tol * max(1.0, np.max(np.abs(x)))
        expected = h * w * np.log(abs(det))
        assert layer.log_det(h, w) == pytest.approx(expected, rel=1e-9, abs=1e-9 * h * w)

    @settings(max_examples=100, deadline=None)
    @given(
        c=st.integers(1, 64),
        log_scale=st.floats(-6.0, 6.0),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scaled_orthogonal_accepted_at_any_scale(self, c, log_scale, dtype, seed):
        """cond(s*Q) = cond(Q) for every s in [1e-6, 1e6], however small or
        large |det(s*Q)| = s**C gets: the inverse accepts and round-trips."""
        rng = np.random.default_rng(seed)
        layer = conv1x1_with(10.0**log_scale * random_orthogonal(c, rng), dtype)
        x = rng.standard_normal((2, c, 3, 2)).astype(dtype)
        back = layer.inverse(layer.forward(Tensor(x)).data)
        tol = 1e-4 if dtype == np.float32 else 1e-10
        assert np.max(np.abs(back - x)) <= tol * max(1.0, np.max(np.abs(x)))

    @settings(max_examples=100, deadline=None)
    @given(
        c=st.integers(2, 64),
        log_scale=st.floats(-6.0, 6.0),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_repeated_row_refused(self, c, log_scale, dtype, seed):
        """A repeated row makes W singular at any scale; LAPACK either finds
        an exactly zero pivot or leaves a condition number far above 1e12."""
        rng = np.random.default_rng(seed)
        weight = 10.0**log_scale * rng.standard_normal((c, c))
        i, j = rng.choice(c, 2, replace=False)
        weight[j] = weight[i]
        with pytest.raises(SingularWeightError, match="singular"):
            conv1x1_with(weight, dtype).inverse(np.zeros((1, c, 2, 2), dtype=dtype))

    def test_half_identity_at_48_channels_inverts(self):
        """|det(0.5*I)| = 0.5**48 = 3.6e-15 was once refused as singular,
        though its condition number is 1."""
        layer = conv1x1_with(0.5 * np.eye(48), np.float32)
        x = np.random.default_rng(15).standard_normal((2, 48, 3, 3)).astype(np.float32)
        np.testing.assert_array_equal(layer.inverse(layer.forward(Tensor(x)).data), x)

    def test_gradients(self):
        rng = np.random.default_rng(14)
        layer = InvertibleConv1x1(4, rng=rng, dtype=np.float64)
        x = Tensor(rng.standard_normal((1, 4, 3, 3)), requires_grad=True)

        def f(_):
            return sum_all(tanh(layer.forward(x)))

        backward(f(None))
        for leaf in (x, layer.weight):
            fd = finite_diff_grad(f, leaf, 1e-5)
            rel = np.abs(leaf.grad - fd) / (np.abs(fd) + 1e-8)
            assert rel.max() < 1e-4
            leaf.grad = None


def coupling_by_generic_ops(layer, x):
    """AffineCoupling.forward composed from generic tape ops: [x_a, s*x_b + t]
    with s = sigmoid(raw + 2), where raw and t are the halves of the net's output."""
    half, c = layer.channels // 2, layer.channels
    xa = narrow_channels(x, 0, half)
    h = conv2d_same(xa, layer.w1, layer.b1, tanh=True)
    h = conv2d_same(h, layer.w2, layer.b2, tanh=True)
    out = conv2d_same(h, layer.w3, layer.b3)
    raw = narrow_channels(out, 0, half)
    s = sigmoid(add(raw, Tensor(np.full(raw.shape, 2.0, dtype=raw.dtype))))
    yb = add(mul(s, narrow_channels(x, half, c)), narrow_channels(out, half, c))
    return concat_channels(xa, yb)


def channels_held_by_forward(hidden):
    """Bytes a grad-mode AffineCoupling(4, hidden) forward leaves allocated, in
    channels of its [2, 4, 64, 64] float64 input."""
    layer = AffineCoupling(4, hidden, rng=np.random.default_rng(14), dtype=np.float64)
    x = Tensor(np.random.default_rng(15).standard_normal((2, 4, 64, 64)), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = layer.forward(x)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert y.requires_grad
    return held / (x.data.nbytes // 4)


class TestAffineCoupling:
    def test_tape_keeps_no_scale(self):
        """A forward in grad mode holds the net's second hidden activation and
        its output, and the coupling's output: its record recomputes s from
        the net output in its backward, so it keeps no C/2-channel s."""
        held = channels_held_by_forward(2)
        assert held < 11, f"{held:.2f} channels held"  # 2 + 4 + 4

    def test_tape_holds_one_hidden_activation(self):
        """With 32 hidden channels the forward holds the second hidden activation,
        the net's output and the coupling's output, 32 + 4 + 4 channels: the first
        one's array is dropped until the record's backward rebuilds it."""
        held = channels_held_by_forward(32)
        assert held < 44, f"{held:.2f} channels held"  # two would be 72

    def test_zero_init_scales_by_sigmoid_of_two(self):
        layer = AffineCoupling(4, 8, rng=np.random.default_rng(15), dtype=np.float64)
        for p in layer.parameters():
            p.data[...] = 0.0
        x = np.random.default_rng(16).standard_normal((2, 4, 4, 4))
        y = layer.forward(Tensor(x)).data
        np.testing.assert_array_equal(y[:, :2], x[:, :2])
        np.testing.assert_allclose(y[:, 2:], SIGMOID_OF_2 * x[:, 2:], rtol=1e-15)

    def test_zero_passive_half_outputs_shift_exactly(self):
        rng = np.random.default_rng(17)
        layer = AffineCoupling(4, 8, rng=rng, dtype=np.float64)
        for p in layer.parameters():
            p.data[...] = 0.3 * rng.standard_normal(p.shape)
        x = rng.standard_normal((1, 4, 4, 4))
        x[:, 2:] = 0.0
        y = layer.forward(Tensor(x)).data
        with no_grad():
            _, _, t = layer._net(Tensor(x[:, :2]))
        np.testing.assert_array_equal(y[:, 2:], t)

    def test_active_half_unchanged_bitwise(self):
        rng = np.random.default_rng(18)
        layer = AffineCoupling(6, 4, rng=rng, dtype=np.float64)
        x = rng.standard_normal((2, 6, 4, 4))
        y = layer.forward(Tensor(x)).data
        assert np.array_equal(y[:, :3], x[:, :3])

    def test_random_round_trips(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            layer = AffineCoupling(4, 6, rng=rng, dtype=np.float64)
            for p in layer.parameters():
                p.data[...] = 0.2 * rng.standard_normal(p.shape)
            x = rng.standard_normal((1, 4, 4, 4))
            y = layer.forward(Tensor(x))
            assert np.max(np.abs(layer.inverse(y.data) - x)) < 1e-10
            assert np.max(np.abs(layer.forward(Tensor(layer.inverse(x))).data - x)) < 1e-10
            ld = layer.log_det(x)
            assert ld.shape == (1,) and np.all(np.isfinite(ld))

    def test_odd_channels_rejected(self):
        with pytest.raises(ValueError, match="even"):
            AffineCoupling(3, 4, rng=np.random.default_rng(20))

    def test_every_method_checks_the_channel_count(self):
        layer = AffineCoupling(2, 3, rng=np.random.default_rng(22))
        y = np.ones((1, 3, 4, 4), dtype=np.float32)
        for method in (lambda: layer.forward(Tensor(y)), lambda: layer.inverse(y),
                       lambda: layer.log_det(y)):
            with pytest.raises(ValueError, match=r"coupling: expected \[N,2,H,W\], got shape \(1, 3, "):
                method()

    def test_every_method_refuses_an_input_that_is_not_4d(self):
        """Each method names the shape it was given, not a halved one inside its net."""
        layer = AffineCoupling(4, 3, rng=np.random.default_rng(24))
        y = np.ones((2, 4, 8), dtype=np.float32)
        for method in (lambda: layer.forward(Tensor(y)), lambda: layer.inverse(y),
                       lambda: layer.log_det(y)):
            with pytest.raises(ValueError, match=r"coupling: expected \[N,4,H,W\], got shape \(2, 4, 8\)"):
                method()

    def test_forward_is_five_records(self):
        # the narrow to x_a, the net's three convs, and one record over (x, net output)
        layer = AffineCoupling(4, 3, rng=np.random.default_rng(23))
        x = Tensor(np.ones((1, 4, 4, 4), dtype=np.float32), requires_grad=True)
        y = layer.forward(x)
        assert len(tape_records(y)) == 5
        assert len(y._parents) == 2 and y._parents[0] is x

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "channels, hidden, side",
        # at 4-64 on 32x32 the 64 -> 64 conv copies its windows in 11 blocks
        # (float32) or 32 (float64), in the forward and in the backward
        [(6, 5, 8), (8, 3, 8), (4, 64, 32)],
        ids=["6-5", "8-3", "4-64-32x32"],
    )
    def test_bitwise_equal_to_generic_ops(self, dtype, channels, hidden, side):
        rng = np.random.default_rng(24)
        layer = AffineCoupling(channels, hidden, rng=rng, dtype=dtype)
        for p in layer.parameters():
            p.data[...] = 0.3 * rng.standard_normal(p.shape)
        x = Tensor(rng.standard_normal((2, channels, side, side)).astype(dtype), requires_grad=True)
        projection = Tensor(rng.standard_normal(x.shape).astype(dtype))
        leaves = [x] + layer.parameters()
        results = []
        for forward in (layer.forward, lambda t: coupling_by_generic_ops(layer, t)):
            y = forward(x)
            backward(sum_all(mul(y, projection)))
            results.append([y.data] + [leaf.grad for leaf in leaves])
            for leaf in leaves:
                leaf.grad = None
        for got, want in zip(*results):
            assert got.dtype == dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "frozen, h1_grad",
        [("w1 b1 w2 b2 w3 b3", True), ("x w1 b1", False)],
        ids=["parameters-frozen", "x-and-first-conv-frozen"],
    )
    def test_frozen_leaves_bitwise_equal_to_generic_ops(self, dtype, frozen, h1_grad, monkeypatch):
        """When the first hidden activation needs grad through x, it has a record
        and the forward drops its array; with x and the first conv frozen it has
        none and keeps it.  Either way the gradients, whose conv rules read the
        rebuilt or the kept array, are bitwise the generic composition's."""
        rng = np.random.default_rng(25)
        layer = AffineCoupling(4, 32, rng=rng, dtype=dtype)
        x = Tensor(rng.standard_normal((2, 4, 8, 8)).astype(dtype), requires_grad=True)
        leaves = {"x": x}
        for name, p in zip("w1 b1 w2 b2 w3 b3".split(), layer.parameters()):
            p.data[...] = 0.3 * rng.standard_normal(p.shape)
            leaves[name] = p
        for name in frozen.split():
            leaves.pop(name).requires_grad = False
        projection = Tensor(rng.standard_normal(x.shape).astype(dtype))
        convs = []

        def recording_conv(*args, **kwargs):
            convs.append(conv2d_same(*args, **kwargs))
            return convs[-1]

        monkeypatch.setattr(layers_module, "conv2d_same", recording_conv)
        results = []
        for forward in (layer.forward, lambda t: coupling_by_generic_ops(layer, t)):
            y = forward(x)
            if not results:  # the layer's forward
                dropped = ["Tensor(data dropped, requires_grad=True)"] if h1_grad else []
                assert [repr(c) for c in convs if c._data is None] == dropped
            backward(sum_all(mul(y, projection)))
            results.append([leaf.grad for leaf in leaves.values()])
            for leaf in leaves.values():
                leaf.grad = None
        for got, want in zip(*results):
            assert got.dtype == dtype
            assert np.array_equal(got, want)

    def test_gradients_through_all_parameters(self):
        rng = np.random.default_rng(21)
        layer = AffineCoupling(4, 3, rng=rng, dtype=np.float64)
        for p in layer.parameters():
            p.data[...] = 0.2 * rng.standard_normal(p.shape)
        x = Tensor(rng.standard_normal((1, 4, 2, 2)), requires_grad=True)

        def f(_):
            return sum_all(tanh(layer.forward(x)))

        backward(f(None))
        for leaf in [x] + layer.parameters():
            fd = finite_diff_grad(f, leaf, 1e-5)
            rel = np.abs(leaf.grad - fd) / (np.abs(fd) + 1e-8)
            assert rel.max() < 1e-4, f"leaf shape {leaf.shape}"
            leaf.grad = None


class TestSqueeze:
    def test_four_by_four_plane_squeezes_to_four_channels(self):
        x = np.zeros((1, 1, 4, 4))
        assert squeeze_array(x).shape == (1, 4, 2, 2)

    def test_element_ordering(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        out = squeeze_array(x)
        # channel c*4 + 2*dy + dx holds pixel (2i+dy, 2j+dx)
        np.testing.assert_array_equal(out.ravel(), [1.0, 2.0, 3.0, 4.0])

    def test_round_trip_bitwise(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            shape = (
                int(rng.integers(1, 3)),
                int(rng.integers(1, 4)),
                2 * int(rng.integers(1, 5)),
                2 * int(rng.integers(1, 5)),
            )
            x = rng.standard_normal(shape)
            assert np.array_equal(unsqueeze_array(squeeze_array(x)), x)
            y = rng.standard_normal((shape[0], 4 * shape[1], shape[2], shape[3]))
            assert np.array_equal(squeeze_array(unsqueeze_array(y)), y)

    def test_multiset_preserved(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((2, 3, 6, 4))
        out = squeeze_array(x)
        np.testing.assert_array_equal(np.sort(out.ravel()), np.sort(x.ravel()))

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError, match="even"):
            squeeze_array(np.zeros((1, 1, 3, 4)))

    def test_gradients_are_inverse_permutation(self):
        rng = np.random.default_rng(24)
        x = Tensor(rng.standard_normal((1, 2, 4, 4)), requires_grad=True)
        backward(sum_all(tanh(squeeze(x))))
        fd = finite_diff_grad(lambda t: sum_all(tanh(squeeze(t))), x, 1e-5)
        rel = np.abs(x.grad - fd) / (np.abs(fd) + 1e-8)
        assert rel.max() < 1e-4
        y = Tensor(rng.standard_normal((1, 4, 2, 2)), requires_grad=True)
        backward(sum_all(tanh(unsqueeze(y))))
        fd = finite_diff_grad(lambda t: sum_all(tanh(unsqueeze(t))), y, 1e-5)
        rel = np.abs(y.grad - fd) / (np.abs(fd) + 1e-8)
        assert rel.max() < 1e-4
