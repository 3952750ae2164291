"""Whole-model checks: shape chain, determinism, round trips, checkpoints."""

import hashlib
import os
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import irae.model as model_module
from irae.autodiff import Tensor, backward, finite_diff_grad, mul, no_grad, sum_all
from irae.layers import SingularWeightError, squeeze_array
from irae.model import (
    _HEADER,
    CheckpointError,
    _FlowStep,
    IraeConfig,
    build,
    load_checkpoint,
    param_count_formula,
    randomize_parameters,
    save_checkpoint,
)
from irae.train import l1_loss
from memtools import held_by


def tiny_config(**kw):
    base = dict(
        flow_steps=1, levels=1, hidden_width=4, in_channels=1, precision="float64", seed=0
    )
    base.update(kw)
    return IraeConfig(**base)


def make_identity(model):
    """Force every layer to an exact (bitwise) identity: ActNorm s=1/b=0,
    1x1 weight = I, coupling net zero except a saturating scale-gate bias
    (sigmoid of a large value is exactly 1.0 in floats)."""
    for step in model._steps():
        step.norm.scale.data[...] = 1.0
        step.norm.bias.data[...] = 0.0
        step.norm.initialized = True
        step.mix.weight.data[...] = np.eye(step.mix.channels)
        for p in step.coupling.parameters():
            p.data[...] = 0.0
        half = step.coupling.channels // 2
        step.coupling.b3.data[:half] = 100.0  # raw_s + 2 saturates: s == 1.0
    return model


class TestConfigAndBuild:
    def test_invalid_config_lists_violations(self):
        with pytest.raises(ValueError, match="flow_steps"):
            build(IraeConfig(flow_steps=0))
        with pytest.raises(ValueError) as err:
            build(IraeConfig(flow_steps=0, levels=0, precision="float16"))
        message = str(err.value)
        assert "flow_steps" in message and "levels" in message and "precision" in message

    def test_shape_chain_tiny(self):
        model = build(tiny_config())
        x = np.random.default_rng(0).uniform(0, 1, (1, 1, 4, 4))
        out = model.forward(x)
        assert out.shape == (1, 1, 4, 4)
        assert np.all(np.isfinite(out.data))
        # internal chain: 1x4x4 squeezes to 4x2x2
        assert squeeze_array(x).shape == (1, 4, 2, 2)

    def test_same_seed_bitwise_identical(self):
        cfg = tiny_config(flow_steps=2, levels=2, hidden_width=6, seed=99)
        a, b = build(cfg), build(cfg)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_reference_config_builds(self):
        model = build(IraeConfig(flow_steps=16, levels=2, hidden_width=8, in_channels=1))
        assert sum(p.size for p in model.parameters()) == param_count_formula(16, 2, 1, 8)

    def test_indivisible_input_rejected(self):
        model = build(tiny_config(levels=2))
        with pytest.raises(ValueError, match="divisible"):
            model.forward(np.zeros((1, 1, 6, 6)))

    def test_wrong_channel_count_rejected(self):
        model = build(tiny_config())
        with pytest.raises(ValueError, match="channels"):
            model.forward(np.zeros((1, 3, 4, 4)))


class TestForwardInverse:
    def test_fresh_model_output_finite_and_shaped(self):
        model = build(tiny_config(flow_steps=2, levels=2, hidden_width=8))
        x = np.random.default_rng(1).uniform(0, 1, (3, 1, 8, 8))
        out = model.forward(x)
        assert out.shape == x.shape
        assert np.all(np.isfinite(out.data))

    def test_fresh_model_refuses_non_finite_first_batch(self):
        model = build(tiny_config(flow_steps=2, levels=2, hidden_width=8))
        x = np.random.default_rng(1).uniform(0, 1, (3, 1, 8, 8))
        x[2, 0, 5, 1] = np.inf
        with pytest.raises(ValueError, match="not finite"):
            model.forward(x)
        assert not model.actnorms_initialized
        assert all(np.isfinite(p.data).all() for p in model.parameters())

    def test_batch_duplication_duplicates_rows(self):
        model = build(tiny_config(flow_steps=2, levels=1, hidden_width=8))
        rng = np.random.default_rng(2)
        randomize_parameters(model, rng)
        x = rng.uniform(0, 1, (1, 1, 8, 8))
        doubled = np.concatenate([x, x], axis=0)
        with no_grad():
            out = model.forward(doubled).data
        np.testing.assert_array_equal(out[0], out[1])

    def test_identity_model_round_trips_bitwise(self):
        model = make_identity(build(tiny_config(flow_steps=2, levels=2, hidden_width=4)))
        x = np.random.default_rng(3).uniform(0, 1, (2, 1, 8, 8))
        with no_grad():
            out = model.forward(x)
        # squeezes/unsqueezes cancel and every layer is an exact identity
        assert np.array_equal(out.data, x)
        back = model.inverse(out)
        assert np.array_equal(back.data, x)

    def test_briefly_trained_model_round_trip_float64(self):
        from irae.train import AdamState, adam_step

        model = build(tiny_config(flow_steps=2, levels=2, hidden_width=8))
        rng = np.random.default_rng(4)
        params = model.parameters()
        adam = AdamState.for_params(params)
        for _ in range(10):
            y = Tensor(rng.uniform(0, 1, (4, 1, 8, 8)))
            x = Tensor(rng.uniform(0, 1, (4, 1, 8, 8)))
            loss = l1_loss(model.forward(y), x)
            backward(loss)
            adam_step(params, [p.grad for p in params], adam, 1e-3)
            for p in params:
                p.grad = None
        probe = rng.uniform(0, 1, (2, 1, 8, 8))
        with no_grad():
            out = model.forward(probe)
        err = np.max(np.abs(model.inverse(out).data - probe))
        assert err < 1e-8

    def test_reference_config_round_trip_float32(self):
        cfg = IraeConfig(
            flow_steps=16, levels=2, hidden_width=16, in_channels=1, precision="float32", seed=5
        )
        model = build(cfg)
        randomize_parameters(model, np.random.default_rng(6))
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.uniform(0, 1, (1, 1, 16, 16))
            with no_grad():
                out = model.forward(x)
            err = np.max(np.abs(model.inverse(out).data - x.astype(np.float32)))
            assert err < 1e-4

    @settings(max_examples=100, deadline=None)
    @given(
        flow_steps=st.integers(1, 3),
        levels=st.integers(1, 2),
        hidden_width=st.integers(1, 16),
        in_channels=st.sampled_from([1, 3]),
        precision=st.sampled_from(["float32", "float64"]),
        batch=st.integers(1, 2),
        blocks=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_config_round_trip(
        self, flow_steps, levels, hidden_width, in_channels, precision, batch, blocks, seed
    ):
        """inverse(forward(x)) == x within the README bounds; H and W are
        drawn as multiples of 2**levels."""
        cfg = IraeConfig(
            flow_steps=flow_steps,
            levels=levels,
            hidden_width=hidden_width,
            in_channels=in_channels,
            precision=precision,
            seed=seed,
        )
        rng = np.random.default_rng(seed)
        model = randomize_parameters(build(cfg), rng)
        h, w = (2**levels * b for b in blocks)
        x = rng.uniform(0, 1, (batch, in_channels, h, w))
        with no_grad():
            out = model.forward(x)
        err = np.max(np.abs(model.inverse(out).data - x.astype(cfg.dtype)))
        assert err < {"float32": 1e-4, "float64": 1e-8}[precision]

    @pytest.mark.parametrize("in_channels", [1, 3])
    @pytest.mark.parametrize("levels", [1, 2])
    @pytest.mark.parametrize("flow_steps", [1, 2])
    def test_stage_walk(self, in_channels, levels, flow_steps):
        """forward folds _stages() and inverse folds it reversed, bitwise; walking
        back from the output, each stage's inverse recovers that stage's input."""
        cfg = tiny_config(flow_steps=flow_steps, levels=levels, in_channels=in_channels)
        rng = np.random.default_rng(100 * in_channels + 10 * levels + flow_steps)
        model = randomize_parameters(build(cfg), rng)
        stages = list(model._stages())
        assert len(stages) == 2 * levels * (flow_steps + 1)
        x = rng.uniform(0, 1, (2, in_channels, 8, 8))
        inputs, y = [], Tensor(x)
        with no_grad():
            for stage, _ in stages:
                inputs.append(y.data)
                y = stage(y)
            assert y.data.tobytes() == model.forward(x).data.tobytes()
        back = y.data
        for (_, stage), expected in zip(reversed(stages), reversed(inputs)):
            back = stage(back)
            np.testing.assert_allclose(back, expected, rtol=0, atol=1e-12)
        assert back.tobytes() == model.inverse(y).data.tobytes()

    def test_injectivity_witness_on_random_pairs(self):
        model = build(tiny_config(flow_steps=2, levels=1, hidden_width=8, seed=8))
        randomize_parameters(model, np.random.default_rng(9))
        rng = np.random.default_rng(10)
        for _ in range(25):
            a = rng.uniform(0, 1, (1, 1, 8, 8))
            b = rng.uniform(0, 1, (1, 1, 8, 8))
            if np.max(np.abs(a - b)) < 1e-3:
                continue
            with no_grad():
                fa = model.forward(a).data
                fb = model.forward(b).data
            assert np.max(np.abs(fa - fb)) > 1e-6

    def test_singular_weight_propagates(self):
        model = build(tiny_config())
        randomize_parameters(model, np.random.default_rng(11))
        step = model.encoder_levels[0][0]
        step.mix.weight.data[...] = 0.0
        x = np.random.default_rng(12).uniform(0, 1, (1, 1, 4, 4))
        with pytest.raises(SingularWeightError):
            model.inverse(x)

    def test_forward_differentiable_tiny_config(self):
        model = build(tiny_config(hidden_width=3))
        randomize_parameters(model, np.random.default_rng(13))
        rng = np.random.default_rng(14)
        y = Tensor(rng.uniform(0.1, 0.9, (1, 1, 4, 4)), requires_grad=True)
        target = Tensor(rng.uniform(0.1, 0.9, (1, 1, 4, 4)))

        def f(t):
            return sum_all(l1_loss(model.forward(t), target))

        backward(f(y))
        fd = finite_diff_grad(f, y, 1e-5)
        rel = np.abs(y.grad - fd) / (np.abs(fd) + 1e-8)
        assert rel.max() < 1e-4

    def test_replica_shares_arrays_but_not_leaves(self):
        model = randomize_parameters(build(tiny_config()), np.random.default_rng(15))
        twin = model.replica()
        for p, q in zip(model.parameters(), twin.parameters()):
            assert q is not p and q.data is p.data and q.requires_grad
        assert twin.actnorms_initialized
        y = np.random.default_rng(16).uniform(0, 1, (2, 1, 4, 4))
        backward(sum_all(twin.forward(y)))
        assert all(p.grad is None for p in model.parameters())
        assert all(q.grad is not None for q in twin.parameters())
        model.parameters()[0].data[...] += 1.0  # an in-place update reaches the replica
        with no_grad():
            assert np.array_equal(twin.forward(y).data, model.forward(y).data)


def random_step(dtype, hidden=8, channels=4, seed=60):
    """A flow step with random parameters and an initialized ActNorm."""
    rng = np.random.default_rng(seed)
    step = _FlowStep(channels, hidden, rng, dtype)
    step.norm.scale.data[...] = rng.uniform(0.8, 1.2, channels)
    step.norm.bias.data[...] = 0.1 * rng.standard_normal(channels)
    step.norm.initialized = True
    for p in step.coupling.parameters():
        p.data[...] = 0.3 * rng.standard_normal(p.shape)
    return step


def tape_tensors(y):
    """Every tensor reachable from y through the tape, leaves included."""
    seen, stack = {}, [y]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(t._parents)
    return list(seen.values())


class TestFlowStepTape:
    """A flow step drops its ActNorm output a and its 1x1 output m once read,
    and its coupling drops the x_a view of m and the net's first hidden
    activation h1: the tape keeps the step input, h, the net output and the
    step output, and backward rebuilds the rest, bitwise."""

    def test_forward_holds_two_channel_activations_fewer(self):
        """C=4, h=32: the step holds h (32 channels), the net output (4) and the
        step output (4).  Keeping a and m too would hold 48."""
        step = random_step(np.float64, hidden=32)
        x = Tensor(np.random.default_rng(61).standard_normal((2, 4, 64, 64)), requires_grad=True)
        channel = x.data.nbytes // 4
        y, held = held_by(lambda: step.forward(x), max_scratch=18 * channel)
        held /= channel
        assert y.requires_grad
        assert held < 44, f"{held:.2f} channels held"

    def test_dropped_tensors_report_metadata_without_a_rebuild(self):
        step = random_step(np.float32)
        x = Tensor(np.random.default_rng(62).standard_normal((2, 4, 16, 16)).astype(np.float32),
                   requires_grad=True)
        tensors = tape_tensors(step.forward(x))
        tracemalloc.start()
        try:
            for t in tensors:  # any rebuild allocates 8 KiB or more: a or m, or both for x_a
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                t.shape, t.ndim, t.size, t.dtype, repr(t)
                assert tracemalloc.get_traced_memory()[1] - before < 2048
        finally:
            tracemalloc.stop()
        dropped = [t for t in tensors if repr(t).startswith("Tensor(data dropped")]
        assert len(dropped) == 4  # a, m, x_a and h1, still dropped
        assert all(t._data is None and t.requires_grad for t in dropped)
        for t in dropped:
            meta = (t.shape, t.ndim, t.size, t.dtype)
            data = t.data  # rebuilt
            assert meta == (data.shape, data.ndim, data.size, data.dtype)
            assert data.shape[:1] == (2,) and data.dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("frozen", ["nothing", "actnorm-and-input", "parameters"])
    @pytest.mark.parametrize("target", ["step", "model"])
    def test_gradients_bitwise_equal_without_drops(self, target, frozen, dtype, monkeypatch):
        """The same layers with Tensor.drop a no-op give the same output and
        leaf gradients, bits and all; with ActNorm frozen and an input that
        needs no grad, a has no record and keeps its array."""
        rng = np.random.default_rng(63)
        if target == "step":
            net, shape = random_step(dtype), (2, 4, 8, 8)
            norms = [net.norm]
        else:
            net = randomize_parameters(build(tiny_config(
                flow_steps=2, levels=2, hidden_width=8, precision=np.dtype(dtype).name)), rng)
            shape, norms = (2, 1, 8, 8), [step.norm for step in net._steps()]
        x = Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=frozen != "actnorm-and-input")
        leaves = [x] + net.parameters()
        if frozen == "actnorm-and-input":
            for norm in norms:
                norm.scale.requires_grad = norm.bias.requires_grad = False
        elif frozen == "parameters":
            for p in net.parameters():
                p.requires_grad = False
        leaves = [t for t in leaves if t.requires_grad]
        projection = Tensor(rng.standard_normal(shape).astype(dtype))
        results = []
        for drops in (True, False):
            if not drops:
                monkeypatch.setattr(Tensor, "drop", lambda t: None, raising=False)
            y = net.forward(x)
            backward(sum_all(mul(y, projection)))
            results.append([y.data] + [leaf.grad for leaf in leaves])
            for leaf in leaves:
                leaf.grad = None
        for got, want in zip(*results):
            assert got.dtype == dtype
            assert np.array_equal(got, want)


class TestParamCount:
    def test_hand_enumeration_k1_l1_c1_h8(self):
        # channels after the single squeeze: 4; coupling net 2->8->8->4
        actnorm = 4 + 4
        conv1x1 = 4 * 4
        coupling = (8 * 2 * 9 + 8) + (8 * 8 * 9 + 8) + (4 * 8 * 9 + 4)
        per_step = actnorm + conv1x1 + coupling
        expected = 2 * per_step  # one encoder step + one decoder step
        model = build(IraeConfig(flow_steps=1, levels=1, hidden_width=8, in_channels=1))
        assert sum(p.size for p in model.parameters()) == expected
        assert param_count_formula(1, 1, 1, 8) == expected

    def test_count_matches_actual_tensors(self):
        for cfg in (
            IraeConfig(flow_steps=3, levels=2, hidden_width=5, in_channels=1),
            IraeConfig(flow_steps=2, levels=1, hidden_width=7, in_channels=3),
        ):
            model = build(cfg)
            assert sum(p.size for p in model.parameters()) == param_count_formula(
                cfg.flow_steps, cfg.levels, cfg.in_channels, cfg.hidden_width
            )

    def test_count_independent_of_input_size(self):
        model = build(tiny_config(levels=1))
        before = sum(p.size for p in model.parameters())
        rng = np.random.default_rng(17)
        model.forward(rng.uniform(0, 1, (1, 1, 4, 4)))
        model.forward(rng.uniform(0, 1, (1, 1, 8, 8)))
        assert sum(p.size for p in model.parameters()) == before


# byte offsets of single fields in the "<4sIIIIIBBHQQ" header; the first three are u32,
# the next two single bytes, and the padding two bytes
OFFSETS = {"flow_steps": 8, "levels": 12, "hidden_width": 16, "precision_code": 24,
           "initialized": 25, "padding": 26}


# K=1 L=1 h=2, float32: 352 parameters behind the 44-byte header
TINY_CKPT_CONFIG = tiny_config(hidden_width=2, precision="float32")
TINY_CKPT_BYTES = _HEADER.size + 4 * param_count_formula(1, 1, 1, 2)


# SHA-256 of save_checkpoint(build(PINNED_CONFIG)): pins build's draws and their order
PINNED_CONFIG = tiny_config(flow_steps=2, levels=2, hidden_width=6, in_channels=3,
                            precision="float32", seed=7)
PINNED_DIGEST = "0ef003d3b88b7177f4221f5740dfa061b406f234d0ee55995f88aa8ceae1d106"


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    model = randomize_parameters(build(TINY_CKPT_CONFIG), np.random.default_rng(19))
    path = tmp_path_factory.mktemp("ckpt") / "tiny.ckpt"
    save_checkpoint(model, path)
    return path, model


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        model = build(tiny_config(flow_steps=2, levels=2, hidden_width=6, precision="float32"))
        randomize_parameters(model, np.random.default_rng(15))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert sum(p.size for p in loaded.parameters()) == sum(p.size for p in model.parameters())
        assert loaded.config == model.config
        assert loaded.actnorms_initialized
        for pa, pb in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_round_trip_float64(self, tmp_path):
        model = build(tiny_config(precision="float64"))
        randomize_parameters(model, np.random.default_rng(16))
        path = tmp_path / "model64.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        for pa, pb in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_truncated_file_rejected(self, tmp_path):
        model = build(tiny_config())
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(CheckpointError, match="payload"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNKJUNKJUNKJUNK")
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_unknown_version_rejected(self, tmp_path):
        model = build(tiny_config())
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (999).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "offset, value, message",
        [
            (OFFSETS["initialized"], 2, "flag 2,"),
            (OFFSETS["initialized"], 255, "flag 255,"),
            (OFFSETS["padding"], 7, "padding is 7"),
            (OFFSETS["padding"] + 1, 1, "padding is 256"),
        ],
    )
    def test_stray_flag_or_padding_byte_refused(self, tiny_checkpoint, tmp_path, offset,
                                               value, message):
        """save_checkpoint writes the ActNorm flag as 0 or 1 and the padding as
        zeros; any other byte there marks a corrupted header."""
        path, _ = tiny_checkpoint
        blob = bytearray(path.read_bytes())
        blob[offset] = value
        corrupt = tmp_path / "corrupt.ckpt"
        corrupt.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(corrupt)

    @pytest.mark.parametrize(
        "field, value", [("levels", 200), ("flow_steps", 10**6), ("hidden_width", 10**5)]
    )
    def test_oversized_header_refused_before_build(self, tmp_path, monkeypatch, field, value):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build(tiny_config()), path)
        blob = bytearray(path.read_bytes())
        blob[OFFSETS[field] : OFFSETS[field] + 4] = value.to_bytes(4, "little")
        path.write_bytes(bytes(blob))

        def no_build(config, rng=None):
            pytest.fail(f"model assembled for a corrupted header: {config}")

        monkeypatch.setattr(model_module, "build", no_build)
        monkeypatch.setattr(model_module, "_assemble", no_build)
        with pytest.raises(CheckpointError, match="parameter count"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit", [lambda b: b + b"\0", lambda b: b[:-7]], ids=["trailing-byte", "cut-short"]
    )
    def test_wrong_payload_length_refused_before_build(
        self, tiny_checkpoint, tmp_path, monkeypatch, edit
    ):
        path, _ = tiny_checkpoint
        corrupt = tmp_path / "corrupt.ckpt"
        corrupt.write_bytes(edit(path.read_bytes()))

        def no_build(config, rng=None):
            pytest.fail(f"model assembled for a payload of the wrong length: {config}")

        monkeypatch.setattr(model_module, "_assemble", no_build)
        with pytest.raises(CheckpointError, match="payload"):
            load_checkpoint(corrupt)

    @pytest.mark.parametrize(
        "extra, message", [(-7, "ended early"), (1, "after the last parameter")]
    )
    def test_file_changing_size_while_loading_refused(
        self, tiny_checkpoint, tmp_path, monkeypatch, extra, message
    ):
        """The payload length comes from fstat; a file that then reads
        shorter or longer than it reported is refused, not half loaded."""
        path, _ = tiny_checkpoint
        blob = path.read_bytes()
        changed = tmp_path / "changed.ckpt"
        changed.write_bytes(blob[:extra] if extra < 0 else blob + bytes(extra))
        fstat = os.fstat

        def stale_fstat(fd):
            real = fstat(fd)
            return SimpleNamespace(st_mode=real.st_mode, st_size=real.st_size - extra)

        monkeypatch.setattr(os, "fstat", stale_fstat)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(changed)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_refused(self, tiny_checkpoint, tmp_path):
        """A pipe cannot report its size, so the payload length is unknown."""
        path, _ = tiny_checkpoint
        fifo = tmp_path / "model.fifo"
        os.mkfifo(fifo)

        def write():
            with open(fifo, "wb") as w:
                w.write(path.read_bytes())

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        with pytest.raises(CheckpointError, match="not a regular file"):
            load_checkpoint(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()

    @settings(max_examples=300, deadline=None)
    @given(offset=st.integers(0, TINY_CKPT_BYTES - 1), value=st.integers(0, 255))
    @example(offset=OFFSETS["precision_code"], value=7)  # unknown precision code
    @example(offset=OFFSETS["flow_steps"], value=0)  # invalid stored config
    @example(offset=OFFSETS["hidden_width"], value=3)  # parameter count mismatch
    @example(offset=OFFSETS["levels"] + 3, value=255)  # levels > 4e9
    @example(offset=TINY_CKPT_BYTES - 1, value=0x7F)  # last parameter's exponent byte
    def test_any_corrupted_byte_fails_loudly_or_loads_finite(
        self, tiny_checkpoint, offset, value
    ):
        path, model = tiny_checkpoint
        blob = bytearray(path.read_bytes())
        assert len(blob) == TINY_CKPT_BYTES
        blob[offset] = value
        corrupt = path.with_name("corrupt.ckpt")
        corrupt.write_bytes(bytes(blob))
        try:
            loaded = load_checkpoint(corrupt)
        except CheckpointError:
            return
        assert [p.shape for p in loaded.parameters()] == [p.shape for p in model.parameters()]
        assert all(np.isfinite(p.data).all() for p in loaded.parameters())

    @settings(max_examples=100, deadline=None)
    @given(length=st.integers(0, TINY_CKPT_BYTES - 1))
    @example(length=_HEADER.size - 1)  # header shorter than _HEADER.size
    @example(length=4)  # the magic bytes alone
    def test_any_truncation_fails_loudly(self, tiny_checkpoint, length):
        path, _ = tiny_checkpoint
        corrupt = path.with_name("truncated.ckpt")
        corrupt.write_bytes(path.read_bytes()[:length])
        with pytest.raises(CheckpointError):
            load_checkpoint(corrupt)

    def test_non_finite_payload_rejected(self, tmp_path):
        model = randomize_parameters(build(tiny_config()), np.random.default_rng(17))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[-8:] = np.array([np.nan], dtype="<f8").tobytes()  # last float64 parameter
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint(path)

    def test_restore_refuses_wrong_shapes(self):
        model = randomize_parameters(build(tiny_config()), np.random.default_rng(18))
        arrays, initialized = model.snapshot()
        # scalars broadcast into every parameter, 1x1 weights included
        with pytest.raises(ValueError, match="parameter 0 "):
            model.restore(([np.float64(0.5)] * len(arrays), initialized))
        i = next(j for j, a in enumerate(arrays) if a.ndim > 1)
        flat = [a.reshape(-1) if j == i else a for j, a in enumerate(arrays)]
        with pytest.raises(ValueError, match=f"parameter {i} "):
            model.restore((flat, initialized))
        for p, a in zip(model.parameters(), arrays):
            assert np.array_equal(p.data, a)

    def test_config_taken_from_file(self, tmp_path):
        cfg = tiny_config(flow_steps=3, hidden_width=5, seed=21)
        model = build(cfg)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == cfg  # caller may compare and reject

    def test_uninitialized_flag_round_trips(self, tmp_path):
        model = build(tiny_config())
        assert not model.actnorms_initialized
        path = tmp_path / "fresh.ckpt"
        save_checkpoint(model, path)
        assert not load_checkpoint(path).actnorms_initialized

    def test_load_peak_memory_near_file_size(self, tmp_path):
        """Each parameter is read straight into the model's array: the peak
        is the parameters alone, about the file size, with no copy of the
        payload."""
        model = build(IraeConfig(flow_steps=4, levels=2, hidden_width=29, in_channels=3))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        size = path.stat().st_size
        assert size >= 2**20
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(p.size for p in loaded.parameters()) == sum(p.size for p in model.parameters())
        assert peak <= 1.15 * size, f"peak {peak / size:.2f}x the file size"

    def test_build_draw_order_pinned(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build(PINNED_CONFIG), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_DIGEST

    @settings(max_examples=100, deadline=None)
    @given(
        flow_steps=st.integers(1, 3),
        levels=st.integers(1, 2),
        hidden_width=st.integers(1, 16),
        in_channels=st.sampled_from([1, 3]),
        precision=st.sampled_from(["float32", "float64"]),
        initialized=st.booleans(),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_save_load_is_identity(
        self, tmp_path_factory, flow_steps, levels, hidden_width, in_channels, precision,
        initialized, seed,
    ):
        """Loading gives back the config, every parameter bit and the ActNorm
        flag, and saving the loaded model writes the same bytes again."""
        cfg = IraeConfig(
            flow_steps=flow_steps,
            levels=levels,
            hidden_width=hidden_width,
            in_channels=in_channels,
            precision=precision,
            seed=seed,
        )
        model = randomize_parameters(build(cfg), np.random.default_rng(seed))
        for step in model._steps():
            step.norm.initialized = initialized
        directory = tmp_path_factory.getbasetemp()
        first, second = directory / "identity-a.ckpt", directory / "identity-b.ckpt"
        save_checkpoint(model, first)
        loaded = load_checkpoint(first)
        assert loaded.config == cfg
        assert loaded.actnorms_initialized == initialized
        for a, b in zip(model.parameters(), loaded.parameters(), strict=True):
            assert a.data.dtype == b.data.dtype
            assert a.data.tobytes() == b.data.tobytes()
        save_checkpoint(loaded, second)
        assert second.read_bytes() == first.read_bytes()
