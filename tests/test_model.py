"""Whole-model checks: shape chain, determinism, round trips, checkpoints."""

import numpy as np
import pytest

from irae.autodiff import Tensor, backward, finite_diff_grad, no_grad, sum_all
from irae.layers import SingularWeightError, squeeze_array
from irae.model import (
    CheckpointError,
    IraeConfig,
    build,
    load_checkpoint,
    param_count_formula,
    randomize_parameters,
    save_checkpoint,
)
from irae.train import l1_loss


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
        assert model.param_count() == param_count_formula(16, 2, 1, 8)

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


class TestParamCount:
    def test_hand_enumeration_k1_l1_c1_h8(self):
        # channels after the single squeeze: 4; coupling net 2->8->8->4
        actnorm = 4 + 4
        conv1x1 = 4 * 4
        coupling = (8 * 2 * 9 + 8) + (8 * 8 * 9 + 8) + (4 * 8 * 9 + 4)
        per_step = actnorm + conv1x1 + coupling
        expected = 2 * per_step  # one encoder step + one decoder step
        model = build(IraeConfig(flow_steps=1, levels=1, hidden_width=8, in_channels=1))
        assert model.param_count() == expected
        assert param_count_formula(1, 1, 1, 8) == expected

    def test_count_matches_actual_tensors(self):
        for cfg in (
            IraeConfig(flow_steps=3, levels=2, hidden_width=5, in_channels=1),
            IraeConfig(flow_steps=2, levels=1, hidden_width=7, in_channels=3),
        ):
            model = build(cfg)
            assert model.param_count() == param_count_formula(
                cfg.flow_steps, cfg.levels, cfg.in_channels, cfg.hidden_width
            )

    def test_count_independent_of_input_size(self):
        model = build(tiny_config(levels=1))
        before = model.param_count()
        rng = np.random.default_rng(17)
        model.forward(rng.uniform(0, 1, (1, 1, 4, 4)))
        model.forward(rng.uniform(0, 1, (1, 1, 8, 8)))
        assert model.param_count() == before


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        model = build(tiny_config(flow_steps=2, levels=2, hidden_width=6, precision="float32"))
        randomize_parameters(model, np.random.default_rng(15))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.param_count() == model.param_count()
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
