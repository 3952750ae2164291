"""CLI behavior: config round trips, subcommands, end-to-end pipeline."""

import threading
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import irae.autodiff as autodiff
import irae.cli as cli
import irae.layers as layers
from irae.autodiff import Tensor
from irae.cli import RunConfig, main, parse_config_file
from irae.model import (
    IraeConfig,
    IraeModel,
    build,
    load_checkpoint,
    randomize_parameters,
    save_checkpoint,
)
from irae.metrics import psnr, ssim
from irae.pnm import load_pnm, save_pnm
from memtools import peak_of
from synthimages import smooth_patches


def write_dataset(directory, images):
    directory.mkdir(parents=True, exist_ok=True)
    for i, img in enumerate(images):
        save_pnm(directory / f"img{i:03d}.pgm", img)


@pytest.fixture(scope="module")
def rgb_checkpoint(tmp_path_factory):
    """The shape of the restore-rgb and verify-rgb benchmarks' checkpoint (1.32M parameters)."""
    model = build(IraeConfig(flow_steps=16, levels=2, hidden_width=29, in_channels=3, seed=1))
    path = tmp_path_factory.mktemp("rgb") / "model.ckpt"
    save_checkpoint(randomize_parameters(model, np.random.default_rng(1)), path)
    return path


def test_restore_peak_memory_near_file_size(rgb_checkpoint, tmp_path, capsys):
    """The loaded parameters are held once, and a batch of two 64x64 RGB
    images adds less than half the model: each conv holds one block of
    its window copy."""
    rng = np.random.default_rng(2)
    inputs, out = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    for i in range(2):
        save_pnm(inputs / f"img{i}.ppm", rng.uniform(0.0, 1.0, (3, 64, 64)))
    size = rgb_checkpoint.stat().st_size
    code, peak = peak_of(lambda: main(["restore", "--checkpoint", str(rgb_checkpoint),
                                       "--input", str(inputs), "--output", str(out)]))
    assert code == 0 and "restored 2 images" in capsys.readouterr().out
    assert peak <= 1.5 * size, f"peak {peak / size:.2f}x the file size"


class TestConfigFile:
    def test_literal_file_sets_every_key(self, tmp_path):
        text = (
            "task=jpeg\nflow_steps=3\nlevels=1\nhidden_width=8\nin_channels=3\n"
            "precision=float64\nseed=5\nsigma=12.5\nblind=true\nsigma_lo=1.5\n"
            "sigma_hi=40\nquality_factor=20\nmask_h=8\nmask_w=4\nepochs_max=7\n"
            "batch_size=4\ndataset_dir=x\ncheckpoint=m.ckpt\noutput_dir=runs\n"
        )
        expected = RunConfig(
            task="jpeg", flow_steps=3, levels=1, hidden_width=8, in_channels=3,
            precision="float64", seed=5, sigma=12.5, blind=True, sigma_lo=1.5,
            sigma_hi=40.0, quality_factor=20, mask_h=8, mask_w=4, epochs_max=7,
            batch_size=4, dataset_dir="x", checkpoint="m.ckpt", output_dir="runs",
        )
        keys = [line.partition("=")[0] for line in text.splitlines()]
        assert keys == [f.name for f in fields(RunConfig)]
        for f in fields(RunConfig):
            assert getattr(expected, f.name) != f.default, f.name
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert parse_config_file(path) == expected

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\n\nsigma=15\ntask=denoise\n")
        cfg = parse_config_file(path)
        assert cfg.sigma == 15.0 and cfg.task == "denoise"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("nonsense=1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_file(path)

    def test_repeated_key_names_file_both_lines_and_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("sigma=15\n# later\ntask=jpeg\nsigma = 30\n")
        with pytest.raises(ValueError, match=r"run\.cfg:4: config key 'sigma' repeats line 1"):
            parse_config_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("sigma 15\n")
        with pytest.raises(ValueError, match="key=value"):
            parse_config_file(path)

    def test_bad_value_names_line_and_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("sigma=15\nflow_steps=1.5\n")
        with pytest.raises(ValueError, match=r"run\.cfg:2: config key flow_steps: .*'1\.5'"):
            parse_config_file(path)

    @pytest.mark.parametrize(
        "line, message",
        [("task=bogus", "'bogus' is not one of denoise, jpeg, inpaint"),
         ("precision=float16", "'float16' is not one of float32, float64")],
    )
    def test_choice_outside_its_set_refused_before_any_image(self, tmp_path, capsys, line,
                                                            message):
        """A task or precision outside its choices is refused with the file and
        line, as the flag is by argparse, before the dataset directory is read
        (here it does not exist)."""
        path = tmp_path / "run.cfg"
        path.write_text(f"dataset_dir={tmp_path / 'missing'}\n{line}\n")
        assert main(["train", "--config", str(path)]) == 1
        assert f"run.cfg:2: config key {line.partition('=')[0]}: {message}" in capsys.readouterr().err

    def test_bool_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("blind=true\n")
        assert parse_config_file(path).blind is True
        path.write_text("blind=maybe\n")
        with pytest.raises(ValueError, match="true/false"):
            parse_config_file(path)


class TestDerivedFlags:
    def test_model_fields_share_their_defaults(self):
        run_defaults = {f.name: f.default for f in fields(RunConfig)}
        for f in fields(IraeConfig):
            assert run_defaults[f.name] == f.default, f.name

    @pytest.mark.parametrize("command, config_cls", [("train", RunConfig), ("verify", IraeConfig)])
    def test_every_flag_sets_its_field(self, command, config_cls):
        choices = {"task": "inpaint", "precision": "float64"}
        values, argv = {}, [command]
        for f in fields(config_cls):
            flag = "--" + f.name.replace("_", "-")
            if isinstance(f.default, bool):
                values[f.name] = not f.default
                argv.append(flag)
                continue
            if f.name in choices:
                value = choices[f.name]
            elif isinstance(f.default, str):
                value = "other" + f.default
            else:
                value = f.default + 3
            assert value != f.default
            values[f.name] = value
            argv += [flag, str(value)]
        args = cli._build_parser().parse_args(argv)
        assert cli._apply_overrides(config_cls(), args) == config_cls(**values)


class TestVerifyCommand:
    def test_fresh_model_passes(self, capsys):
        code = main(
            [
                "verify",
                "--flow-steps", "2",
                "--levels", "2",
                "--hidden-width", "8",
                "--trials", "5",
                "--precision", "float64",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "round-trip max error" in out and "PASS" in out

    def test_float32_bound(self, capsys):
        code = main(
            ["verify", "--flow-steps", "2", "--levels", "1", "--hidden-width", "8", "--trials", "5"]
        )
        assert code == 0
        assert "bound 0.0001" in capsys.readouterr().out

    def test_checkpoint_recast_to_float64(self, tmp_path, capsys):
        model = build(IraeConfig(flow_steps=2, levels=1, hidden_width=8, precision="float32"))
        randomize_parameters(model, np.random.default_rng(0))
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(model, ckpt)
        code = main(["verify", "--checkpoint", str(ckpt), "--trials", "3", "--precision", "float64"])
        out = capsys.readouterr().out
        assert code == 0
        assert "float64" in out and "bound 1e-08" in out

    @pytest.mark.parametrize("seed", ["-1", "-2", str(2**64)])
    def test_checkpoint_seed_outside_64_bits_refused(self, tmp_path, capsys, seed):
        """The trials draw from the seed whether or not a checkpoint gives the model."""
        ckpt = tmp_path / "m.ckpt"
        model = build(IraeConfig(flow_steps=1, levels=1, hidden_width=4))
        save_checkpoint(randomize_parameters(model, np.random.default_rng(0)), ckpt)
        assert main(["verify", "--checkpoint", str(ckpt), "--trials", "2", "--seed", seed]) == 1
        captured = capsys.readouterr()
        assert f"invalid config: seed must fit in 64 bits, got {seed}" in captured.err
        assert captured.out == ""

    def test_checkpoint_peak_memory_near_file_size(self, rgb_checkpoint, capsys):
        """The loaded parameters are held once; a batch of 32x32 trials adds
        less than the model."""
        size = rgb_checkpoint.stat().st_size
        code, peak = peak_of(lambda: main(["verify", "--checkpoint", str(rgb_checkpoint),
                                           "--trials", "4", "--size", "32"]))
        assert code == 0 and "PASS" in capsys.readouterr().out
        assert peak <= 1.3 * size, f"peak {peak / size:.2f}x the file size"

    def test_recast_copies_the_parameters_once(self, rgb_checkpoint):
        """A float32 model recast to float64 allocates the float64 parameters
        and no float32 copy of them on the way."""
        model = load_checkpoint(rgb_checkpoint)
        held = sum(p.data.nbytes for p in model.parameters())
        tracemalloc.start()
        try:
            recast = cli._recast_model(model, "float64")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        for a, b in zip(model.parameters(), recast.parameters(), strict=True):
            assert b.data.dtype == np.float64 and np.array_equal(a.data, b.data)
        assert recast.actnorms_initialized
        assert peak <= 2.2 * held, f"peak {peak / held:.2f}x the float32 parameters"

    def test_zero_trials_refused(self, capsys):
        code = main(["verify", "--flow-steps", "1", "--levels", "1", "--hidden-width", "4", "--trials", "0"])
        captured = capsys.readouterr()
        assert code != 0
        assert "PASS" not in captured.out
        assert "--trials" in captured.err

    @pytest.mark.parametrize("size", ["0", "-4"])
    def test_size_below_one_refused(self, size, capsys):
        code = main(
            ["verify", "--flow-steps", "1", "--levels", "1", "--hidden-width", "4", "--size", size]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "PASS" not in captured.out
        assert "--size" in captured.err

    def test_checkpoint_loads_and_verifies_without_random_init(
        self, tmp_path, monkeypatch, capsys
    ):
        model = build(IraeConfig(flow_steps=2, levels=1, hidden_width=4))
        randomize_parameters(model, np.random.default_rng(3))
        ckpt = str(tmp_path / "m.ckpt")
        save_checkpoint(model, ckpt)

        def no_draw(*args, **kwargs):
            pytest.fail("random 1x1 init drawn for a model whose parameters are restored")

        monkeypatch.setattr(layers, "random_orthogonal", no_draw)
        loaded = load_checkpoint(ckpt)
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(a.data, b.data)
        code = main(["verify", "--checkpoint", ckpt, "--trials", "2", "--precision", "float64"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def record_forward_inputs(self, monkeypatch):
        seen = []
        forward = IraeModel.forward

        def recording_forward(model, y):
            seen.append(np.array(y))
            return forward(model, y)

        monkeypatch.setattr(IraeModel, "forward", recording_forward)
        return seen

    def test_trials_run_in_batches_of_the_same_draws(self, monkeypatch, capsys):
        seen = self.record_forward_inputs(monkeypatch)
        code = main(
            ["verify", "--flow-steps", "1", "--levels", "1", "--hidden-width", "2",
             "--trials", "17", "--size", "32", "--seed", "5"]
        )
        assert code == 0
        assert "over 17 trials" in capsys.readouterr().out
        assert [x.shape[0] for x in seen] == [8, 8, 1]
        want = np.random.default_rng(5 + 1).uniform(0.0, 1.0, (17, 1, 32, 32))
        assert np.array_equal(np.concatenate(seen), want)

    def test_nan_in_last_trial_of_last_batch_fails(self, monkeypatch, capsys):
        seen = self.record_forward_inputs(monkeypatch)
        inverse = IraeModel.inverse
        trials = 20

        def nan_in_last_trial(model, xhat):
            out = inverse(model, xhat)
            if sum(x.shape[0] for x in seen) == trials:
                out.data[-1, 0, -1, -1] = np.nan
            return out

        monkeypatch.setattr(IraeModel, "inverse", nan_in_last_trial)
        code = main(
            ["verify", "--flow-steps", "1", "--levels", "1", "--hidden-width", "2",
             "--trials", str(trials), "--size", "32"]
        )
        out = capsys.readouterr().out
        assert [x.shape[0] for x in seen] == [8, 8, 4]
        assert code == 2
        assert "nan" in out and "FAIL" in out

    def test_checkpoint_refuses_model_flags(self, tmp_path, capsys):
        model = build(IraeConfig(flow_steps=1, levels=1, hidden_width=4))
        ckpt = str(tmp_path / "m.ckpt")
        save_checkpoint(randomize_parameters(model, np.random.default_rng(0)), ckpt)
        for flag in ("--flow-steps", "--levels", "--hidden-width", "--in-channels"):
            code = main(["verify", "--checkpoint", ckpt, flag, "1", "--trials", "2"])
            captured = capsys.readouterr()
            assert code == 1, flag
            assert "PASS" not in captured.out
            assert flag in captured.err
        assert main(["verify", "--checkpoint", ckpt, "--trials", "2", "--seed", "3"]) == 0

    def test_nan_round_trip_fails(self, monkeypatch, capsys):
        def nan_inverse(self, xhat):
            return Tensor(np.full(xhat.shape, np.nan, dtype=self.config.dtype))

        monkeypatch.setattr(IraeModel, "inverse", nan_inverse)
        code = main(["verify", "--flow-steps", "1", "--levels", "1", "--hidden-width", "4", "--trials", "2"])
        out = capsys.readouterr().out
        assert code == 2
        assert "nan" in out and "FAIL" in out


# mi-demo's text as the dense joint-table implementation printed it
MI_DEMO_OUTPUT = (
    'information preservation on finite discrete variables (bits)\n'
    '\n'
    'identity on uniform 4 symbols:\n'
    '  injective=True  H(X)=2.000000  I(X;f(X))=2.000000  loss=0.000000  P(x|z)=1 everywhere: True\n'
    'parity (x mod 2) on uniform 4 symbols:\n'
    '  injective=False  H(X)=2.000000  I(X;f(X))=1.000000  loss=1.000000  P(x|z)=1 everywhere: False\n'
    'constant map on uniform 4 symbols:\n'
    '  injective=False  H(X)=2.000000  I(X;f(X))=0.000000  loss=2.000000  P(x|z)=1 everywhere: False\n'
    'permutation on uniform 8 symbols:\n'
    '  injective=True  H(X)=3.000000  I(X;f(X))=3.000000  loss=0.000000  P(x|z)=1 everywhere: True\n'
    '\n'
    'exhaustive sweep of all 256 maps on 4 symbols: 24 injective preserve all 2 bits '
    '(max deviation 0.00e+00); every non-injective map loses information: CONFIRMED\n'
)


class TestMiDemoCommand:
    def test_runs_and_confirms(self, capsys):
        assert main(["mi-demo"]) == 0
        assert capsys.readouterr().out == MI_DEMO_OUTPUT


class TestErrorHandling:
    def test_missing_dataset_dir_fails_loudly(self, capsys):
        code = main(["train", "--dataset-dir", "/nonexistent/place", "--epochs-max", "1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_restore_zero_jobs_refused(self, tmp_path, capsys):
        model = build(IraeConfig(flow_steps=1, levels=1, hidden_width=4))
        randomize_parameters(model, np.random.default_rng(13))
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(model, ckpt)
        inputs, out = tmp_path / "inputs", tmp_path / "out"
        write_dataset(inputs, smooth_patches(2, 8, np.random.default_rng(14)))
        args = ["restore", "--checkpoint", str(ckpt), "--input", str(inputs), "--output", str(out)]
        assert main(args + ["--jobs", "0"]) == 1
        assert "restore: --jobs must be at least 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_zero_jobs_refused(self, tmp_path, capsys):
        d = tmp_path / "imgs"
        write_dataset(d, smooth_patches(2, 16, np.random.default_rng(15)))
        assert main(["eval", "--restored", str(d), "--reference", str(d), "--jobs", "0"]) == 1
        captured = capsys.readouterr()
        assert "eval: --jobs must be at least 1, got 0" in captured.err
        assert captured.out == ""

    def test_infinite_blind_sigma_refused(self, tmp_path, capsys):
        data = tmp_path / "data"
        write_dataset(data, smooth_patches(4, 8, np.random.default_rng(16)))
        ckpt = tmp_path / "model.ckpt"
        code = main(
            ["train", "--dataset-dir", str(data), "--blind", "--sigma-hi", "inf",
             "--epochs-max", "1", "--checkpoint", str(ckpt), "--output-dir", str(tmp_path)]
        )
        assert code == 1
        assert "sigma_range" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--batch-size", "0"], "batch_size must be at least 1, got 0"),
            (["--batch-size", "-2"], "batch_size must be at least 1, got -2"),
            (["--epochs-max", "0"], "epochs_max must be at least 1, got 0"),
        ],
        ids=["batch_size=0", "batch_size=-2", "epochs_max=0"],
    )
    def test_train_batch_size_and_epochs_below_one_refused(self, tmp_path, capsys, flags, message):
        data = tmp_path / "data"
        write_dataset(data, smooth_patches(4, 8, np.random.default_rng(17)))
        ckpt = tmp_path / "model.ckpt"
        code = main(
            ["train", "--dataset-dir", str(data), "--flow-steps", "1", "--levels", "1",
             "--hidden-width", "4", "--epochs-max", "1", "--checkpoint", str(ckpt),
             "--output-dir", str(tmp_path / "out")] + flags
        )
        assert code == 1
        assert message in capsys.readouterr().err
        assert not ckpt.exists()
        assert not (tmp_path / "out").exists()

    def test_train_inpaint_mask_side_below_one_refused(self, tmp_path, capsys):
        data = tmp_path / "data"
        write_dataset(data, smooth_patches(4, 16, np.random.default_rng(17)))
        ckpt, out = tmp_path / "ckpt" / "m.ckpt", tmp_path / "out"
        code = main(
            ["train", "--dataset-dir", str(data), "--task", "inpaint", "--mask-h", "0",
             "--mask-w", "4", "--flow-steps", "1", "--levels", "1", "--hidden-width", "4",
             "--epochs-max", "1", "--checkpoint", str(ckpt), "--output-dir", str(out)]
        )
        assert code == 1
        assert "mask size must be positive, got 0x4" in capsys.readouterr().err
        assert not ckpt.parent.exists()
        assert not out.exists()

    def test_train_makes_its_directories_before_training(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "data"
        write_dataset(data, smooth_patches(4, 8, np.random.default_rng(17)))
        ckpt, out = tmp_path / "missing" / "dir" / "m.ckpt", tmp_path / "runs"
        real_train = cli.train

        def train_in_existing_dirs(*args, **kwargs):
            assert ckpt.parent.is_dir() and out.is_dir()
            return real_train(*args, **kwargs)

        monkeypatch.setattr(cli, "train", train_in_existing_dirs)
        code = main(
            ["train", "--dataset-dir", str(data), "--flow-steps", "1", "--levels", "1",
             "--hidden-width", "4", "--epochs-max", "1", "--checkpoint", str(ckpt),
             "--output-dir", str(out)]
        )
        assert code == 0, capsys.readouterr().err
        assert load_checkpoint(str(ckpt)).actnorms_initialized
        assert (out / "history.log").read_text().count("\n") == 1

    def test_eval_set_mismatch(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        write_dataset(a, smooth_patches(2, 16, np.random.default_rng(0)))
        write_dataset(b, smooth_patches(3, 16, np.random.default_rng(1)))
        code = main(["eval", "--restored", str(a), "--reference", str(b)])
        assert code == 1
        assert "image sets differ" in capsys.readouterr().err

    def test_eval_shape_mismatch_names_image(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        write_dataset(a, smooth_patches(1, 32, np.random.default_rng(0)))
        write_dataset(b, smooth_patches(1, 16, np.random.default_rng(1)))
        code = main(["eval", "--restored", str(a), "--reference", str(b)])
        captured = capsys.readouterr()
        assert code == 1
        assert "error: img000.pgm: " in captured.err
        assert "(1, 32, 32)" in captured.err and "(1, 16, 16)" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "odd_name, odd_image, message",
        [
            ("c.pgm", np.full((1, 30, 30), 0.5), "H and W must be divisible by 4, got 30x30"),
            ("c.ppm", np.full((3, 32, 32), 0.5), "model expects 1 channels, got 3"),
        ],
        ids=["30x30", "rgb"],
    )
    def test_restore_refuses_bad_input_before_writing(self, tmp_path, capsys, odd_name, odd_image, message):
        model = build(IraeConfig(flow_steps=1, levels=2, hidden_width=4))
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(randomize_parameters(model, np.random.default_rng(20)), ckpt)
        inputs, out = tmp_path / "inputs", tmp_path / "out"
        inputs.mkdir()
        good = smooth_patches(2, 32, np.random.default_rng(21))
        save_pnm(inputs / "a.pgm", good[0])
        save_pnm(inputs / "b.pgm", good[1])
        save_pnm(inputs / odd_name, odd_image)
        args = ["restore", "--checkpoint", str(ckpt), "--input", str(inputs), "--output", str(out)]
        code = main(args)
        captured = capsys.readouterr()
        assert code == 1
        assert f"error: {inputs / odd_name}: {message}" in captured.err
        assert captured.out == ""
        assert not out.exists()


def refuse_actnorm_init(monkeypatch):
    def no_init(self, x):
        pytest.fail("ActNorm initialized during inference")

    monkeypatch.setattr(layers.ActNorm, "initialize", no_init)


class TestInferenceNeverInitializes:
    """restore and verify run a model as stored: a checkpoint whose ActNorms
    were never initialized is refused, and no ActNorm is initialized."""

    @pytest.fixture
    def untrained(self, tmp_path):
        ckpt = tmp_path / "untrained.ckpt"
        save_checkpoint(build(IraeConfig(flow_steps=1, levels=1, hidden_width=4)), ckpt)
        return str(ckpt)

    def test_restore_refuses_untrained_checkpoint(self, tmp_path, untrained, monkeypatch, capsys):
        refuse_actnorm_init(monkeypatch)
        inputs, out = tmp_path / "inputs", tmp_path / "out"
        write_dataset(inputs, smooth_patches(3, 8, np.random.default_rng(17)))
        code = main(["restore", "--checkpoint", untrained, "--input", str(inputs), "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert untrained in captured.err and "uninitialized" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("precision", [[], ["--precision", "float64"]])
    def test_verify_refuses_untrained_checkpoint(self, untrained, precision, monkeypatch, capsys):
        refuse_actnorm_init(monkeypatch)
        code = main(["verify", "--checkpoint", untrained, "--trials", "2"] + precision)
        captured = capsys.readouterr()
        assert code == 1
        assert untrained in captured.err and "uninitialized" in captured.err
        assert "PASS" not in captured.out

    def test_fresh_model_and_trained_checkpoint_run_without_init(self, tmp_path, monkeypatch, capsys):
        refuse_actnorm_init(monkeypatch)
        # randomize_parameters marks a fresh model's ActNorms initialized
        assert main(["verify", "--flow-steps", "1", "--levels", "1", "--hidden-width", "4", "--trials", "2"]) == 0
        assert "PASS" in capsys.readouterr().out
        model = build(IraeConfig(flow_steps=1, levels=1, hidden_width=4))
        ckpt = str(tmp_path / "model.ckpt")
        save_checkpoint(randomize_parameters(model, np.random.default_rng(18)), ckpt)
        assert main(["verify", "--checkpoint", ckpt, "--trials", "2"]) == 0
        assert "PASS" in capsys.readouterr().out
        inputs, out = tmp_path / "inputs", tmp_path / "out"
        write_dataset(inputs, smooth_patches(3, 8, np.random.default_rng(19)))
        assert main(["restore", "--checkpoint", ckpt, "--input", str(inputs), "--output", str(out)]) == 0
        assert sorted(f.name for f in out.iterdir()) == ["img000.pgm", "img001.pgm", "img002.pgm"]


class TestEvalCommand:
    def test_self_eval_hits_caps(self, tmp_path, capsys):
        imgs = smooth_patches(3, 16, np.random.default_rng(2))
        d = tmp_path / "imgs"
        write_dataset(d, imgs)
        code = main(["eval", "--restored", str(d), "--reference", str(d)])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "image\tpsnr_db\tssim"
        for line in lines[1:]:
            name, p, s = line.split("\t")
            assert float(p) == 100.0
            assert float(s) == 1.0

    def test_jobs_flag_matches_serial(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        ref = smooth_patches(4, 16, rng)
        noisy = [np.clip(x + 0.05 * rng.standard_normal(x.shape), 0, 1) for x in ref]
        dref, dnoisy = tmp_path / "ref", tmp_path / "noisy"
        write_dataset(dref, ref)
        write_dataset(dnoisy, noisy)
        assert main(["eval", "--restored", str(dnoisy), "--reference", str(dref)]) == 0
        serial = capsys.readouterr().out
        assert main(
            ["eval", "--restored", str(dnoisy), "--reference", str(dref), "--jobs", "2"]
        ) == 0
        assert capsys.readouterr().out == serial

    @staticmethod
    def noisy_pair(tmp_path, n, seed):
        """Reference and noisy directories of n images, noisier by index."""
        rng = np.random.default_rng(seed)
        ref = smooth_patches(n, 16, rng)
        noisy = [np.clip(x + 0.04 * (i + 1) * rng.standard_normal(x.shape), 0, 1)
                 for i, x in enumerate(ref)]
        dref, dnoisy = tmp_path / "ref", tmp_path / "noisy"
        write_dataset(dref, ref)
        write_dataset(dnoisy, noisy)
        return dref, dnoisy

    def test_mean_row_is_mean_of_image_rows(self, tmp_path, capsys):
        dref, dnoisy = self.noisy_pair(tmp_path, 3, 4)
        assert main(["eval", "--restored", str(dnoisy), "--reference", str(dref)]) == 0
        *rows, mean = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len({row[1] for row in rows}) == 3  # three distinct images
        names = [row[0] for row in rows]
        scores = [(psnr(a, b), ssim(a, b))
                  for a, b in ((load_pnm(dnoisy / n), load_pnm(dref / n)) for n in names)]
        assert mean[0] == "mean"
        for col in (1, 2):
            column = [score[col - 1] for score in scores]
            assert mean[col] == f"{np.mean(column):.4f}"
            # the mean row and each image row are rounded by at most 5e-5
            assert abs(float(mean[col]) - np.mean([float(r[col]) for r in rows])) < 1.01e-4

    def test_table_layout(self, tmp_path, capsys):
        dref, dnoisy = self.noisy_pair(tmp_path, 2, 5)
        table = tmp_path / "table.tsv"
        args = ["eval", "--restored", str(dnoisy), "--reference", str(dref)]
        assert main(args + ["--output", str(table)]) == 0
        out = capsys.readouterr().out
        assert table.read_text() == out
        header, *rows = out.splitlines()
        assert header == "image\tpsnr_db\tssim"
        assert [row.split("\t")[0] for row in rows] == ["img000.pgm", "img001.pgm", "mean"]
        for row in rows:
            name, p, s = row.split("\t")
            assert row == f"{name}\t{float(p):.4f}\t{float(s):.4f}"


class TestTrainRestorePipeline:
    def test_denoise_train_then_eval_improves_psnr(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        train_dir = tmp_path / "train"
        write_dataset(train_dir, smooth_patches(48, 16, rng))
        ckpt = tmp_path / "model.ckpt"
        out_dir = tmp_path / "out"
        code = main(
            [
                "train",
                "--task", "denoise",
                "--sigma", "25",
                "--flow-steps", "2",
                "--levels", "2",
                "--hidden-width", "8",
                "--epochs-max", "35",
                "--batch-size", "8",
                "--seed", "5",
                "--dataset-dir", str(train_dir),
                "--checkpoint", str(ckpt),
                "--output-dir", str(out_dir),
            ]
        )
        assert code == 0
        assert ckpt.exists()
        history = (out_dir / "history.log").read_text().strip().splitlines()
        assert len(history) == 35
        capsys.readouterr()

        # degrade a held-out set, restore it via the CLI, then eval both
        test_imgs = smooth_patches(12, 16, np.random.default_rng(6))
        noise_rng = np.random.default_rng(7)
        clean_dir, noisy_dir, restored_dir = (
            tmp_path / "clean",
            tmp_path / "noisy",
            tmp_path / "restored",
        )
        write_dataset(clean_dir, test_imgs)
        write_dataset(
            noisy_dir,
            [np.clip(x + (25 / 255) * noise_rng.standard_normal(x.shape), 0, 1) for x in test_imgs],
        )
        assert main(
            ["restore", "--checkpoint", str(ckpt), "--input", str(noisy_dir), "--output", str(restored_dir)]
        ) == 0
        capsys.readouterr()

        def mean_psnr(candidate_dir):
            assert main(
                ["eval", "--restored", str(candidate_dir), "--reference", str(clean_dir)]
            ) == 0
            table = capsys.readouterr().out.strip().splitlines()
            return float(table[-1].split("\t")[1])

        noisy_psnr = mean_psnr(noisy_dir)
        restored_psnr = mean_psnr(restored_dir)
        assert restored_psnr > noisy_psnr

    def test_restore_jobs_bitwise_identical(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        train_dir = tmp_path / "train"
        write_dataset(train_dir, smooth_patches(24, 16, rng))
        ckpt = tmp_path / "model.ckpt"
        assert main(
            [
                "train",
                "--flow-steps", "1", "--levels", "1", "--hidden-width", "4",
                "--epochs-max", "2", "--batch-size", "8", "--seed", "9",
                "--dataset-dir", str(train_dir),
                "--checkpoint", str(ckpt),
                "--output-dir", str(tmp_path / "out"),
            ]
        ) == 0
        inputs = tmp_path / "inputs"
        write_dataset(inputs, smooth_patches(6, 16, np.random.default_rng(10)))
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(["restore", "--checkpoint", str(ckpt), "--input", str(inputs), "--output", str(serial)]) == 0
        assert main(
            ["restore", "--checkpoint", str(ckpt), "--input", str(inputs), "--output", str(parallel), "--jobs", "2"]
        ) == 0
        capsys.readouterr()
        for f in sorted(serial.iterdir()):
            assert f.read_bytes() == (parallel / f.name).read_bytes()

    def test_restore_jobs_switches_grad_mode_once(self, tmp_path, monkeypatch, capsys):
        """Worker A finishes its batch while worker B is still inside forward:
        each worker switches off its own grad mode, so B still runs without a
        tape, and the main thread's grad mode stays on."""
        model = build(IraeConfig(flow_steps=1, levels=1, hidden_width=4))
        randomize_parameters(model, np.random.default_rng(11))
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(model, ckpt)
        inputs = tmp_path / "inputs"
        # two shapes, so two batches and two workers
        rng = np.random.default_rng(12)
        write_dataset(inputs, smooth_patches(1, 8, rng) + smooth_patches(1, 16, rng))

        both_in_forward = threading.Barrier(2, timeout=30)
        first_saved = threading.Event()
        grad_mode_in_forward = []
        forward, save_pnm = IraeModel.forward, cli.save_pnm

        def racing_forward(self, y):
            if both_in_forward.wait() != 0:
                assert first_saved.wait(timeout=30)
            grad_mode_in_forward.append(bool(autodiff._grad_enabled))
            return forward(self, y)

        def signalling_save(path, img):
            save_pnm(path, img)
            first_saved.set()

        monkeypatch.setattr(IraeModel, "forward", racing_forward)
        monkeypatch.setattr(cli, "save_pnm", signalling_save)
        args = ["restore", "--checkpoint", str(ckpt), "--input", str(inputs)]
        assert main(args + ["--output", str(tmp_path / "out"), "--jobs", "2"]) == 0
        assert grad_mode_in_forward == [False, False]
        assert bool(autodiff._grad_enabled)

    def test_restore_batches_mixed_shapes(self, tmp_path, monkeypatch, capsys):
        model = build(IraeConfig(flow_steps=1, levels=2, hidden_width=4))
        randomize_parameters(model, np.random.default_rng(13))
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(model, ckpt)
        rng = np.random.default_rng(14)
        images = smooth_patches(2, 16, rng) + smooth_patches(1, 32, rng) + smooth_patches(2, 16, rng)
        inputs = tmp_path / "inputs"
        write_dataset(inputs, images)
        seen = []
        forward = IraeModel.forward

        def recording_forward(self, y):
            seen.append(np.shape(y))
            return forward(self, y)

        monkeypatch.setattr(IraeModel, "forward", recording_forward)
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        args = ["restore", "--checkpoint", str(ckpt), "--input", str(inputs)]
        assert main(args + ["--output", str(serial)]) == 0
        assert seen == [(2, 1, 16, 16), (1, 1, 32, 32), (2, 1, 16, 16)]
        assert main(args + ["--output", str(parallel), "--jobs", "2"]) == 0
        assert "restored 5 images" in capsys.readouterr().out
        with autodiff.no_grad():
            for i, img in enumerate(images):
                name = f"img{i:03d}.pgm"
                want = np.clip(forward(model, load_pnm(inputs / name)[None]).data[0], 0, 1)
                assert np.max(np.abs(load_pnm(serial / name) - want)) <= 1 / 255 + 1e-9
                assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    def test_restore_refuses_non_finite_output(self, tmp_path, monkeypatch, capsys):
        model = build(IraeConfig(flow_steps=1, levels=1, hidden_width=4))
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(randomize_parameters(model, np.random.default_rng(15)), ckpt)
        inputs = tmp_path / "inputs"
        write_dataset(inputs, smooth_patches(1, 8, np.random.default_rng(16)))

        def nan_forward(self, y):
            return Tensor(np.full(np.shape(y), np.nan, dtype=self.config.dtype))

        monkeypatch.setattr(IraeModel, "forward", nan_forward)
        code = main(["restore", "--checkpoint", str(ckpt), "--input", str(inputs),
                     "--output", str(tmp_path / "out")])
        assert code == 1
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "img000.pgm").exists()
