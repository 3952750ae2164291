"""CLI behavior: config round trips, subcommands, end-to-end pipeline."""

import threading
from dataclasses import fields

import numpy as np
import pytest

import irae.autodiff as autodiff
import irae.cli as cli
from irae.autodiff import Tensor
from irae.cli import RunConfig, main, parse_config_file
from irae.model import IraeConfig, IraeModel, build, randomize_parameters, save_checkpoint
from irae.pnm import load_pnm, save_pnm
from synthimages import smooth_patches


def write_dataset(directory, images):
    directory.mkdir(parents=True, exist_ok=True)
    for i, img in enumerate(images):
        save_pnm(directory / f"img{i:03d}.pgm", img)


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


    def test_zero_trials_refused(self, capsys):
        code = main(["verify", "--flow-steps", "1", "--levels", "1", "--hidden-width", "4", "--trials", "0"])
        captured = capsys.readouterr()
        assert code != 0
        assert "PASS" not in captured.out
        assert "--trials" in captured.err

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

class TestMiDemoCommand:
    def test_runs_and_confirms(self, capsys):
        assert main(["mi-demo"]) == 0
        out = capsys.readouterr().out
        assert "CONFIRMED" in out
        assert "loss=1.000000" in out  # parity map loses exactly one bit


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

    def test_eval_set_mismatch(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        write_dataset(a, smooth_patches(2, 16, np.random.default_rng(0)))
        write_dataset(b, smooth_patches(3, 16, np.random.default_rng(1)))
        code = main(["eval", "--restored", str(a), "--reference", str(b)])
        assert code == 1
        assert "image sets differ" in capsys.readouterr().err


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
        """Worker A finishes its image while worker B is still inside forward:
        B must still run without a tape, and grad mode must be back on after."""
        model = build(IraeConfig(flow_steps=1, levels=1, hidden_width=4))
        randomize_parameters(model, np.random.default_rng(11))
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(model, ckpt)
        inputs = tmp_path / "inputs"
        write_dataset(inputs, smooth_patches(2, 8, np.random.default_rng(12)))

        both_in_forward = threading.Barrier(2, timeout=30)
        first_saved = threading.Event()
        grad_mode_in_forward = []
        forward, save_pnm = IraeModel.forward, cli.save_pnm

        def racing_forward(self, y):
            if both_in_forward.wait() != 0:
                assert first_saved.wait(timeout=30)
            grad_mode_in_forward.append(autodiff._grad_enabled)
            return forward(self, y)

        def signalling_save(path, img):
            save_pnm(path, img)
            first_saved.set()

        monkeypatch.setattr(autodiff, "_grad_enabled", True)
        monkeypatch.setattr(IraeModel, "forward", racing_forward)
        monkeypatch.setattr(cli, "save_pnm", signalling_save)
        args = ["restore", "--checkpoint", str(ckpt), "--input", str(inputs)]
        assert main(args + ["--output", str(tmp_path / "out"), "--jobs", "2"]) == 0
        assert grad_mode_in_forward == [False, False]
        assert autodiff._grad_enabled
