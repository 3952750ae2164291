"""Acceptance suite: every shipping criterion at its stated tolerance.

Each test prints one pass/fail line (visible with `pytest -s` or on
failure).  Full-scale published results are documented reference values
only; these checks are property-based and desk-scale trend checks.
"""

import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from irae.autodiff import Tensor, backward, finite_diff_grad, no_grad, sum_all, tanh
from irae.degrade import (
    DegradationSpec,
    apply_awgn,
    apply_blind_awgn,
    apply_inpaint,
    apply_jpeg_sim,
    make_inpaint_mask,
)
from irae.infotheory import entropy, iter_all_maps, information_preservation_check
from irae.layers import ActNorm, AffineCoupling, InvertibleConv1x1, squeeze, unsqueeze
from irae.metrics import psnr, ssim
from irae.model import (
    IraeConfig,
    build,
    param_count_formula,
    randomize_parameters,
)
from irae.train import LrSchedule, l1_loss, run_schedule, train
from irae.cli import main as cli_main
from irae.pnm import save_pnm
from synthimages import smooth_patches

REFERENCE_PARAM_COUNT = 1.33e6


def report(criterion, ok, detail):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def fd_check(f, leaf, rtol=1e-4, step=1e-5):
    leaf.grad = None
    backward(f(leaf))
    ad = leaf.grad
    fd = finite_diff_grad(f, leaf, step)
    rel = np.abs(ad - fd) / (np.abs(fd) + 1e-8)
    leaf.grad = None
    return float(rel.max()) < rtol


class TestCriterion1Invertibility:
    def test_round_trip_suite(self):
        t0 = time.time()
        bounds = {"float32": 1e-4, "float64": 1e-8}
        worst_by_case = {}
        for flow_steps, levels in ((1, 1), (4, 2), (16, 2)):
            for precision, bound in bounds.items():
                cfg = IraeConfig(
                    flow_steps=flow_steps,
                    levels=levels,
                    hidden_width=24,
                    in_channels=1,
                    precision=precision,
                    seed=0,
                )
                model = build(cfg)
                rng = np.random.default_rng(1000 + flow_steps + levels)
                worst = 0.0
                for _ in range(50):
                    randomize_parameters(model, rng)
                    x = rng.uniform(0.0, 1.0, (1, 1, 16, 16))
                    with no_grad():
                        out = model.forward(x)
                    back = model.inverse(out)
                    worst = max(worst, float(np.max(np.abs(back.data - x.astype(cfg.dtype)))))
                worst_by_case[(flow_steps, levels, precision)] = worst
                assert worst < bound, (
                    f"(K={flow_steps},L={levels}) {precision}: {worst:.3e} >= {bound:g}"
                )
        elapsed = time.time() - t0
        detail = (
            "; ".join(
                f"(K={k},L={l}) {p}: {err:.2e}" for (k, l, p), err in worst_by_case.items()
            )
            + f"; runtime {elapsed:.1f}s"
        )
        report(1, elapsed < 120.0, detail)


class TestCriterion2Gradients:
    def test_every_layer_and_end_to_end(self):
        rng = np.random.default_rng(2)
        results = {}

        norm = ActNorm(3, dtype=np.float64)
        norm.scale.data[...] = rng.uniform(0.5, 1.5, 3)
        norm.bias.data[...] = rng.standard_normal(3)
        norm.initialized = True
        x = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
        f = lambda _: sum_all(tanh(norm.forward(x)))
        results["actnorm"] = all(fd_check(f, leaf) for leaf in (x, norm.scale, norm.bias))

        mix = InvertibleConv1x1(4, rng=rng, dtype=np.float64)
        x = Tensor(rng.standard_normal((1, 4, 4, 4)), requires_grad=True)
        f = lambda _: sum_all(tanh(mix.forward(x)))
        results["conv1x1"] = all(fd_check(f, leaf) for leaf in (x, mix.weight))

        coupling = AffineCoupling(4, 3, rng=rng, dtype=np.float64)
        for p in coupling.parameters():
            p.data[...] = 0.2 * rng.standard_normal(p.shape)
        x = Tensor(rng.standard_normal((1, 4, 2, 2)), requires_grad=True)
        f = lambda _: sum_all(tanh(coupling.forward(x)))
        results["coupling"] = all(fd_check(f, leaf) for leaf in [x] + coupling.parameters())

        x = Tensor(rng.standard_normal((1, 2, 4, 4)), requires_grad=True)
        results["squeeze"] = fd_check(lambda t: sum_all(tanh(squeeze(t))), x)
        y = Tensor(rng.standard_normal((1, 4, 2, 2)), requires_grad=True)
        results["unsqueeze"] = fd_check(lambda t: sum_all(tanh(unsqueeze(t))), y)

        model = build(
            IraeConfig(flow_steps=1, levels=1, hidden_width=4, precision="float64", seed=3)
        )
        randomize_parameters(model, np.random.default_rng(4))
        y_in = Tensor(rng.uniform(0.1, 0.9, (1, 1, 4, 4)), requires_grad=True)
        target = Tensor(rng.uniform(0.1, 0.9, (1, 1, 4, 4)))
        f = lambda _: l1_loss(model.forward(y_in), target)
        end_to_end = all(fd_check(f, leaf) for leaf in [y_in] + model.parameters())
        results["model(K=1,L=1)"] = end_to_end

        ok = all(results.values())
        report(2, ok, ", ".join(f"{k}={'ok' if v else 'BAD'}" for k, v in results.items()))


class TestCriterion3DenoisingTrend:
    def test_desk_scale_gain_over_noisy(self):
        t0 = time.time()
        rng = np.random.default_rng(42)
        train_imgs = smooth_patches(200, 16, rng)
        model = build(
            IraeConfig(flow_steps=4, levels=2, hidden_width=32, in_channels=1, seed=0)
        )
        spec = DegradationSpec(kind="awgn", sigma=25.0)
        model, history = train(model, train_imgs, spec, epochs_max=30, batch_size=16, seed=1)
        assert len(history) <= 50

        test_imgs = smooth_patches(40, 16, np.random.default_rng(777))
        noise_rng = np.random.default_rng(778)
        noisy = [apply_awgn(x, 25.0, noise_rng) for x in test_imgs]
        noisy_psnr = float(
            np.mean([psnr(np.clip(y, 0, 1), x) for x, y in zip(test_imgs, noisy)])
        )
        with no_grad():
            restored = model.forward(np.stack(noisy)).data
        restored_psnr = float(
            np.mean([psnr(np.clip(r, 0, 1), x) for x, r in zip(test_imgs, restored)])
        )
        elapsed = time.time() - t0
        gain = restored_psnr - noisy_psnr
        ok = gain >= 3.0 and elapsed < 900.0
        report(
            3,
            ok,
            f"noisy {noisy_psnr:.2f} dB -> restored {restored_psnr:.2f} dB "
            f"(gain {gain:.2f} dB >= 3); runtime {elapsed:.0f}s < 900s",
        )


class TestCriterion4BlindDenoising:
    def test_blind_path_end_to_end(self):
        rng = np.random.default_rng(40)
        imgs = smooth_patches(100, 16, rng)
        model = build(IraeConfig(flow_steps=2, levels=2, hidden_width=16, seed=41))
        spec = DegradationSpec(kind="blind_awgn", sigma_range=(0.0, 55.0))
        model, _ = train(model, imgs, spec, epochs_max=25, batch_size=8, seed=42)

        test_imgs = smooth_patches(30, 16, np.random.default_rng(43))
        noise_rng = np.random.default_rng(44)
        noisy = [apply_blind_awgn(x, (0.0, 55.0), noise_rng)[0] for x in test_imgs]
        noisy_psnr = float(
            np.mean([psnr(np.clip(y, 0, 1), x) for x, y in zip(test_imgs, noisy)])
        )
        with no_grad():
            restored = model.forward(np.stack(noisy)).data
        restored_psnr = float(
            np.mean([psnr(np.clip(r, 0, 1), x) for x, r in zip(test_imgs, restored)])
        )
        ok = restored_psnr > noisy_psnr
        report(
            4,
            ok,
            f"sigma ~ U[0,55]: noisy {noisy_psnr:.2f} dB -> restored {restored_psnr:.2f} dB",
        )


def criterion5_restored_psnr(build_seed, train_seed, qf):
    """Criterion 5's job for one seed pair and QF, on a worker process: train a
    model on JPEG QF qf and return its mean PSNR on the held-out patches.  Each
    worker makes its own data; numpy warnings fail the job, as under pytest."""
    train_imgs = smooth_patches(120, 16, np.random.default_rng(10))
    test_imgs = smooth_patches(40, 16, np.random.default_rng(3))
    degraded = np.stack([apply_jpeg_sim(x, qf) for x in test_imgs])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = build(IraeConfig(flow_steps=2, levels=2, hidden_width=16, seed=build_seed))
        spec = DegradationSpec(kind="jpeg", quality_factor=qf)
        model, _ = train(model, train_imgs, spec, epochs_max=20, batch_size=4, seed=train_seed)
        with no_grad():
            return jpeg_mean_psnr(test_imgs, model.forward(degraded).data)


def jpeg_mean_psnr(test_imgs, images):
    return float(np.mean([psnr(np.clip(y, 0, 1), x) for x, y in zip(test_imgs, images)]))


class TestCriterion5JpegMonotonicity:
    def test_psnr_nondecreasing_in_quality(self, monkeypatch):
        """Batches of 4 give 540 Adam steps per model.  With batches of 16
        (140 steps) every model restored worse than its degraded inputs,
        and QF 30 -> 40 moved by a mean 0.1 dB across 16 seed pairs, so 8 of
        them failed; at 540 steps it gains a mean 0.6 dB and 14 of 16 pass.
        One pair's curve also moves with the float32 summation order, so the
        claim is made on the mean over three (build, train) seed pairs,
        fixed before any was run: by the spread of single pairs (0.45 dB)
        about 1 correct numerics change in 100 flips the mean.

        The twelve trainings are independent and Python-bound, so they run on
        worker processes, one per usable CPU, each with one BLAS thread, and
        are gathered in job order (the thread count moves no bit).  The workers
        are spawned: forking a process whose BLAS threads are running warns,
        and the warning filter turns that into a failure."""
        quality_factors = (10, 20, 30, 40)
        seed_pairs = ((5, 6), (7, 8), (9, 10))
        test_imgs = smooth_patches(40, 16, np.random.default_rng(3))
        degraded_means = [
            jpeg_mean_psnr(test_imgs, [apply_jpeg_sim(x, qf) for x in test_imgs])
            for qf in quality_factors
        ]
        jobs = [(bs, ts, qf) for bs, ts in seed_pairs for qf in quality_factors]
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.setenv(var, "1")  # read by each worker's numpy as it loads
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(min(len(jobs), cpus), mp_context=context) as pool:
            psnrs = list(pool.map(criterion5_restored_psnr, *zip(*jobs)))
        n_qf = len(quality_factors)
        restored_rows = [psnrs[i : i + n_qf] for i in range(0, len(psnrs), n_qf)]
        restored_means = np.mean(restored_rows, axis=0).tolist()
        deg_ok = all(a <= b for a, b in zip(degraded_means, degraded_means[1:]))
        res_ok = all(a <= b for a, b in zip(restored_means, restored_means[1:]))
        fmt = lambda xs: "/".join(f"{v:.2f}" for v in xs)
        pairs = "; ".join(
            f"seeds {bs},{ts} {fmt(row)}" for (bs, ts), row in zip(seed_pairs, restored_rows)
        )
        report(
            5,
            deg_ok and res_ok,
            f"QF 10/20/30/40: degraded {fmt(degraded_means)} dB, "
            f"restored mean {fmt(restored_means)} dB ({pairs}), both nondecreasing",
        )


class TestCriterion6InpaintingGeometry:
    def test_mask_fraction_and_restoration(self):
        rng = np.random.default_rng(20)
        fractions_ok = True
        for image_size, mask_size in (((256, 256), (128, 128)), ((32, 32), (16, 16))):
            for _ in range(10):
                mask = make_inpaint_mask(image_size, mask_size, rng)
                fractions_ok = fractions_ok and mask.mean() == 0.25

        train_imgs = smooth_patches(80, 32, np.random.default_rng(21), grid=6)
        model = build(IraeConfig(flow_steps=2, levels=2, hidden_width=16, seed=9))
        spec = DegradationSpec(kind="inpaint", mask_size=(16, 16), image_size=(32, 32))
        model, _ = train(model, train_imgs, spec, epochs_max=12, batch_size=16, seed=11)

        test_imgs = smooth_patches(20, 32, np.random.default_rng(30), grid=6)
        mask_rng = np.random.default_rng(31)
        baseline_l1, restored_l1 = [], []
        for x in test_imgs:
            mask = make_inpaint_mask((32, 32), (16, 16), mask_rng)
            y = apply_inpaint(x, mask)
            with no_grad():
                r = np.clip(model.forward(y[None]).data[0], 0, 1)
            hole = mask.astype(bool)
            baseline_l1.append(np.abs(x[0][hole]).sum())  # zero-fill baseline
            restored_l1.append(np.abs(x[0][hole] - r[0][hole]).sum())
        base, rest = float(np.mean(baseline_l1)), float(np.mean(restored_l1))
        ok = fractions_ok and rest < base
        report(
            6,
            ok,
            f"mask fraction exactly 0.25 at 256/128 and 32/16; "
            f"masked-region L1 restored {rest:.1f} < zero-fill {base:.1f}",
        )


class TestCriterion7InformationPreservation:
    def test_exhaustive_maps_on_four_symbols(self):
        t0 = time.time()
        px = np.full(4, 0.25)
        h_x = entropy(px)
        assert h_x == pytest.approx(2.0, abs=1e-15)
        checked = violations = 0
        for labels in iter_all_maps(4, 4):
            r = information_preservation_check(px, labels)
            checked += 1
            if r.injective:
                if abs(r.mutual_info - 2.0) > 1e-12 or not r.conditional_certain:
                    violations += 1
            else:
                if not (r.info_loss > 1e-12) or r.conditional_certain:
                    violations += 1
        elapsed = time.time() - t0
        ok = checked == 256 and violations == 0 and elapsed < 1.0
        report(
            7,
            ok,
            f"all {checked} deterministic maps on |X|=4: MI = H(X) = 2 bits iff "
            f"injective, exact to 1e-12; runtime {elapsed:.3f}s < 1s",
        )


class TestCriterion8MetricGoldens:
    def test_metric_and_schedule_goldens(self):
        x = np.zeros((1, 10, 10))
        psnr_ok = psnr(np.full_like(x, 0.1), x) == pytest.approx(20.0, abs=1e-12)

        img = np.random.default_rng(8).uniform(0, 1, (16, 16))
        ssim_ok = abs(ssim(img, img) - 1.0) <= 1e-9

        sched = LrSchedule()
        lrs = {}
        stopped_at = None
        for epoch in range(1, 120):
            lr, stop = run_schedule(epoch, 100.0 if epoch == 1 else 0.0, sched)
            lrs[epoch] = lr
            if stop:
                stopped_at = epoch
                break
        chain_ok = (
            lrs[50] == 1e-3
            and lrs[51] == 2e-4
            and lrs[61] == pytest.approx(4e-5, rel=1e-12)
            and lrs[71] == pytest.approx(8e-6, rel=1e-12)
            and lrs[81] == pytest.approx(1.6e-6, rel=1e-12)
            and stopped_at == 91
            and lrs[91] == pytest.approx(3.2e-7, rel=1e-12)
            and lrs[91] < 1e-6
        )
        ok = psnr_ok and ssim_ok and chain_ok
        report(
            8,
            ok,
            "PSNR(MSE=0.01)=20 dB exactly; SSIM(x,x)=1 within 1e-9; "
            "schedule chain 2e-4 -> 4e-5 -> 8e-6 -> 1.6e-6 -> stop reproduced",
        )


class TestCriterion9ParameterCounter:
    def test_hand_count_and_reference_size_search(self):
        # hand enumeration for K=1, L=1, C=1, h=8 (channels 4 after squeeze)
        hand = 2 * ((4 + 4) + 16 + (8 * 2 * 9 + 8) + (8 * 8 * 9 + 8) + (4 * 8 * 9 + 4))
        model = build(IraeConfig(flow_steps=1, levels=1, hidden_width=8, in_channels=1))
        hand_ok = model.param_count() == hand == param_count_formula(1, 1, 1, 8)

        # search the hidden width bringing K=16, L=2, C=3 closest to 1.33e6
        best_h, best_count = None, None
        for h in range(1, 257):
            count = param_count_formula(16, 2, 3, h)
            if best_count is None or abs(count - REFERENCE_PARAM_COUNT) < abs(
                best_count - REFERENCE_PARAM_COUNT
            ):
                best_h, best_count = h, count
        deviation = abs(best_count - REFERENCE_PARAM_COUNT) / REFERENCE_PARAM_COUNT
        ok = hand_ok and deviation <= 0.10
        report(
            9,
            ok,
            f"hand count {hand} matches; h={best_h} gives {best_count} parameters "
            f"({100 * deviation:.2f}% from 1.33e6)",
        )
        assert best_h == 29  # the documented configuration


class TestCriterion10Determinism:
    def test_cli_train_bitwise_reproducible(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        for i, img in enumerate(smooth_patches(20, 8, np.random.default_rng(50))):
            save_pnm(data_dir / f"p{i:02d}.pgm", img)
        blobs = []
        for run in ("one", "two"):
            ckpt = tmp_path / f"{run}.ckpt"
            out = tmp_path / run
            code = cli_main(
                [
                    "train",
                    "--flow-steps", "1", "--levels", "1", "--hidden-width", "4",
                    "--epochs-max", "3", "--batch-size", "8", "--seed", "7",
                    "--dataset-dir", str(data_dir),
                    "--checkpoint", str(ckpt),
                    "--output-dir", str(out),
                ]
            )
            assert code == 0
            blobs.append((ckpt.read_bytes(), (out / "history.log").read_bytes()))
        capsys.readouterr()
        ok = blobs[0][0] == blobs[1][0] and blobs[0][1] == blobs[1][1]
        report(
            10,
            ok,
            f"identical seeds: checkpoints ({len(blobs[0][0])} bytes) and history "
            "logs are bitwise identical",
        )
