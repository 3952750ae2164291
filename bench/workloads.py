"""The four benchmark workloads and the synthetic inputs they run on.

Each workload is set up from its seed, then measured as a sequence of
*units*: one call into irae's public entry point (``irae.train.train`` or
``irae.cli.main``) whose outputs the benchmark checks itself.  A unit is
split into ``prepare`` (untimed), ``run`` (the timed program call) and
``check`` (untimed), so tracing and timing cover only the program.
"""

from __future__ import annotations

import io
import math
import os
import re
from contextlib import redirect_stdout
from dataclasses import dataclass, field, replace

import numpy as np

import irae.autodiff as autodiff
import irae.cli as cli
import irae.degrade as degrade
import irae.metrics as metrics
import irae.model as model_mod
import irae.pnm as pnm
import irae.train as train_mod

BATCH = 16
SIGMA = 25.0
ROUND_TRIP_BOUND = 1e-4  # the CLI's float32 bound, applied NaN-aware here
PIXEL_TOL = 1.0 / 255.0 + 1e-9  # 8-bit output quantization
COUPLING_TOL = 1e-4  # float32 coupling output against the float64 reference, relative
GRAD_TOL = 1e-4  # directional derivative error, relative to the gradient's norm
GRAD_BATCH = 2
GRAD_SIZE = 16  # images are cropped to this for the gradient check, to bound its cost


# ---------------------------------------------------------------------------
# Synthetic images
# ---------------------------------------------------------------------------


def _smooth(rng, size, grid):
    """Bilinear upsampling of a grid x grid uniform control lattice."""
    t = np.linspace(0.0, grid - 1.0, size)
    i0 = np.minimum(np.floor(t).astype(int), grid - 2)
    frac = t - i0
    ctrl = rng.uniform(0.0, 1.0, (grid, grid))
    rows = ctrl[i0] * (1 - frac[:, None]) + ctrl[i0 + 1] * frac[:, None]
    return rows[:, i0] * (1 - frac[None, :]) + rows[:, i0 + 1] * frac[None, :]


def synth_images(rng, n, channels, size, texture=0.05):
    """n (C,H,W) images in [0,1]: smooth low-frequency content shared across
    channels, a weaker per-channel tint, and mild pixel texture.

    Each image is normalized to mean 0.5 and contrast 0.2 before the texture
    is added, so PSNR figures vary little from one seed's images to the next.
    """
    out = []
    for _ in range(n):
        base = _smooth(rng, size, 4)
        img = np.stack([0.75 * base + 0.25 * _smooth(rng, size, 3) for _ in range(channels)])
        img = 0.5 + 0.2 * (img - img.mean()) / max(float(img.std()), 1e-6)
        img = img + texture * rng.standard_normal(img.shape)
        out.append(np.clip(img, 0.0, 1.0))
    return out


# ---------------------------------------------------------------------------
# Oracle checks: independent of the code being measured, run once per run
# ---------------------------------------------------------------------------


def conv_reference(x, w, b):
    """conv2d_same written out in float64: zero padding, then an explicit
    sum over the k x k window offsets."""
    k = w.shape[2]
    pad = k // 2
    h, wd = x.shape[2:]
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    windows = np.stack([np.stack([xp[:, :, dy:dy + h, dx:dx + wd] for dx in range(k)])
                        for dy in range(k)])  # (k, k, N, Cin, H, W)
    out = np.einsum("ijncyx,ocij->noyx", windows, w.astype(np.float64))
    return out + b.astype(np.float64)[None, :, None, None]


def coupling_reference(coupling, x):
    """AffineCoupling.forward and .inverse of x, in float64 from its weights."""
    half = coupling.channels // 2
    xa, xb = x[:, :half].astype(np.float64), x[:, half:].astype(np.float64)
    h = np.tanh(conv_reference(xa, coupling.w1.data, coupling.b1.data))
    h = np.tanh(conv_reference(h, coupling.w2.data, coupling.b2.data))
    out = conv_reference(h, coupling.w3.data, coupling.b3.data)
    s = 1.0 / (1.0 + np.exp(-(out[:, :half] + 2.0)))
    t = out[:, half:]
    forward = np.concatenate([xa, s * xb + t], axis=1)
    inverse = np.concatenate([xa, (xb - t) / s], axis=1)
    return forward, inverse


def check_couplings(model, rng):
    """(attempted, failed, notes): the forward and inverse of the first and
    last coupling layer against coupling_reference, on random inputs.

    This covers conv2d_same's forward at the model's own channel shapes,
    which the other checks compare only against itself.
    """
    steps = [model.encoder_levels[0][0], model.decoder_levels[-1][-1]]
    notes = []
    for i, step in enumerate(steps):
        coupling = step.coupling
        x = rng.uniform(-1.0, 1.0, (2, coupling.channels, 8, 8)).astype(model.config.dtype)
        want_fwd, want_inv = coupling_reference(coupling, x)
        with autodiff.no_grad():
            got_fwd = coupling.forward(autodiff.Tensor(x)).data
        got_inv = np.asarray(coupling.inverse(x))
        for what, got, want in (("forward", got_fwd, want_fwd), ("inverse", got_inv, want_inv)):
            err = float(np.max(np.abs(got - want)))
            if not err <= COUPLING_TOL * (1.0 + float(np.max(np.abs(want)))):
                notes.append(f"coupling {i} {what} differs from the reference by {err:.3g}")
    return 2 * len(steps), len(notes), notes


def merge_checks(*checks):
    return (sum(c[0] for c in checks), sum(c[1] for c in checks),
            [note for c in checks for note in c[2]])


def _gradient_groups(model):
    """Parameter groups whose directional derivatives are checked: the conv
    weights of the first and last coupling of the encoder and of the
    decoder, then every parameter together."""
    params = model.parameters()
    index = {id(p): i for i, p in enumerate(params)}
    steps = [model.encoder_levels[0][0], model.encoder_levels[-1][-1],
             model.decoder_levels[0][0], model.decoder_levels[-1][-1]]
    groups = []
    for n, step in enumerate(steps):
        for name in ("w1", "w2", "w3"):
            groups.append((f"step {n} {name}", [index[id(getattr(step.coupling, name))]]))
    groups.append(("all parameters", list(range(len(params)))))
    return groups


def check_gradients(model32, images, rng):
    """(attempted, failed, notes): the training loss's gradient, by
    ``irae.autodiff.backward`` on a float32 model with random parameters,
    against ``irae.autodiff.finite_diff_grad`` on a float64 copy.

    Each check is one random unit direction through a parameter group; its
    directional derivative from backward must match the central difference
    within GRAD_TOL of the group's gradient norm.  The loss and model are
    those of the training workload, on GRAD_BATCH of its images cropped to
    GRAD_SIZE x GRAD_SIZE.
    """
    model64 = model_mod.build(replace(model32.config, precision="float64"))
    model64.restore(model32.snapshot())
    clean = np.stack([x[:, :GRAD_SIZE, :GRAD_SIZE] for x in images[:GRAD_BATCH]])
    noisy = np.stack([degrade.apply_awgn(x, SIGMA, rng) for x in clean])

    params32 = model32.parameters()
    loss = train_mod.l1_loss(model32.forward(autodiff.Tensor(noisy.astype(np.float32))),
                             autodiff.Tensor(clean.astype(np.float32)))
    autodiff.backward(loss)
    grads = [np.zeros(p.shape) if p.grad is None else p.grad.astype(np.float64)
             for p in params32]

    groups = _gradient_groups(model32)
    directions = []  # per group: {param index: unit-norm share of the direction}
    for _, members in groups:
        v = {i: rng.standard_normal(params32[i].shape) for i in members}
        norm = math.sqrt(sum(float(np.sum(a * a)) for a in v.values()))
        directions.append({i: a / norm for i, a in v.items()})
    analytic = [sum(float(np.sum(grads[i] * a)) for i, a in d.items()) for d in directions]
    scales = [math.sqrt(sum(float(np.sum(grads[i] ** 2)) for i in members))
              for _, members in groups]

    params64 = model64.parameters()
    base = [p.data.copy() for p in params64]

    def loss64(t):
        for i, p in enumerate(params64):
            p.data[...] = base[i]
        for coef, d in zip(t.data, directions):
            for i, a in d.items():
                params64[i].data += coef * a
        return train_mod.l1_loss(model64.forward(noisy), autodiff.Tensor(clean))

    numeric = autodiff.finite_diff_grad(loss64, autodiff.Tensor(np.zeros(len(groups))))
    notes = []
    for (name, _), a, fd, scale in zip(groups, analytic, numeric, scales):
        if not abs(a - fd) <= GRAD_TOL * max(scale, abs(fd)):
            notes.append(f"gradient of {name}: backward gives {a:.6g} along a random "
                         f"direction, finite differences {fd:.6g}")
    return len(groups), len(notes), notes


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class UnitResult:
    images: int  # images through the user-facing path
    ops: int  # training steps, restored images or verify trials
    attempted: int
    failed: int
    output: object  # compared exactly between units and between traced/untraced runs
    notes: list = field(default_factory=list)


class TrainWorkload:
    """``irae.train.train`` on grayscale AWGN denoising, warm steady state.

    Set-up builds the model, runs ActNorm's first-batch init and one warm
    epoch.  Every unit restarts from the post-init parameters, so its
    history is identical each time.  The model's init seed is fixed: the
    workload seed draws the images, the split and the noise, and a changing
    init would spread the validation PSNR across seeds twice as wide.
    """

    def __init__(self, seed, flow_steps, hidden, size, n_images, epochs):
        self.seed = seed
        self.config = model_mod.IraeConfig(
            flow_steps=flow_steps, levels=2, hidden_width=hidden, in_channels=1, seed=0
        )
        self.size = size
        self.n_images = n_images
        self.epochs = epochs
        self.spec = degrade.DegradationSpec(kind="awgn", sigma=SIGMA, image_size=(size, size))
        n_train = n_images - max(1, n_images // 10)
        self.images_per_unit = epochs * n_train
        self.ops_per_unit = epochs * math.ceil(n_train / BATCH)
        self.quality_db = None

    def setup(self):
        rng = np.random.default_rng([self.seed, 1])
        self.images = synth_images(rng, self.n_images, 1, self.size)
        self.model = model_mod.build(self.config)
        with autodiff.no_grad():
            self.model.forward(np.stack(self.images[:BATCH]))  # ActNorm first-batch init
        self.initial = self.model.snapshot()
        train_mod.train(self.model, self.images, self.spec, epochs_max=1,
                        batch_size=BATCH, seed=self.seed)

    def prepare(self):
        self.model.restore(self.initial)

    def oracle_check(self):
        """Gradients and coupling layers of a randomly parameterized copy of
        the trained model's architecture (a fresh model's zero final convs
        would hide most of both)."""
        rng = np.random.default_rng([self.seed, 3])
        model = model_mod.randomize_parameters(model_mod.build(self.config), rng)
        return merge_checks(check_gradients(model, self.images, rng),
                            check_couplings(model, rng))

    def run(self):
        return train_mod.train(self.model, self.images, self.spec, epochs_max=self.epochs,
                               batch_size=BATCH, seed=self.seed)

    def check(self, returned):
        _, history = returned
        notes = []
        if len(history) != self.epochs:
            notes.append(f"{len(history)} epochs recorded, expected {self.epochs}")
        values = [v for r in history for v in (r.train_loss, r.val_psnr)]
        if not all(math.isfinite(v) for v in values):
            notes.append("non-finite loss or validation PSNR")
        output = tuple((r.epoch, r.train_loss, r.val_psnr, r.lr) for r in history)
        if not notes:
            self.quality_db = max(r.val_psnr for r in history)
        return UnitResult(self.images_per_unit, self.ops_per_unit, 1, int(bool(notes)),
                          output, notes)


class _CheckpointWorkload:
    """Shared set-up for the CLI workloads: the paper-budget RGB checkpoint
    (K=16, L=2, C=3, h=29) with random valid parameters, written to disk."""

    config_kw = dict(flow_steps=16, levels=2, hidden_width=29, in_channels=3)

    def __init__(self, seed, workdir):
        self.seed = seed
        self.checkpoint = os.path.join(workdir, "model.ckpt")
        self.quality_db = None

    def _write_checkpoint(self):
        config = model_mod.IraeConfig(seed=self.seed, **self.config_kw)
        self.model = model_mod.build(config)
        model_mod.randomize_parameters(self.model, np.random.default_rng([self.seed, 2]))
        model_mod.save_checkpoint(self.model, self.checkpoint)

    def _cli(self, argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def prepare(self):
        pass

    def oracle_check(self):
        """The coupling layers of the checkpoint the CLI loads."""
        model = model_mod.load_checkpoint(self.checkpoint)
        return check_couplings(model, np.random.default_rng([self.seed, 3]))


class RestoreWorkload(_CheckpointWorkload):
    """``irae restore --jobs 1`` over a directory of noisy 64x64 RGB PPMs."""

    def __init__(self, seed, workdir, n_images, size=64):
        super().__init__(seed, workdir)
        self.n_images = n_images
        self.size = size
        self.in_dir = os.path.join(workdir, "noisy")
        self.out_dir = os.path.join(workdir, "restored")
        self._expected = None

    def setup(self):
        rng = np.random.default_rng([self.seed, 1])
        self.clean = synth_images(rng, self.n_images, 3, self.size)
        os.makedirs(self.in_dir, exist_ok=True)
        self.names = []
        for i, img in enumerate(self.clean):
            noisy = np.clip(degrade.apply_awgn(img, SIGMA, rng), 0.0, 1.0)
            name = f"img{i:03d}.ppm"
            pnm.save_pnm(os.path.join(self.in_dir, name), noisy)
            self.names.append(name)
        self._write_checkpoint()

    def _expected_outputs(self):
        """In-process model.forward of every input, the reference the CLI must match."""
        if self._expected is None:
            expected = []
            for name in self.names:
                img = pnm.load_pnm(os.path.join(self.in_dir, name))
                with autodiff.no_grad():
                    out = self.model.forward(img[None]).data[0]
                expected.append(np.clip(out, 0.0, 1.0))
            self._expected = expected
        return self._expected

    def run(self):
        return self._cli(["restore", "--checkpoint", self.checkpoint, "--input", self.in_dir,
                          "--output", self.out_dir, "--jobs", "1"])

    def check(self, returned):
        code, _ = returned
        notes = []
        if code != 0:
            notes.append(f"irae restore exited {code}")
        failed = 0
        blobs = []
        scores = []
        for name, clean, want in zip(self.names, self.clean, self._expected_outputs()):
            path = os.path.join(self.out_dir, name)
            problem = None
            if not os.path.exists(path):
                problem = "missing"
            else:
                with open(path, "rb") as f:
                    blobs.append(f.read())
                got = pnm.load_pnm(path)
                if got.shape != clean.shape:
                    problem = f"shape {got.shape}, expected {clean.shape}"
                elif not np.all(np.isfinite(got)):
                    problem = "non-finite pixels"
                elif not np.max(np.abs(got - want)) <= PIXEL_TOL:
                    problem = f"differs from model.forward by {np.max(np.abs(got - want)):.3g}"
                else:
                    scores.append(metrics.psnr(got, clean))
            if problem:
                failed += 1
                notes.append(f"{name}: {problem}")
            if os.path.exists(path):
                os.remove(path)  # the next unit must write it again
        if code != 0:
            failed = self.n_images
        elif not failed:
            self.quality_db = float(np.mean(scores))
        return UnitResult(self.n_images, self.n_images, self.n_images, failed,
                          tuple(blobs), notes)


_VERIFY_LINE = re.compile(r"round-trip max error (\S+) over (\d+) trials .*: (PASS|FAIL)")


class VerifyWorkload(_CheckpointWorkload):
    """``irae verify --checkpoint`` on the RGB checkpoint with 32x32 trials."""

    def __init__(self, seed, workdir, trials, size=32):
        super().__init__(seed, workdir)
        self.trials = trials
        self.size = size
        self._own_error = None

    def setup(self):
        self._write_checkpoint()

    def _own_trial(self):
        """Recompute the CLI's first trial with model.forward/inverse directly,
        on the model loaded from the same checkpoint file."""
        if self._own_error is None:
            model = model_mod.load_checkpoint(self.checkpoint)
            rng = np.random.default_rng(self.seed + 1)  # the CLI's trial stream
            x = rng.uniform(0.0, 1.0, (1, 3, self.size, self.size))
            with autodiff.no_grad():
                restored = model.forward(x)
            back = model.inverse(restored).data.astype(np.float64)
            ref = x.astype(np.float32).astype(np.float64)
            err = float(np.max(np.abs(back - ref)))
            mse = float(np.mean((back - ref) ** 2))
            self._own_error = (err, 10.0 * math.log10(1.0 / mse) if mse > 0 else math.inf)
        return self._own_error

    def run(self):
        return self._cli(["verify", "--checkpoint", self.checkpoint, "--trials",
                          str(self.trials), "--size", str(self.size), "--seed", str(self.seed)])

    def check(self, returned):
        code, text = returned
        notes = []
        if code != 0:
            notes.append(f"irae verify exited {code}")
        match = _VERIFY_LINE.search(text)
        if not match:
            notes.append(f"unparsed verify output {text!r}")
        else:
            reported = float(match.group(1))
            if int(match.group(2)) != self.trials:
                notes.append(f"verify ran {match.group(2)} trials, asked for {self.trials}")
            if not reported < ROUND_TRIP_BOUND:  # NaN fails here
                notes.append(f"reported round-trip error {match.group(1)}")
            own, own_psnr = self._own_trial()
            if not own < ROUND_TRIP_BOUND:
                notes.append(f"recomputed round-trip error {own!r} exceeds {ROUND_TRIP_BOUND}")
            elif reported < own * (1 - 1e-3):  # the reported max covers this trial
                notes.append(f"reported max {reported} below recomputed trial error {own:.3e}")
            if not notes:
                self.quality_db = own_psnr
        failed = self.trials if notes else 0
        return UnitResult(self.trials, self.trials, self.trials, failed, text, notes)


def make(name, seed, workdir):
    """Build a workload; its reason for being here is in BENCHMARK.json.

    Sizes keep one unit under about three seconds on a 2-core CPU.
    """
    if name == "train-desk":
        return TrainWorkload(seed, flow_steps=4, hidden=32, size=16,
                             n_images=53, epochs=2)
    if name == "train-ref":
        return TrainWorkload(seed, flow_steps=16, hidden=64, size=32,
                             n_images=17, epochs=1)
    if name == "restore-rgb":
        return RestoreWorkload(seed, workdir, n_images=8)
    if name == "verify-rgb":
        return VerifyWorkload(seed, workdir, trials=4)
    raise ValueError(f"unknown workload {name!r}")
