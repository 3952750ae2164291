"""Command-line entry point: train, restore, eval, verify, mi-demo.

Configuration is a flat key=value text file (one pair per line, '#'
comments); command-line flags override file values.  Images are binary
PGM/PPM.  Every command either completes fully or exits nonzero with a
message; there are no partial silent successes.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from itertools import groupby
from pathlib import Path

import numpy as np

from .autodiff import no_grad
from .degrade import DegradationSpec
from .infotheory import iter_all_maps, information_preservation_check
from .metrics import psnr, ssim
from .model import PRECISION_DTYPES, IraeConfig, build, load_checkpoint, randomize_parameters
from .model import _assemble, images_per_batch, save_checkpoint
from .pnm import load_pnm, pnm_shape, save_pnm
from .train import _check_inputs, history_lines, train

__all__ = ["RunConfig", "parse_config_file", "main"]

TASKS = ("denoise", "jpeg", "inpaint")

ROUND_TRIP_BOUNDS = {"float32": 1e-4, "float64": 1e-8}


@dataclass
class RunConfig:
    """Everything a training run needs; defaults follow the reference setup.

    Every field is also a `train` flag: --name with _ replaced by -.
    """

    task: str = "denoise"
    flow_steps: int = IraeConfig.flow_steps
    levels: int = IraeConfig.levels
    hidden_width: int = IraeConfig.hidden_width
    in_channels: int = IraeConfig.in_channels
    precision: str = IraeConfig.precision
    seed: int = IraeConfig.seed
    sigma: float = 25.0
    blind: bool = False
    sigma_lo: float = 0.0
    sigma_hi: float = 55.0
    quality_factor: int = 40
    mask_h: int = 16
    mask_w: int = 16
    epochs_max: int = 50
    batch_size: int = 16
    dataset_dir: str = ""
    checkpoint: str = "irae.ckpt"
    output_dir: str = "out"


_CHOICES = {"task": TASKS, "precision": PRECISION_DTYPES}

_RUN_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def _parse_value(kind, raw):
    """raw as the type of the field's default (bool, int, float or str)."""
    if kind is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"expected true/false, got {raw!r}")
    return kind(raw)


def parse_config_file(path):
    """Read a key=value file into a RunConfig; a bad key, value or choice is an error at path:line."""
    cfg = RunConfig()
    seen = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _RUN_DEFAULTS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in seen:
            raise ValueError(f"{path}:{lineno}: config key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        try:
            value = _parse_value(type(_RUN_DEFAULTS[key]), raw.strip())
            if key in _CHOICES and value not in _CHOICES[key]:
                raise ValueError(f"{value!r} is not one of {', '.join(_CHOICES[key])}")
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: config key {key}: {e}") from None
        setattr(cfg, key, value)
    return cfg


def _degradation_spec(cfg, image_size):
    if cfg.task == "denoise":
        kind = "blind_awgn" if cfg.blind else "awgn"
    elif cfg.task == "jpeg":
        kind = "jpeg"
    elif cfg.task == "inpaint":
        kind = "inpaint"
    else:
        raise ValueError(f"unknown task {cfg.task!r}; choose from {TASKS}")
    return DegradationSpec(
        kind=kind,
        sigma=cfg.sigma,
        sigma_range=(cfg.sigma_lo, cfg.sigma_hi),
        quality_factor=cfg.quality_factor,
        mask_size=(cfg.mask_h, cfg.mask_w),
        image_size=image_size,
    )


def _list_images(directory):
    root = Path(directory)
    if not root.is_dir():
        raise ValueError(f"not a directory: {directory}")
    paths = sorted(p for p in root.iterdir() if p.suffix.lower() in (".pgm", ".ppm"))
    if not paths:
        raise ValueError(f"no .pgm/.ppm images found in {directory}")
    return paths


def _load_dataset(directory, in_channels):
    paths = _list_images(directory)
    images = []
    for p in paths:
        img = load_pnm(p)
        if img.shape[0] != in_channels:
            raise ValueError(f"{p}: has {img.shape[0]} channels, config says {in_channels}")
        if images and img.shape != images[0].shape:
            raise ValueError(f"{p}: shape {img.shape} differs from {images[0].shape}")
        images.append(img)
    return paths, images


def _at_least_one(args, name):
    value = getattr(args, name)
    if value < 1:
        raise ValueError(f"{args.command}: --{name} must be at least 1, got {value}")
    return value


def _apply_overrides(cfg, source):
    """A copy of cfg with every field that source sets to something other than None."""
    given = {f.name: getattr(source, f.name) for f in fields(cfg)}
    return replace(cfg, **{name: value for name, value in given.items() if value is not None})


def cmd_train(args):
    cfg = _apply_overrides(parse_config_file(args.config) if args.config else RunConfig(), args)
    if not cfg.dataset_dir:
        raise ValueError("train: dataset_dir is required (config key or --dataset-dir)")
    _, images = _load_dataset(cfg.dataset_dir, cfg.in_channels)
    h, w = images[0].shape[1:]
    spec = _degradation_spec(cfg, (h, w))
    model = build(_apply_overrides(IraeConfig(), cfg))
    # refuse bad arguments before making directories, and make them before training
    _check_inputs(images, spec, cfg.epochs_max, cfg.batch_size)
    out_dir = Path(cfg.output_dir)
    for d in (out_dir, Path(cfg.checkpoint).parent):
        d.mkdir(parents=True, exist_ok=True)
    model, history = train(
        model,
        images,
        spec,
        epochs_max=cfg.epochs_max,
        batch_size=cfg.batch_size,
        seed=cfg.seed,
    )
    if not history:
        raise RuntimeError("training produced no epochs (diverged immediately?)")
    save_checkpoint(model, cfg.checkpoint)
    log_path = out_dir / "history.log"
    log_path.write_text("\n".join(history_lines(history)) + "\n")
    best = max(r.val_psnr for r in history)
    print(f"trained {len(history)} epochs on {len(images)} images ({cfg.task})")
    print(f"best validation psnr {best:.4f} dB; checkpoint -> {cfg.checkpoint}")
    print(f"history -> {log_path}")
    return 0


def _restore_batches(model, paths):
    """Runs of consecutive same-shape images, split to images_per_batch; shapes
    come from the file headers, so membership depends only on the file list.
    Every header is read once and checked against the model before any batch."""
    shapes = [pnm_shape(p) for p in paths]
    for p, shape in zip(paths, shapes):
        try:
            model._check_input((1, *shape))
        except ValueError as e:
            raise ValueError(f"{p}: {e}") from None
    batches = []
    for (_, h, w), run in groupby(zip(shapes, paths), key=lambda pair: pair[0]):
        run = [p for _, p in run]
        n = images_per_batch(h, w)
        batches += [run[i : i + n] for i in range(0, len(run), n)]
    return batches


def _restore_batch(model, paths, out_dir):
    with no_grad():
        restored = model.forward(np.stack([load_pnm(p) for p in paths])).data
    for p, img in zip(paths, restored):
        save_pnm(out_dir / p.name, img)


def _load_trained(path):
    """load_checkpoint(path), refused when its ActNorms were never
    initialized: inference runs the stored model as it is, so no image
    decides another's ActNorm parameters."""
    model = load_checkpoint(path)
    if not model.actnorms_initialized:
        raise ValueError(f"{path}: ActNorms are uninitialized; inference runs only a trained model")
    return model


def cmd_restore(args):
    jobs = _at_least_one(args, "jobs")
    model = _load_trained(args.checkpoint)
    paths = _list_images(args.input)
    batches = _restore_batches(model, paths)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        list(pool.map(lambda b: _restore_batch(model, b, out_dir), batches))
    print(f"restored {len(paths)} images -> {out_dir}")
    return 0


def cmd_eval(args):
    jobs = _at_least_one(args, "jobs")
    restored_paths = {p.name: p for p in _list_images(args.restored)}
    reference_paths = {p.name: p for p in _list_images(args.reference)}
    if set(restored_paths) != set(reference_paths):
        only_a = sorted(set(restored_paths) - set(reference_paths))
        only_b = sorted(set(reference_paths) - set(restored_paths))
        raise ValueError(
            f"image sets differ: {len(only_a)} only in restored, {len(only_b)} only in reference"
        )
    names = sorted(restored_paths)

    def score(name):
        a = load_pnm(restored_paths[name])
        b = load_pnm(reference_paths[name])
        if a.shape != b.shape:
            raise ValueError(f"{name}: restored shape {a.shape}, reference shape {b.shape}")
        return name, psnr(a, b), ssim(a, b)

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        rows = list(pool.map(score, names))
    _, psnrs, ssims = zip(*rows)
    lines = ["image\tpsnr_db\tssim"] + [f"{n}\t{p:.4f}\t{s:.4f}" for n, p, s in rows]
    lines.append(f"mean\t{np.mean(psnrs):.4f}\t{np.mean(ssims):.4f}")
    table = "\n".join(lines)
    print(table)
    if args.output:
        Path(args.output).write_text(table + "\n")
    return 0


def _recast_model(model, precision):
    """Same parameters, different float width (conditioning diagnostics)."""
    if precision == model.config.precision:
        return model
    recast = _assemble(replace(model.config, precision=precision), None)
    recast.restore(([p.data for p in model.parameters()], model.actnorms_initialized))
    return recast


def cmd_verify(args):
    """Round-trips --trials inputs, images_per_batch(size, size) per forward; OpenBLAS picks its
    kernels by GEMM column count, so the max error's last digits depend on that batch split."""
    _at_least_one(args, "trials")
    size = _at_least_one(args, "size")
    options = _apply_overrides(IraeConfig(), args)
    options.validate()  # the trials' seed, with a checkpoint too
    if args.checkpoint:
        for name in ("flow_steps", "levels", "hidden_width", "in_channels"):
            if getattr(args, name) is not None:
                flag = "--" + name.replace("_", "-")
                raise ValueError(f"verify: {flag} cannot be used with --checkpoint")
        model = _load_trained(args.checkpoint)
        if args.precision:
            model = _recast_model(model, args.precision)
    else:
        model = build(options)
        randomize_parameters(model, np.random.default_rng(options.seed))
    cfg = model.config
    rng = np.random.default_rng(options.seed + 1)
    batch = images_per_batch(size, size)
    worst = 0.0
    for start in range(0, args.trials, batch):
        # one draw of n trials gives the same numbers as n draws of one trial
        n = min(batch, args.trials - start)
        x = rng.uniform(0.0, 1.0, (n, cfg.in_channels, size, size))
        with no_grad():
            restored = model.forward(x)
        back = model.inverse(restored)
        # np.maximum, unlike max(), lets a NaN error through to the FAIL below
        worst = float(np.maximum(worst, np.max(np.abs(back.data - x.astype(cfg.dtype)))))
    bound = ROUND_TRIP_BOUNDS[cfg.precision]
    ok = worst < bound
    print(
        f"round-trip max error {worst:.3e} over {args.trials} trials "
        f"({cfg.precision}, {size}x{size}); bound {bound:g}: {'PASS' if ok else 'FAIL'}"
    )
    return 0 if ok else 2


def cmd_mi_demo(args):
    print("information preservation on finite discrete variables (bits)")
    print()
    uniform4 = np.full(4, 0.25)
    scenarios = [
        ("identity on uniform 4 symbols", uniform4, (0, 1, 2, 3)),
        ("parity (x mod 2) on uniform 4 symbols", uniform4, (0, 1, 0, 1)),
        ("constant map on uniform 4 symbols", uniform4, (0, 0, 0, 0)),
        ("permutation on uniform 8 symbols", np.full(8, 0.125), (3, 7, 0, 5, 1, 6, 2, 4)),
    ]
    for title, px, labels in scenarios:
        r = information_preservation_check(px, labels)
        print(f"{title}:")
        print(
            f"  injective={r.injective}  H(X)={r.entropy_x:.6f}  "
            f"I(X;f(X))={r.mutual_info:.6f}  loss={r.info_loss:.6f}  "
            f"P(x|z)=1 everywhere: {r.conditional_certain}"
        )
    # exhaustive sweep: every deterministic map on 4 symbols
    total = injective_count = 0
    worst_dev = 0.0
    ok = True
    for labels in iter_all_maps(4, 4):
        r = information_preservation_check(uniform4, labels)
        total += 1
        if r.injective:
            injective_count += 1
            worst_dev = max(worst_dev, abs(r.info_loss))
            ok = ok and abs(r.mutual_info - r.entropy_x) <= 1e-12 and r.conditional_certain
        else:
            ok = ok and r.info_loss > 1e-12 and not r.conditional_certain
    print()
    print(
        f"exhaustive sweep of all {total} maps on 4 symbols: "
        f"{injective_count} injective preserve all 2 bits "
        f"(max deviation {worst_dev:.2e}); every non-injective map loses information: "
        f"{'CONFIRMED' if ok else 'VIOLATED'}"
    )
    return 0 if ok else 2


def _add_config_flags(parser, config_cls, **helps):
    """One --flag per field of config_cls, typed by the field's default.

    Every flag defaults to None: _apply_overrides changes only what was given.
    """
    for f in fields(config_cls):
        if isinstance(f.default, bool):
            kw = {"action": "store_const", "const": True}
        else:
            kw = {"type": type(f.default), "choices": _CHOICES.get(f.name)}
        parser.add_argument("--" + f.name.replace("_", "-"), help=helps.get(f.name), **kw)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="irae", description="invertible restoring autoencoder toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write a checkpoint")
    p_train.add_argument("--config", help="key=value config file")
    _add_config_flags(p_train, RunConfig)
    p_train.set_defaults(run=cmd_train)

    p_restore = sub.add_parser("restore", help="run a checkpoint over a directory of images")
    p_restore.add_argument("--checkpoint", required=True)
    p_restore.add_argument("--input", required=True, help="directory of degraded images")
    p_restore.add_argument("--output", required=True, help="directory for restored images")
    p_restore.add_argument("--jobs", type=int, default=1)
    p_restore.set_defaults(run=cmd_restore)

    p_eval = sub.add_parser("eval", help="PSNR/SSIM table between two image sets")
    p_eval.add_argument("--restored", required=True)
    p_eval.add_argument("--reference", required=True)
    p_eval.add_argument("--output", help="also write the table to this file")
    p_eval.add_argument("--jobs", type=int, default=1)
    p_eval.set_defaults(run=cmd_eval)

    p_verify = sub.add_parser("verify", help="round-trip invertibility suite")
    p_verify.add_argument("--checkpoint", help="verify this checkpoint instead of a fresh model")
    _add_config_flags(
        p_verify, IraeConfig, precision="fresh-model precision, or recast a checkpoint's parameters"
    )
    p_verify.add_argument("--trials", type=int, default=50)
    p_verify.add_argument("--size", type=int, default=16)
    p_verify.set_defaults(run=cmd_verify)

    p_mi = sub.add_parser("mi-demo", help="discrete information-preservation report")
    p_mi.set_defaults(run=cmd_mi_demo)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except Exception as e:  # noqa: BLE001 - CLI boundary: fail loudly, exit nonzero
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
