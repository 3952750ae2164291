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
from pathlib import Path

import numpy as np

from .autodiff import no_grad
from .degrade import DegradationSpec
from .infotheory import FiniteMap, iter_all_maps, information_preservation_check
from .metrics import MetricReport, psnr, ssim
from .model import IraeConfig, build, load_checkpoint, randomize_parameters, save_checkpoint
from .pnm import load_pnm, save_pnm
from .train import history_lines, train

__all__ = ["RunConfig", "parse_config_file", "serialize_config", "main"]

TASKS = ("denoise", "jpeg", "inpaint")

ROUND_TRIP_BOUNDS = {"float32": 1e-4, "float64": 1e-8}


@dataclass
class RunConfig:
    """Everything a training run needs; defaults follow the reference setup."""

    task: str = "denoise"
    flow_steps: int = 16
    levels: int = 2
    hidden_width: int = 64
    in_channels: int = 1
    precision: str = "float32"
    seed: int = 0
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


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(name, raw):
    kind = _FIELD_TYPES[name]
    raw = raw.strip()
    if kind in ("bool", bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"config key {name}: expected true/false, got {raw!r}")
    if kind in ("int", int):
        return int(raw)
    if kind in ("float", float):
        return float(raw)
    return raw


def parse_config_file(path):
    """Read a key=value file into a RunConfig; unknown keys are errors."""
    cfg = RunConfig()
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        setattr(cfg, key, _parse_value(key, raw))
    return cfg


def serialize_config(cfg):
    """Inverse of parse_config_file: parse(serialize(cfg)) == cfg."""
    lines = []
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name}={value}")
    return "\n".join(lines) + "\n"


def _model_config(cfg):
    return IraeConfig(
        flow_steps=cfg.flow_steps,
        levels=cfg.levels,
        hidden_width=cfg.hidden_width,
        in_channels=cfg.in_channels,
        precision=cfg.precision,
        seed=cfg.seed,
    )


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
        seed=cfg.seed,
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


def _apply_overrides(cfg, args):
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    return cfg


def cmd_train(args):
    cfg = parse_config_file(args.config) if args.config else RunConfig()
    _apply_overrides(cfg, args)
    if not cfg.dataset_dir:
        raise ValueError("train: dataset_dir is required (config key or --dataset-dir)")
    _, images = _load_dataset(cfg.dataset_dir, cfg.in_channels)
    h, w = images[0].shape[1:]
    spec = _degradation_spec(cfg, (h, w))
    model = build(_model_config(cfg))
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
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, cfg.checkpoint)
    log_path = out_dir / "history.log"
    log_path.write_text("\n".join(history_lines(history)) + "\n")
    best = max(r.val_psnr for r in history)
    print(f"trained {len(history)} epochs on {len(images)} images ({cfg.task})")
    print(f"best validation psnr {best:.4f} dB; checkpoint -> {cfg.checkpoint}")
    print(f"history -> {log_path}")
    return 0


def _restore_one(model, src, dst):
    restored = model.forward(load_pnm(src)[None]).data[0]
    save_pnm(dst, np.clip(restored, 0.0, 1.0))


def cmd_restore(args):
    model = load_checkpoint(args.checkpoint)
    paths = _list_images(args.input)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = max(1, args.jobs)
    if not model.actnorms_initialized:
        jobs = 1  # data-dependent init must happen on exactly one thread
    tasks = [(p, out_dir / p.name) for p in paths]
    # grad mode is process-global: switch it once here, never in the workers
    with no_grad(), ThreadPoolExecutor(max_workers=jobs) as pool:
        list(pool.map(lambda t: _restore_one(model, *t), tasks))
    print(f"restored {len(tasks)} images -> {out_dir}")
    return 0


def cmd_eval(args):
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
        a = np.clip(load_pnm(restored_paths[name]), 0.0, 1.0)
        b = np.clip(load_pnm(reference_paths[name]), 0.0, 1.0)
        return name, psnr(a, b), ssim(a, b)

    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        rows = list(pool.map(score, names))
    report = MetricReport()
    for name, p, s in rows:
        report.add(name, p, s)
    table = report.table()
    print(table)
    if args.output:
        Path(args.output).write_text(table + "\n")
    return 0


def _recast_model(model, precision):
    """Same parameters, different float width (conditioning diagnostics)."""
    if precision == model.config.precision:
        return model
    recast = build(replace(model.config, precision=precision))
    recast.restore(model.snapshot())
    return recast


def cmd_verify(args):
    if args.trials < 1:
        raise ValueError(f"verify: --trials must be at least 1, got {args.trials}")
    if args.checkpoint:
        model = load_checkpoint(args.checkpoint)
        if args.precision:
            model = _recast_model(model, args.precision)
    else:
        config = IraeConfig(
            flow_steps=args.flow_steps,
            levels=args.levels,
            hidden_width=args.hidden_width,
            in_channels=args.in_channels,
            precision=args.precision or "float32",
            seed=args.seed,
        )
        model = build(config)
        randomize_parameters(model, np.random.default_rng(args.seed))
    cfg = model.config
    size = args.size
    rng = np.random.default_rng(args.seed + 1)
    worst = 0.0
    for _ in range(args.trials):
        x = rng.uniform(0.0, 1.0, (1, cfg.in_channels, size, size))
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
        ("identity on uniform 4 symbols", uniform4, FiniteMap((0, 1, 2, 3))),
        ("parity (x mod 2) on uniform 4 symbols", uniform4, FiniteMap((0, 1, 0, 1), 2)),
        ("constant map on uniform 4 symbols", uniform4, FiniteMap((0, 0, 0, 0), 1)),
        (
            "permutation on uniform 8 symbols",
            np.full(8, 0.125),
            FiniteMap((3, 7, 0, 5, 1, 6, 2, 4)),
        ),
    ]
    for title, px, fmap in scenarios:
        r = information_preservation_check(px, fmap)
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
    for fmap in iter_all_maps(4, 4):
        r = information_preservation_check(uniform4, fmap)
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


def _add_run_config_flags(parser):
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--task", choices=TASKS)
    parser.add_argument("--flow-steps", dest="flow_steps", type=int)
    parser.add_argument("--levels", type=int)
    parser.add_argument("--hidden-width", dest="hidden_width", type=int)
    parser.add_argument("--in-channels", dest="in_channels", type=int)
    parser.add_argument("--precision", choices=("float32", "float64"))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--sigma", type=float)
    parser.add_argument("--blind", dest="blind", action="store_const", const=True)
    parser.add_argument("--sigma-lo", dest="sigma_lo", type=float)
    parser.add_argument("--sigma-hi", dest="sigma_hi", type=float)
    parser.add_argument("--quality-factor", dest="quality_factor", type=int)
    parser.add_argument("--mask-h", dest="mask_h", type=int)
    parser.add_argument("--mask-w", dest="mask_w", type=int)
    parser.add_argument("--epochs-max", dest="epochs_max", type=int)
    parser.add_argument("--batch-size", dest="batch_size", type=int)
    parser.add_argument("--dataset-dir", dest="dataset_dir")
    parser.add_argument("--checkpoint")
    parser.add_argument("--output-dir", dest="output_dir")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="irae", description="invertible restoring autoencoder toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write a checkpoint")
    _add_run_config_flags(p_train)
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
    p_verify.add_argument("--flow-steps", dest="flow_steps", type=int, default=16)
    p_verify.add_argument("--levels", type=int, default=2)
    p_verify.add_argument("--hidden-width", dest="hidden_width", type=int, default=64)
    p_verify.add_argument("--in-channels", dest="in_channels", type=int, default=1)
    p_verify.add_argument(
        "--precision",
        choices=("float32", "float64"),
        help="fresh-model precision, or recast a checkpoint's parameters",
    )
    p_verify.add_argument("--seed", type=int, default=0)
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
