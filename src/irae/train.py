"""L1 training loop: Adam, plateau learning-rate schedule, history logging.

The schedule holds the learning rate at 1e-3 for the first 50 epochs, drops
to 2e-4 at epoch 51, and from then on divides by 5 whenever the validation
PSNR fails to improve for 10 consecutive epochs; training terminates once
the rate falls below 1e-6.  Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .autodiff import Tensor, absolute, backward, mul, no_grad, sub, sum_all
from .degrade import degrade
from .metrics import psnr
from .model import images_per_batch

# Adam moment decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

# plateau schedule: see the module docstring
INITIAL_LR = 1e-3
POST_DROP_LR = 2e-4
DROP_EPOCH = 50
PATIENCE = 10
DECAY = 0.2
STOP_THRESHOLD = 1e-6

__all__ = [
    "NonFiniteGradError",
    "AdamState",
    "adam_step",
    "LrSchedule",
    "run_schedule",
    "l1_loss",
    "train",
    "EpochRecord",
    "history_lines",
]


class NonFiniteGradError(RuntimeError):
    """A gradient went NaN/Inf; the optimizer refuses to apply it."""


def l1_loss(restored, reference, batch_size=None):
    """(1/N) * sum_i ||restored_i - reference_i||_1 over a batch of N images.

    A shard of a larger batch passes that batch's N as batch_size, so the
    shards' losses and gradients sum to the whole batch's.
    """
    if restored.shape != reference.shape:
        raise ValueError(f"l1_loss: shape mismatch {restored.shape} vs {reference.shape}")
    n = restored.shape[0] if batch_size is None else batch_size
    return mul(sum_all(absolute(sub(restored, reference))), 1.0 / n)


@dataclass
class AdamState:
    """First/second moment estimates per parameter, plus the step counter."""

    m: list
    v: list
    t: int = 0

    @classmethod
    def for_params(cls, params):
        return cls(
            m=[np.zeros_like(p.data) for p in params],
            v=[np.zeros_like(p.data) for p in params],
        )


def adam_step(params, grads, state, lr):
    """Standard bias-corrected Adam update, in place, bitwise the textbook expressions'."""
    if len(params) != len(grads):
        raise ValueError("adam_step: params and grads length mismatch")
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradError("non-finite gradient; aborting epoch")
    state.t += 1
    bc1 = 1.0 - BETA1**state.t
    bc2 = 1.0 - BETA2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        a, b = np.multiply(g, 1.0 - BETA1), np.multiply(g, g)  # each tensor's two temporaries
        np.add(np.multiply(m, BETA1, out=m), a, out=m)
        np.add(np.multiply(v, BETA2, out=v), np.multiply(b, 1.0 - BETA2, out=b), out=v)
        np.multiply(np.divide(m, bc1, out=a), lr, out=a)  # lr * m_hat
        np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), EPS, out=b)  # sqrt(v_hat) + EPS
        np.subtract(p.data, np.divide(a, b, out=a), out=p.data)


@dataclass
class LrSchedule:
    """Learning-rate state machine driven once per epoch by validation PSNR."""

    lr: float = INITIAL_LR
    best_val_psnr: float = -math.inf
    epochs_since_improve: int = 0


def run_schedule(epoch, val_psnr, sched):
    """Advance the schedule; returns (lr for this epoch, stop flag).

    Called at the top of each epoch with the most recent validation PSNR
    (None when no validation has happened yet).  The plateau counter starts
    fresh when the rate drops to 2e-4, and a decay that lands below the
    stop threshold terminates training.
    """
    if val_psnr is not None:
        if val_psnr > sched.best_val_psnr:
            sched.best_val_psnr = val_psnr
            sched.epochs_since_improve = 0
        else:
            sched.epochs_since_improve += 1
    stop = False
    if epoch <= DROP_EPOCH:
        sched.lr = INITIAL_LR
    elif epoch == DROP_EPOCH + 1:
        sched.lr = POST_DROP_LR
        sched.epochs_since_improve = 0
    elif sched.epochs_since_improve >= PATIENCE:
        sched.lr = sched.lr * DECAY
        sched.epochs_since_improve = 0
        if sched.lr < STOP_THRESHOLD:
            stop = True
    return sched.lr, stop


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_psnr: float
    lr: float


def history_lines(history):
    """One machine-parseable key=value record per epoch."""
    return [
        f"epoch={r.epoch} loss={r.train_loss:.8g} val_psnr={r.val_psnr:.8g} lr={r.lr:.8g}"
        for r in history
    ]


def _validate(model, xs, ys, batch_size):
    """Mean PSNR of the model's clipped restorations of ys against xs."""
    scores = []
    with no_grad():
        for start in range(0, len(ys), batch_size):
            batch = slice(start, start + batch_size)
            restored = np.clip(model.forward(np.stack(ys[batch])).data, 0.0, 1.0)
            scores += [psnr(r, x) for r, x in zip(restored, xs[batch])]
    return float(np.mean(scores))


def _shard_workers(n_shards):
    """Threads for n_shards training shards: no more than the usable CPUs
    can run at the BLAS thread count each.  That count is read from the
    environment as BLAS reads it, and is otherwise one per CPU."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    blas = cpus
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            blas = int(value)
            break
    return max(1, min(n_shards, cpus // blas))


def _shard_loss_grads(model, y, x, batch_size):
    """L1 loss of model(y) against x as a share of a batch_size-image batch,
    as a float, and every parameter's gradient (None when the loss is not
    finite).  The model's parameters keep no grad."""
    loss = l1_loss(model.forward(y), Tensor(x), batch_size)
    loss_val = loss.item()
    if not math.isfinite(loss_val):
        return loss_val, None
    backward(loss)
    params = model.parameters()
    grads = [p.grad for p in params]
    for p in params:
        p.grad = None
    return loss_val, grads


def _loss_and_grads(model, y, x, shard, replicas, pool):
    """Mean L1 loss of one batch, as a float, and every parameter's gradient.

    The batch runs as shards of `shard` images, the last one possibly
    smaller, or as one shard while any ActNorm is uninitialized, each on a
    thread of `pool`: shard 0 on `model`, shard i on replicas[i - 1], made
    on first need.  Losses and gradients are summed in shard order, so the
    result does not depend on the number of threads.
    """
    n = len(x)
    shard = shard if model.actnorms_initialized else n
    starts = range(0, n, shard)
    replicas += [model.replica() for _ in range(len(starts) - 1 - len(replicas))]
    futures = [
        pool.submit(_shard_loss_grads, m, y[i : i + shard], x[i : i + shard], n)
        for m, i in zip([model, *replicas], starts)
    ]
    parts = [f.result() for f in futures]
    loss_val = sum(loss for loss, _ in parts)
    if not math.isfinite(loss_val):
        return loss_val, None
    return loss_val, [reduce(np.add, gs) for gs in zip(*(grads for _, grads in parts))]


def _check_inputs(model, images, spec, epochs_max, batch_size):
    """What train() refuses before it draws anything, the shape by the model's rule; returns float64 images."""
    if len(images) == 0:
        raise ValueError("train: dataset is empty")
    if len(images) == 1:  # the validation split takes at least one image
        raise ValueError("train: dataset too small to split")
    for name, value in (("batch_size", batch_size), ("epochs_max", epochs_max)):
        if value < 1:
            raise ValueError(f"train: {name} must be at least 1, got {value}")
    images = [np.asarray(x, dtype=np.float64) for x in images]
    for i, x in enumerate(images):
        if not np.all(np.isfinite(x)):
            raise ValueError(f"train: image {i} contains non-finite values")
        if x.shape != images[0].shape:
            raise ValueError(f"train: image {i} has shape {x.shape}, image 0 {images[0].shape}")
    model._check_input((len(images), *images[0].shape))
    replace(spec, image_size=images[0].shape[-2:]).validate()
    return images


def train(model, images, spec, epochs_max, batch_size=16, seed=0):
    """Minimize the L1 restoration loss; returns (model, history).

    images: list of (C,H,W) arrays of one shape, in [0,1]; a non-finite
    pixel, images of two shapes or of one the model cannot take, an invalid
    spec, or a batch_size or epochs_max below 1, is refused before any
    corruption is drawn.  A 10% validation split
    (at least one image) is held out, fixed by the seed, with its
    corruptions drawn once so per-epoch PSNR is comparable.  Training
    corruptions are redrawn every epoch for the stochastic kinds.  The
    model is left at the best-validation-PSNR parameters.  A non-finite
    loss, gradient or validation PSNR stops training early: that epoch is
    not recorded, and the model goes back to the best finite epoch, if
    there is one.

    Each batch runs as shards of images_per_batch(H, W) images
    (BATCH_PIXELS per channel), the last one possibly smaller; the first
    batch is one shard, so ActNorm's data-dependent init sees it whole.
    The shards run on threads, the first on the model and the rest on
    replicas over the same parameter arrays, and their losses and gradients
    are summed in shard order before one Adam step.  So the result depends
    on the batch shape only, not on the thread count: min(shards, usable
    CPUs // BLAS threads), with the BLAS thread count read from
    OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS and taken as
    one per CPU when none is set.  No step runs on the calling thread, so
    train() gives the same result inside no_grad.  No thread outlives the
    call.
    """
    images = _check_inputs(model, images, spec, epochs_max, batch_size)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(images))
    n_val = max(1, len(images) // 10)
    train_images = [images[i] for i in order[n_val:]]
    val_xs = [images[i] for i in order[:n_val]]
    val_ys = [degrade(x, spec, rng) for x in val_xs]

    params = model.parameters()
    adam = AdamState.for_params(params)
    sched = LrSchedule()
    history = []
    best = None  # (val_psnr, snapshot)
    last_val_psnr = None
    dtype = model.config.dtype
    shard = images_per_batch(*images[0].shape[-2:])
    replicas = []

    with ThreadPoolExecutor(max_workers=_shard_workers(math.ceil(batch_size / shard))) as pool:
        for epoch in range(1, epochs_max + 1):
            lr, stop = run_schedule(epoch, last_val_psnr, sched)
            if stop:
                break
            xs = [train_images[i] for i in rng.permutation(len(train_images))]
            ys = [degrade(x, spec, rng) for x in xs]

            total = 0.0
            diverged = False
            for start in range(0, len(xs), batch_size):
                batch = slice(start, start + batch_size)
                y = np.stack(ys[batch]).astype(dtype)
                x = np.stack(xs[batch]).astype(dtype)
                loss_val, grads = _loss_and_grads(model, y, x, shard, replicas, pool)
                if not math.isfinite(loss_val):
                    diverged = True
                    break
                try:
                    adam_step(params, grads, adam, lr)
                except NonFiniteGradError:
                    diverged = True
                    break
                del grads  # not held while the next step's tape grows
                total += loss_val * len(x)
            if diverged:
                break

            train_loss = total / len(xs)
            val_psnr = _validate(model, val_xs, val_ys, batch_size)
            if not math.isfinite(val_psnr):
                break
            history.append(EpochRecord(epoch, train_loss, val_psnr, lr))
            if best is None or val_psnr > best[0]:
                best = (val_psnr, model.snapshot())
            last_val_psnr = val_psnr

    if best is not None:
        model.restore(best[1])
    return model, history
