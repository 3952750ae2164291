"""Symmetric invertible encoder-decoder assembled from flow layers.

The encoder runs L levels of [squeeze, then K x (ActNorm, 1x1 conv, affine
coupling)]; the decoder mirrors the structure with its own parameters, each
level being [K flow steps, then unsqueeze].  Output shape always equals
input shape, and the whole map has an exact algebraic inverse.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .layers import (
    ActNorm,
    AffineCoupling,
    InvertibleConv1x1,
    random_orthogonal,
    squeeze,
    squeeze_array,
    unsqueeze,
    unsqueeze_array,
)
from .pnm import open_regular

__all__ = [
    "IraeConfig",
    "IraeModel",
    "BATCH_PIXELS",
    "images_per_batch",
    "build",
    "param_count_formula",
    "randomize_parameters",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointError",
]

PRECISION_DTYPES = {"float32": np.float32, "float64": np.float64}

CHECKPOINT_MAGIC = b"IRAE"
CHECKPOINT_VERSION = 1
# magic, version, flow_steps, levels, hidden_width, in_channels,
# precision code, actnorm-initialized flag, padding, seed, parameter count
_HEADER = struct.Struct("<4sIIIIIBBHQQ")

# restore, verify and each training shard run the model on at most this many
# pixels per channel (and at least one image), so a batch holds no more
# activations than eight 32x32 images; on a K=16 L=2 h=29 RGB model (5.05 MiB
# of float32 parameters) a restore batch adds 1.35 MiB, less than the model
BATCH_PIXELS = 2**13


def images_per_batch(height, width):
    """How many height x width images one batch of BATCH_PIXELS holds (>= 1)."""
    return max(1, BATCH_PIXELS // (height * width))


class CheckpointError(ValueError):
    """Checkpoint file is malformed, truncated, or of an unknown version."""


@dataclass(frozen=True)
class IraeConfig:
    """Architecture hyperparameters; defaults follow the reference setup."""

    flow_steps: int = 16  # K: flow steps per level
    levels: int = 2  # L: squeeze levels in the encoder (mirrored in decoder)
    hidden_width: int = 64  # coupling net hidden channels
    in_channels: int = 1
    precision: str = "float32"
    seed: int = 0

    def validate(self):
        sizes = {name: getattr(self, name) for name in ("flow_steps", "levels", "hidden_width", "in_channels")}
        problems = [f"{name} must be >= 1, got {value}" for name, value in sizes.items() if value < 1]
        if self.precision not in PRECISION_DTYPES:
            problems.append(f"precision must be one of {sorted(PRECISION_DTYPES)}, got {self.precision!r}")
        if not 0 <= self.seed < 2**64:
            problems.append(f"seed must fit in 64 bits, got {self.seed}")
        if problems:
            raise ValueError("invalid config: " + "; ".join(problems))

    @property
    def dtype(self):
        return PRECISION_DTYPES[self.precision]


class _FlowStep:
    """One (ActNorm, invertible 1x1 convolution, affine coupling) triple."""

    def __init__(self, channels, hidden, rng, dtype):
        self.norm = ActNorm(channels, dtype=dtype)
        self.mix = InvertibleConv1x1(channels, rng=rng, dtype=dtype)
        self.coupling = AffineCoupling(channels, hidden, rng=rng, dtype=dtype)

    def forward(self, x):
        """Drops the ActNorm output a and the 1x1 output m once read, so the tape keeps x:
        the coupling's rule, which runs first in backward, rebuilds m, and a with it."""
        if not self.norm.initialized:
            self.norm.initialize(x)
        a = self.norm.forward(x)
        m = self.mix.forward(a)
        a.drop()
        del a  # inference, which drops nothing, frees it here too
        y = self.coupling.forward(m)
        m.drop()
        return y

    def inverse(self, y):
        y = self.coupling.inverse(y)
        y = self.mix.inverse(y)
        return self.norm.inverse(y)

    def parameters(self):
        return self.norm.parameters() + self.mix.parameters() + self.coupling.parameters()


class IraeModel:
    """Built via build(); holds independent encoder and decoder stacks."""

    def __init__(self, config, encoder_levels, decoder_levels):
        self.config = config
        self.encoder_levels = encoder_levels
        self.decoder_levels = decoder_levels

    # -- shape plumbing ----------------------------------------------------

    def _check_input(self, shape):
        cfg = self.config
        if len(shape) != 4:
            raise ValueError(f"expected [N,C,H,W] input, got shape {shape}")
        n, c, h, w = shape
        if c != cfg.in_channels:
            raise ValueError(f"model expects {cfg.in_channels} channels, got {c}")
        div = 2**cfg.levels
        if h % div or w % div:
            raise ValueError(f"H and W must be divisible by {div}, got {h}x{w}")

    def _as_input_tensor(self, x):
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        self._check_input(data.shape)
        if data.dtype == self.config.dtype:
            return x if isinstance(x, Tensor) else Tensor(data)
        if isinstance(x, Tensor) and x.requires_grad:
            raise ValueError(
                f"differentiable input dtype {data.dtype} must match model precision "
                f"{self.config.precision}"
            )
        return Tensor(data.astype(self.config.dtype))

    # -- the invertible map ------------------------------------------------

    def forward(self, y):
        """Restoration estimate for a degraded batch; same shape out as in.

        On the very first batch each ActNorm initializes itself from the
        activations it sees (the decoder thereby sees the encoder's output).
        """
        x = self._as_input_tensor(y)
        for stage, _ in self._stages():
            x = stage(x)
        return x

    def inverse(self, xhat):
        """Exact algebraic inverse of forward: its stages' inverses in reverse order."""
        data = xhat.data if isinstance(xhat, Tensor) else np.asarray(xhat)
        self._check_input(data.shape)
        data = data.astype(self.config.dtype, copy=False)
        for _, stage in reversed(list(self._stages())):
            data = stage(data)
        return Tensor(data)

    def _stages(self):
        """Each stage's (forward, inverse) in forward order: an encoder level's squeeze, then its steps;
        a decoder level's steps, then its unsqueeze.  Names resolve as it runs, so a patched squeeze applies."""
        for level in self.encoder_levels:
            yield squeeze, unsqueeze_array
            yield from ((step.forward, step.inverse) for step in level)
        for level in self.decoder_levels:
            yield from ((step.forward, step.inverse) for step in level)
            yield unsqueeze, squeeze_array

    # -- parameter access ----------------------------------------------------

    def _steps(self):
        """Every flow step, encoder then decoder: the checkpoint traversal order."""
        for level in self.encoder_levels + self.decoder_levels:
            yield from level

    def parameters(self):
        """All learnable tensors in the fixed (checkpoint) traversal order."""
        return [p for step in self._steps() for p in step.parameters()]

    def replica(self):
        """A model over this one's parameter arrays, shared without a copy,
        but with its own leaf Tensors and ActNorm flags.  A thread can run
        forward and backward on it in its own grad mode: the grads collect
        apart from this model's, and an in-place update of this model's
        parameters reaches it.  Build it only once every ActNorm is
        initialized, or it would initialize the shared arrays itself."""
        twin = _assemble(self.config, None)
        for mine, theirs in zip(self.parameters(), twin.parameters()):
            theirs.data = mine.data
        for mine, theirs in zip(self._steps(), twin._steps()):
            theirs.norm.initialized = mine.norm.initialized
        return twin

    @property
    def actnorms_initialized(self):
        return all(step.norm.initialized for step in self._steps())

    def snapshot(self):
        """Copy of all parameter values plus the ActNorm-initialized flag."""
        return [p.data.copy() for p in self.parameters()], self.actnorms_initialized

    def restore(self, snapshot):
        """Load a (parameter arrays, ActNorm-initialized flag) pair, as made by
        snapshot(); each array must have its parameter's shape and is cast to
        the model's dtype."""
        arrays, initialized = snapshot
        params = self.parameters()
        if len(arrays) != len(params):
            raise ValueError("snapshot does not match model structure")
        for i, (p, a) in enumerate(zip(params, arrays)):
            if np.shape(a) != p.shape:
                raise ValueError(
                    f"snapshot parameter {i} has shape {np.shape(a)}, model expects {p.shape}"
                )
        for p, a in zip(params, arrays):
            p.data[...] = a
        for step in self._steps():
            step.norm.initialized = initialized


def build(config):
    """Deterministically construct a model from its config and seed.

    Couplings start as near-identities (zero-initialized final conv) and
    every ActNorm is flagged uninitialized until the first batch.
    """
    config.validate()
    return _assemble(config, np.random.default_rng(config.seed))


def _assemble(config, rng):
    """The model's layers, initialized from rng in build's draw order; with
    rng None nothing is drawn (identity 1x1 weights, zero convs), for callers
    that restore every parameter straight afterwards."""

    def level(index):
        channels = config.in_channels * 4**index
        return [
            _FlowStep(channels, config.hidden_width, rng, config.dtype)
            for _ in range(config.flow_steps)
        ]

    enc = [level(i) for i in range(1, config.levels + 1)]
    dec = [level(i) for i in range(config.levels, 0, -1)]
    return IraeModel(config, enc, dec)


def param_count_formula(flow_steps, levels, in_channels, hidden_width):
    """Closed-form learnable-scalar count for a (K, L, C, h) configuration.

    Per flow step at channel count c: ActNorm 2c, 1x1 conv c^2, coupling net
    9*h*(c/2) + h  +  9*h*h + h  +  9*h*c + c.  Each of the L levels holds K
    steps at c = C*4^level, and the decoder doubles everything.
    """
    k, c_in, h = flow_steps, in_channels, hidden_width
    total = 0
    for level in range(1, levels + 1):
        c = c_in * 4**level
        step = 2 * c + c * c + (9 * h * (c // 2) + h) + (9 * h * h + h) + (9 * h * c + c)
        total += k * step
    return 2 * total


def randomize_parameters(model, rng):
    """Overwrite all parameters with random valid values (verification use).

    Draws stay inside the numerically well-conditioned regime that
    data-dependent initialization and training produce: ActNorm scales near
    1, fresh random orthogonal 1x1 weights, small Gaussian coupling nets,
    and the coupling scale gate biased so s stays close to 1 (a scale gate
    stuck far below 1 amplifies inverse rounding error exponentially in the
    flow depth, which would measure float noise, not invertibility).  All
    ActNorms are marked initialized.
    """
    dtype = model.config.dtype
    for step in model._steps():
        step.norm.scale.data[...] = rng.uniform(0.85, 1.2, step.norm.channels).astype(dtype)
        step.norm.bias.data[...] = (0.1 * rng.standard_normal(step.norm.channels)).astype(dtype)
        step.norm.initialized = True
        step.mix.weight.data[...] = random_orthogonal(step.mix.channels, rng, dtype)
        coupling = step.coupling
        for p in (coupling.w1, coupling.b1, coupling.w2, coupling.b2, coupling.w3):
            p.data[...] = (0.05 * rng.standard_normal(p.shape)).astype(dtype)
        half = coupling.channels // 2
        gate_bias = np.empty(coupling.channels)
        gate_bias[:half] = rng.uniform(1.0, 3.0, half)
        gate_bias[half:] = 0.05 * rng.standard_normal(half)
        coupling.b3.data[...] = gate_bias.astype(dtype)
    return model


# ---------------------------------------------------------------------------
# Checkpoint serialization
# ---------------------------------------------------------------------------

_PRECISION_CODES = {"float32": 0, "float64": 1}
_CODE_PRECISIONS = {v: k for k, v in _PRECISION_CODES.items()}


def save_checkpoint(model, path):
    """Write magic, version, config block, then the little-endian parameter
    stream in traversal order (f32 for float32 models, f64 for float64)."""
    cfg = model.config
    params = model.parameters()
    count = sum(p.size for p in params)
    header = _HEADER.pack(
        CHECKPOINT_MAGIC,
        CHECKPOINT_VERSION,
        cfg.flow_steps,
        cfg.levels,
        cfg.hidden_width,
        cfg.in_channels,
        _PRECISION_CODES[cfg.precision],
        1 if model.actnorms_initialized else 0,
        0,
        cfg.seed,
        count,
    )
    wire = np.dtype(cfg.dtype).newbyteorder("<")
    with open(path, "wb") as f:
        f.write(header)
        for p in params:
            f.write(np.ascontiguousarray(p.data, dtype=wire))


def load_checkpoint(path):
    """Rebuild a model from a checkpoint; the file's config wins.

    The file must be regular, which is checked before any read.  The header
    is checked before anything is allocated, and the payload length comes
    from the size of the file.  Each parameter is read straight into the
    model's own array, so loading holds the parameters once, with no second
    copy of the payload."""
    f, st = open_regular(path, CheckpointError)
    with f:
        header = f.read(_HEADER.size)
        if header[:4] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad magic bytes {header[:4]!r}, expected {CHECKPOINT_MAGIC!r}")
        if len(header) < _HEADER.size:
            raise CheckpointError(f"checkpoint truncated: {len(header)} bytes is too short")
        (_magic, version, flow_steps, levels, hidden_width, in_channels, precision_code,
         initialized, pad, seed, count) = _HEADER.unpack(header)
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        if initialized > 1:
            raise CheckpointError(f"ActNorm-initialized flag {initialized}, expected 0 or 1")
        if pad:
            raise CheckpointError(f"header padding is {pad}, expected 0")
        if precision_code not in _CODE_PRECISIONS:
            raise CheckpointError(f"unknown precision code {precision_code}")
        config = IraeConfig(
            flow_steps=flow_steps,
            levels=levels,
            hidden_width=hidden_width,
            in_channels=in_channels,
            precision=_CODE_PRECISIONS[precision_code],
            seed=seed,
        )
        try:
            config.validate()
        except ValueError as e:
            raise CheckpointError(f"checkpoint config invalid: {e}") from None
        # compared before build(), which allocates whatever the header claims; the
        # deepest level's 1x1 weights alone hold 16**levels scalars, so a count
        # below 2**levels cannot match, and the formula's loop over levels stays short
        if levels > count.bit_length() or count != param_count_formula(
            flow_steps, levels, in_channels, hidden_width
        ):
            raise CheckpointError("parameter count does not match the stored config")
        wire = np.dtype(config.dtype).newbyteorder("<")
        payload = st.st_size - _HEADER.size
        expected = count * wire.itemsize
        if payload != expected:
            raise CheckpointError(f"checkpoint payload is {payload} bytes, expected {expected}")
        model = _assemble(config, None)
        for p in model.parameters():
            if f.readinto(p.data) != p.data.nbytes:
                raise CheckpointError("checkpoint payload ended early: the file shrank while loading")
            if not wire.isnative:
                p.data.byteswap(inplace=True)
            if not np.isfinite(p.data).all():
                raise CheckpointError("checkpoint holds non-finite parameter values")
        if f.read(1):
            raise CheckpointError("checkpoint payload has bytes after the last parameter")
    for step in model._steps():
        step.norm.initialized = bool(initialized)
    return model
