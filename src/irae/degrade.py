"""Synthetic degradations: additive Gaussian noise, JPEG-style compression,
and inpainting masks, i.e. y = A (*) x + n with A elementwise.

All functions are pure given (inputs, rng): the same seed always reproduces
the same corruption.  Noise levels follow the 0-255 convention and are
divided by 255 for [0,1] images.  Noisy images are intentionally NOT
clipped; clipping is an export concern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

__all__ = [
    "DegradationSpec",
    "apply_awgn",
    "apply_blind_awgn",
    "quant_table",
    "apply_jpeg_sim",
    "make_inpaint_mask",
    "apply_inpaint",
    "degrade",
]

KINDS = ("awgn", "blind_awgn", "jpeg", "inpaint")

# Standard base luminance quantization table (8x8, zigzag-free layout).
BASE_QUANT_TABLE = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float64,
)


def _dct_matrix():
    # orthonormal 8-point DCT-II
    j = np.arange(8)
    t = np.sqrt(2.0 / 8.0) * np.cos((2 * j[None, :] + 1) * j[:, None] * np.pi / 16.0)
    t[0, :] = 1.0 / np.sqrt(8.0)
    return t


_DCT8 = _dct_matrix()


@dataclass(frozen=True)
class DegradationSpec:
    """Task descriptor: which corruption to apply and with what knobs."""

    kind: str = "awgn"
    sigma: float = 25.0  # noise std on the 0-255 scale
    sigma_range: tuple = (0.0, 55.0)  # blind denoising draw range
    quality_factor: int = 40
    mask_size: tuple = (16, 16)
    image_size: tuple = (32, 32)

    def validate(self):
        """Each parameter's one rule; every degradation function checks its parameter here."""
        if self.kind not in KINDS:
            raise ValueError(f"unknown degradation kind {self.kind!r}; choose from {KINDS}")
        # written so that NaN fails each comparison
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        lo, hi = self.sigma_range
        if not 0 <= lo <= hi < math.inf:
            raise ValueError(f"bad sigma_range {self.sigma_range}: need finite 0 <= lo <= hi")
        if not 1 <= self.quality_factor <= 100:
            raise ValueError(f"quality factor must be in 1..100, got {self.quality_factor}")
        if self.kind != "inpaint":
            return
        (mh, mw), (h, w) = self.mask_size, self.image_size
        if not all(isinstance(n, Integral) for n in (mh, mw, h, w)):
            raise ValueError(f"mask and image sizes must be integers, got {mh}x{mw} and {h}x{w}")
        if mh < 1 or mw < 1:
            raise ValueError(f"mask size must be positive, got {mh}x{mw}")
        if mh > h // 2 or mw > w // 2:
            raise ValueError(f"mask {mh}x{mw} larger than the central region of a {h}x{w} image")


def apply_awgn(x, sigma, rng):
    """y = x + n with n ~ N(0, (sigma/255)^2) i.i.d.; A is the identity."""
    DegradationSpec(sigma=sigma).validate()
    x = np.asarray(x, dtype=np.float64)
    if sigma == 0:
        return x.copy()
    return x + rng.normal(0.0, sigma / 255.0, size=x.shape)


def apply_blind_awgn(x, sigma_range, rng):
    """Draw sigma ~ U[lo, hi] for this image, then add the noise.

    Returns (y, sigma_drawn) so a run can be replayed.
    """
    DegradationSpec(sigma_range=sigma_range).validate()
    lo, hi = sigma_range
    # rng.uniform's own formula, written out: rng.uniform refuses (0.0, -0.0),
    # which the spec accepts
    sigma = float(lo + (hi - lo) * rng.random())
    return apply_awgn(x, sigma, rng), sigma


def quant_table(quality_factor):
    """Base luminance table scaled by the conventional quality rule.

    scale = 5000/QF below 50, else 200 - 2*QF; entries are
    clamp(round(base*scale/100), 1, 255) with round-half-up, so QF=50
    reproduces the base table exactly.
    """
    DegradationSpec(quality_factor=quality_factor).validate()
    qf = int(quality_factor)
    scale = 5000.0 / qf if qf < 50 else 200.0 - 2.0 * qf
    return np.clip(np.floor((BASE_QUANT_TABLE * scale + 50.0) / 100.0), 1.0, 255.0)


def apply_jpeg_sim(x, quality_factor):
    """Block-DCT quantization round trip over 8x8 tiles, per channel.

    An in-process stand-in for a JPEG codec: same frequency-domain loss
    profile, bit-exact reproducibility, no bitstream.  Edge padding fills
    each plane out to whole tiles and is cropped off again.
    """
    q = quant_table(quality_factor)
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim not in (2, 3):
        raise ValueError(f"expected (H,W) or (C,H,W) image, got shape {arr.shape}")
    *lead, h, w = arr.shape
    padded = np.pad(arr, [(0, 0)] * len(lead) + [(0, -h % 8), (0, -w % 8)], mode="edge")
    ph, pw = padded.shape[-2:]
    # level-shifted 0-255 blocks, 2-D DCT, quantize/dequantize, inverse DCT
    blocks = (padded * 255.0 - 128.0).reshape(*lead, ph // 8, 8, pw // 8, 8).swapaxes(-3, -2)
    coeff = _DCT8 @ blocks @ _DCT8.T
    coeff = np.round(coeff / q) * q
    recon = _DCT8.T @ coeff @ _DCT8
    out = (recon.swapaxes(-3, -2).reshape(padded.shape) + 128.0) / 255.0
    return np.clip(out[..., :h, :w], 0.0, 1.0)


def make_inpaint_mask(image_size, mask_size, rng):
    """Binary (H,W) mask: an mh x mw block of ones at a random position.

    The block's top-left corner is drawn uniformly over the central
    H/2 x W/2 window, restricted so the whole block stays inside the image;
    a mask larger than the central region is rejected.
    """
    DegradationSpec(kind="inpaint", mask_size=mask_size, image_size=image_size).validate()
    (h, w), (mh, mw) = image_size, mask_size
    r0, r1 = h // 4, min(3 * h // 4, h - mh + 1)
    c0, c1 = w // 4, min(3 * w // 4, w - mw + 1)
    r = int(rng.integers(r0, r1))
    c = int(rng.integers(c0, c1))
    mask = np.zeros((h, w), dtype=np.float64)
    mask[r : r + mh, c : c + mw] = 1.0
    return mask


def apply_inpaint(x, mask):
    """Zero out masked pixels: y = x * (1 - mask), exact elsewhere."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-2:] != mask.shape:
        raise ValueError(f"mask {mask.shape} does not match image {x.shape}")
    return x * (1.0 - mask)


def degrade(x, spec, rng):
    """Apply the corruption described by spec to one (C,H,W) image."""
    if spec.kind == "awgn":
        return apply_awgn(x, spec.sigma, rng)
    if spec.kind == "blind_awgn":
        return apply_blind_awgn(x, spec.sigma_range, rng)[0]
    if spec.kind == "jpeg":
        return apply_jpeg_sim(x, spec.quality_factor)
    if spec.kind == "inpaint":
        x = np.asarray(x)
        return apply_inpaint(x, make_inpaint_mask(x.shape[-2:], spec.mask_size, rng))
    DegradationSpec(kind=spec.kind).validate()  # refuses the unknown kind in the spec's words
