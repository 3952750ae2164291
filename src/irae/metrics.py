"""Evaluation metrics: peak signal-to-noise ratio and structural similarity.

Pure functions over numpy arrays.  PSNR is computed on the raw values it is
given (callers clip model outputs to [0,1] first, matching comparison
against 8-bit ground truth); identical images report the documented 100 dB
cap.  SSIM uses the canonical 11x11 Gaussian window, sigma 1.5, K1=0.01,
K2=0.03, dynamic range 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["PSNR_CAP_DB", "psnr", "ssim", "MetricReport"]

PSNR_CAP_DB = 100.0

_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_K1 = 0.01
_K2 = 0.03


def psnr(restored, reference):
    """10*log10(1 / MSE) in dB for peak value 1; MSE pooled over all channels."""
    a = np.asarray(restored, dtype=np.float64)
    b = np.asarray(reference, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"psnr: shape mismatch {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return float(10.0 * np.log10(1.0 / mse))


def _gaussian_window(size, sigma):
    half = (size - 1) / 2.0
    coords = np.arange(size) - half
    g = np.exp(-(coords**2) / (2.0 * sigma**2))
    kernel = np.outer(g, g)
    return kernel / kernel.sum()


_KERNEL = _gaussian_window(_SSIM_WINDOW, _SSIM_SIGMA)


def _filter_valid(img, kernel):
    windows = sliding_window_view(img, kernel.shape)
    return np.tensordot(windows, kernel, axes=([2, 3], [0, 1]))


def _ssim_plane(x, y):
    if x.shape[0] < _SSIM_WINDOW or x.shape[1] < _SSIM_WINDOW:
        raise ValueError(
            f"ssim: image {x.shape} smaller than the {_SSIM_WINDOW}x{_SSIM_WINDOW} window"
        )
    c1 = _K1**2
    c2 = _K2**2
    mu_x = _filter_valid(x, _KERNEL)
    mu_y = _filter_valid(y, _KERNEL)
    var_x = _filter_valid(x * x, _KERNEL) - mu_x**2
    var_y = _filter_valid(y * y, _KERNEL) - mu_y**2
    cov = _filter_valid(x * y, _KERNEL) - mu_x * mu_y
    num = (2 * mu_x * mu_y + c1) * (2 * cov + c2)
    den = (mu_x**2 + mu_y**2 + c1) * (var_x + var_y + c2)
    return float(np.mean(num / den))


def ssim(restored, reference):
    """Mean local SSIM; RGB inputs are averaged after per-channel SSIM."""
    a = np.asarray(restored, dtype=np.float64)
    b = np.asarray(reference, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"ssim: shape mismatch {a.shape} vs {b.shape}")
    if a.ndim == 2:
        return _ssim_plane(a, b)
    if a.ndim == 3:
        return float(np.mean([_ssim_plane(pa, pb) for pa, pb in zip(a, b)]))
    raise ValueError(f"ssim: expected (H,W) or (C,H,W), got shape {a.shape}")


@dataclass
class MetricReport:
    """Per-image PSNR/SSIM values plus their dataset means."""

    names: list = field(default_factory=list)
    psnr_values: list = field(default_factory=list)
    ssim_values: list = field(default_factory=list)

    def add(self, name, psnr_db, ssim_value):
        self.names.append(name)
        self.psnr_values.append(float(psnr_db))
        self.ssim_values.append(float(ssim_value))

    @property
    def psnr_mean(self):
        return float(np.mean(self.psnr_values))

    @property
    def ssim_mean(self):
        return float(np.mean(self.ssim_values))

    def table(self):
        """Tab-separated table with a header row and a mean row."""
        lines = ["\t".join(["image", "psnr_db", "ssim"])]
        for name, p, s in zip(self.names, self.psnr_values, self.ssim_values):
            lines.append("\t".join([name, f"{p:.4f}", f"{s:.4f}"]))
        lines.append("\t".join(["mean", f"{self.psnr_mean:.4f}", f"{self.ssim_mean:.4f}"]))
        return "\n".join(lines)
