"""Evaluation metrics: peak signal-to-noise ratio and structural similarity.

Pure functions over numpy arrays.  PSNR is computed on the raw values it is
given (callers clip model outputs to [0,1] first, matching comparison
against 8-bit ground truth); identical images report the documented 100 dB
cap.  SSIM uses the canonical 11x11 Gaussian window, sigma 1.5, K1=0.01,
K2=0.03, dynamic range 1.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["PSNR_CAP_DB", "psnr", "ssim"]

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


def ssim(restored, reference):
    """Mean local SSIM; RGB inputs are averaged after per-channel SSIM."""
    a = np.asarray(restored, dtype=np.float64)
    b = np.asarray(reference, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"ssim: shape mismatch {a.shape} vs {b.shape}")
    if a.ndim not in (2, 3):
        raise ValueError(f"ssim: expected (H,W) or (C,H,W), got shape {a.shape}")
    h, w = a.shape[-2:]
    if h < _SSIM_WINDOW or w < _SSIM_WINDOW:
        raise ValueError(
            f"ssim: image {(h, w)} smaller than the {_SSIM_WINDOW}x{_SSIM_WINDOW} window"
        )
    c1 = _K1**2
    c2 = _K2**2
    scores = []
    for x, y in zip(a.reshape(-1, h, w), b.reshape(-1, h, w)):
        mu_x = _filter_valid(x, _KERNEL)
        mu_y = _filter_valid(y, _KERNEL)
        var_x = _filter_valid(x * x, _KERNEL) - mu_x**2
        var_y = _filter_valid(y * y, _KERNEL) - mu_y**2
        cov = _filter_valid(x * y, _KERNEL) - mu_x * mu_y
        num = (2 * mu_x * mu_y + c1) * (2 * cov + c2)
        den = (mu_x**2 + mu_y**2 + c1) * (var_x + var_y + c2)
        scores.append(np.mean(num / den))
    return float(np.mean(scores))
