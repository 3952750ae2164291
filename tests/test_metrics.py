"""PSNR/SSIM golden values, closed forms, and metric properties."""

import numpy as np
import pytest

from irae.metrics import PSNR_CAP_DB, psnr, ssim


class TestPsnr:
    def test_mse_001_is_20db(self):
        x = np.zeros((1, 10, 10))
        y = np.full((1, 10, 10), 0.1)  # MSE = 0.01
        assert psnr(y, x) == pytest.approx(20.0, abs=1e-12)

    def test_identical_images_cap(self):
        x = np.random.default_rng(0).uniform(0, 1, (1, 8, 8))
        assert psnr(x, x) == PSNR_CAP_DB

    def test_constant_offset(self):
        x = np.random.default_rng(1).uniform(0, 0.5, (1, 8, 8))
        assert psnr(x + 0.1, x) == pytest.approx(20.0, abs=1e-9)

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        a, b = rng.uniform(0, 1, (2, 1, 8, 8))
        assert psnr(a, b) == psnr(b, a)

    def test_invariant_under_common_shift(self):
        rng = np.random.default_rng(3)
        a, b = rng.uniform(0, 0.5, (2, 1, 8, 8))
        assert psnr(a + 0.2, b + 0.2) == pytest.approx(psnr(a, b), abs=1e-9)

    def test_strictly_decreasing_in_mse(self):
        x = np.zeros((1, 10, 10))
        values = [psnr(np.full_like(x, d), x) for d in (0.01, 0.05, 0.1, 0.4)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            psnr(np.zeros((2, 2)), np.zeros((3, 3)))



class TestSsim:
    def test_identical_images(self):
        x = np.random.default_rng(4).uniform(0, 1, (16, 16))
        assert ssim(x, x) == pytest.approx(1.0, abs=1e-9)

    def test_checkerboard_anticorrelated(self):
        i, j = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
        x = ((i + j) % 2).astype(np.float64)
        assert ssim(x, 1.0 - x) < 0.0

    def test_constant_images_closed_form(self):
        # zero variance: contrast/structure terms collapse to 1 and
        # SSIM = (2vw + C1) / (v^2 + w^2 + C1)
        for v, w in ((0.3, 0.7), (0.1, 0.9), (0.5, 0.5)):
            expected = (2 * v * w + 0.01**2) / (v**2 + w**2 + 0.01**2)
            got = ssim(np.full((12, 12), v), np.full((12, 12), w))
            assert got == pytest.approx(expected, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(5)
        a, b = rng.uniform(0, 1, (2, 16, 16))
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = rng.uniform(0, 1, (13, 17))
            b = rng.uniform(0, 1, (13, 17))
            assert abs(ssim(a, b)) <= 1.0
            assert ssim(a, b) < 1.0  # independent noise never matches exactly

    def test_small_image_rejected(self):
        with pytest.raises(ValueError, match="window"):
            ssim(np.zeros((10, 10)), np.zeros((10, 10)))

    def test_multichannel_averages_per_channel(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(0, 1, (3, 16, 16))
        b = rng.uniform(0, 1, (3, 16, 16))
        per_channel = [ssim(a[c], b[c]) for c in range(3)]
        assert ssim(a, b) == pytest.approx(np.mean(per_channel), abs=1e-12)

