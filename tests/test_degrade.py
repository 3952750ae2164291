"""Degradation checks: noise statistics, JPEG-sim behavior, mask geometry."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irae.degrade import (
    BASE_QUANT_TABLE,
    KINDS,
    DegradationSpec,
    apply_awgn,
    apply_blind_awgn,
    apply_inpaint,
    apply_jpeg_sim,
    degrade,
    make_inpaint_mask,
    quant_table,
)
from irae.metrics import psnr
from synthimages import smooth_patches, textured_patches


class TestAwgn:
    def test_sigma_zero_is_exact(self):
        x = np.random.default_rng(0).uniform(0, 1, (1, 8, 8))
        y = apply_awgn(x, 0.0, np.random.default_rng(1))
        assert np.array_equal(y, x)

    def test_same_seed_identical(self):
        x = np.random.default_rng(2).uniform(0, 1, (1, 8, 8))
        y1 = apply_awgn(x, 25.0, np.random.default_rng(3))
        y2 = apply_awgn(x, 25.0, np.random.default_rng(3))
        assert np.array_equal(y1, y2)

    def test_noise_std_matches_sigma(self):
        x = np.zeros((1, 100, 100))
        y = apply_awgn(x, 25.0, np.random.default_rng(4))
        measured = (y - x).std()
        assert abs(measured - 25.0 / 255.0) < 0.05 * (25.0 / 255.0)

    def test_noise_zero_mean_three_sigma(self):
        x = np.zeros((1, 100, 100))
        y = apply_awgn(x, 25.0, np.random.default_rng(5))
        bound = 3.0 * (25.0 / 255.0) / np.sqrt(x.size)
        assert abs((y - x).mean()) < bound

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            apply_awgn(np.zeros((1, 2, 2)), -1.0, np.random.default_rng(6))

    def test_not_clipped(self):
        x = np.ones((1, 32, 32))
        y = apply_awgn(x, 50.0, np.random.default_rng(7))
        assert y.max() > 1.0  # identity degradation matrix, no clipping


class TestBlindAwgn:
    def test_degenerate_range_equals_fixed_sigma(self):
        x = np.random.default_rng(8).uniform(0, 1, (1, 8, 8))
        y_blind, sigma = apply_blind_awgn(x, (25.0, 25.0), np.random.default_rng(9))
        assert sigma == 25.0
        rng = np.random.default_rng(9)
        rng.uniform(25.0, 25.0)  # the draw the blind path consumed
        y_fixed = apply_awgn(x, 25.0, rng)
        assert np.array_equal(y_blind, y_fixed)

    def test_drawn_sigmas_roughly_uniform(self):
        rng = np.random.default_rng(10)
        x = np.zeros((1, 2, 2))
        draws = np.array([apply_blind_awgn(x, (0.0, 55.0), rng)[1] for _ in range(1000)])
        assert draws.min() >= 0.0 and draws.max() <= 55.0
        # Kolmogorov-Smirnov distance against U[0, 55]
        sorted_draws = np.sort(draws) / 55.0
        grid = (np.arange(1000) + 1) / 1000.0
        ks = np.max(np.abs(sorted_draws - grid))
        assert ks < 0.06

    def test_replay_with_same_seed_reproduces(self):
        x = np.random.default_rng(11).uniform(0, 1, (1, 8, 8))
        y1, s1 = apply_blind_awgn(x, (0.0, 55.0), np.random.default_rng(12))
        y2, s2 = apply_blind_awgn(x, (0.0, 55.0), np.random.default_rng(12))
        assert s1 == s2
        assert np.array_equal(y1, y2)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError, match="sigma_range"):
            apply_blind_awgn(np.zeros((1, 2, 2)), (10.0, 5.0), np.random.default_rng(13))


class TestJpegSim:
    def test_qf50_is_base_table(self):
        np.testing.assert_array_equal(quant_table(50), BASE_QUANT_TABLE)

    def test_quality_range_enforced(self):
        for bad in (0, 101, -3):
            with pytest.raises(ValueError, match="quality factor"):
                quant_table(bad)
        with pytest.raises(ValueError, match="quality factor"):
            apply_jpeg_sim(np.zeros((8, 8)), 0)

    def test_table_entries_clamped(self):
        q1 = quant_table(1)
        q100 = quant_table(100)
        assert q1.max() == 255.0 and q100.min() == 1.0

    def test_constant_image_dc_rounding_bound(self):
        for value in (0.2, 0.5, 0.83):
            x = np.full((16, 16), value)
            y = apply_jpeg_sim(x, 50)
            # only the DC coefficient is nonzero; its quantization error is at
            # most Q[0,0]/2, spread as Q[0,0]/16 per pixel on the 0-255 scale
            bound = quant_table(50)[0, 0] / 16.0 / 255.0
            assert np.max(np.abs(y - x)) <= bound + 1e-12

    def test_psnr_nondecreasing_in_quality(self):
        rng = np.random.default_rng(14)
        images = textured_patches(16, 16, rng)
        means = []
        for qf in (10, 20, 30, 40):
            means.append(np.mean([psnr(apply_jpeg_sim(x, qf), x) for x in images]))
        assert all(a <= b for a, b in zip(means, means[1:]))

    def test_double_compression_near_idempotent(self):
        # observed fixed-point tendency on this seeded data, not a contract
        rng = np.random.default_rng(15)
        for x in textured_patches(8, 24, rng):
            for qf in (10, 40):
                once = apply_jpeg_sim(x, qf)
                twice = apply_jpeg_sim(once, qf)
                assert abs(psnr(once, x) - psnr(twice, x)) < 1.0

    def test_pads_non_multiple_of_8(self):
        x = np.random.default_rng(16).uniform(0, 1, (11, 13))
        y = apply_jpeg_sim(x, 40)
        assert y.shape == x.shape
        assert np.all((y >= 0) & (y <= 1))

    def test_multichannel_applies_per_channel(self):
        x = np.random.default_rng(17).uniform(0, 1, (3, 16, 16))
        y = apply_jpeg_sim(x, 30)
        for c in range(3):
            np.testing.assert_array_equal(y[c], apply_jpeg_sim(x[c], 30))


class TestInpaint:
    def test_mask_fraction_full_scale_ratio(self):
        mask = make_inpaint_mask((256, 256), (128, 128), np.random.default_rng(18))
        assert mask.mean() == 0.25

    def test_mask_fraction_desk_ratio(self):
        mask = make_inpaint_mask((32, 32), (16, 16), np.random.default_rng(19))
        assert mask.mean() == 0.25

    def test_mask_anchor_inside_central_window(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            mask = make_inpaint_mask((32, 32), (8, 8), rng)
            rows, cols = np.nonzero(mask)
            r0, c0 = rows.min(), cols.min()
            assert 8 <= r0 < 24 and 8 <= c0 < 24  # central H/2 x W/2 anchor range
            assert rows.max() < 32 and cols.max() < 32  # block inside the image

    def test_unmasked_pixels_bitwise_equal(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(0, 1, (1, 32, 32))
        mask = make_inpaint_mask((32, 32), (16, 16), rng)
        y = apply_inpaint(x, mask)
        keep = mask == 0
        assert np.array_equal(y[0][keep], x[0][keep])
        assert np.all(y[0][mask == 1] == 0.0)
        np.testing.assert_array_equal(y * (1 - mask), x * (1 - mask))

    def test_oversized_mask_rejected(self):
        with pytest.raises(ValueError, match="central region"):
            make_inpaint_mask((32, 32), (17, 17), np.random.default_rng(22))

    def test_deterministic_given_seed(self):
        m1 = make_inpaint_mask((64, 64), (16, 16), np.random.default_rng(23))
        m2 = make_inpaint_mask((64, 64), (16, 16), np.random.default_rng(23))
        assert np.array_equal(m1, m2)


class TestSpecAndDispatch:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown degradation kind"):
            DegradationSpec(kind="blur").validate()
        with pytest.raises(ValueError, match="sigma"):
            DegradationSpec(sigma=-1.0).validate()
        with pytest.raises(ValueError, match="quality"):
            DegradationSpec(quality_factor=0).validate()
        with pytest.raises(ValueError, match="central region"):
            DegradationSpec(kind="inpaint", mask_size=(20, 20), image_size=(32, 32)).validate()

    @pytest.mark.parametrize("mask_size", [(0, 4), (4, 0), (-1, -1)])
    def test_inpaint_mask_side_below_one_refused(self, mask_size):
        with pytest.raises(ValueError, match="mask size must be positive"):
            DegradationSpec(kind="inpaint", mask_size=mask_size, image_size=(16, 16)).validate()

    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    def test_non_finite_sigma_refused(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite"):
            DegradationSpec(sigma=sigma).validate()

    @pytest.mark.parametrize("sigma_range", [(0.0, math.inf), (math.nan, math.nan)])
    def test_non_finite_sigma_range_refused(self, sigma_range):
        with pytest.raises(ValueError, match="sigma_range"):
            DegradationSpec(sigma_range=sigma_range).validate()

    def test_dispatch_deterministic(self):
        x = smooth_patches(1, 16, np.random.default_rng(24))[0]
        for kind in ("awgn", "blind_awgn", "jpeg", "inpaint"):
            spec = DegradationSpec(kind=kind, mask_size=(8, 8), image_size=(16, 16))
            y1 = degrade(x, spec, np.random.default_rng(25))
            y2 = degrade(x, spec, np.random.default_rng(25))
            assert np.array_equal(y1, y2), kind


def refusal(fn, *args):
    """The message of the ValueError fn(*args) raises, or None when it returns;
    any other exception propagates."""
    try:
        fn(*args)
    except ValueError as e:
        return str(e)
    return None


# a parameter as a caller may pass it: any float (NaN and +-inf included) or
# integer, with the edges of each rule drawn often
NUMBERS = st.one_of(
    st.floats(),
    st.integers(-300, 300),
    st.sampled_from([0, 0.0, -0.0, 0.5, 1, 1.5, 55.0, 100, 100.7, 101, -5, math.nan, math.inf, -math.inf]),
)
PAIRS = st.tuples(NUMBERS, NUMBERS)
# an image or mask side: small integers, or a number no array can have as a side
SIDES = st.one_of(st.integers(-4, 40), st.sampled_from([0.5, 8.0, 16.5, math.nan, math.inf, -math.inf]))


class TestOneRule:
    """Each degradation function refuses its parameter exactly when
    DegradationSpec(...).validate() does, with the same message, and returns
    whenever the spec accepts it."""

    X = np.full((1, 8, 8), 0.5)

    @settings(max_examples=200, deadline=None)
    @given(sigma=NUMBERS)
    @example(sigma=math.nan)
    @example(sigma=math.inf)
    def test_awgn(self, sigma):
        rng = np.random.default_rng(0)
        assert refusal(apply_awgn, self.X, sigma, rng) == refusal(DegradationSpec(sigma=sigma).validate)

    @settings(max_examples=200, deadline=None)
    @given(sigma_range=PAIRS)
    @example(sigma_range=(-5, 5))
    @example(sigma_range=(0.0, -0.0))  # spec accepts it; rng.uniform refuses it
    def test_blind_awgn(self, sigma_range):
        spec = DegradationSpec(sigma_range=sigma_range)
        for seed in range(3):  # the answer must not depend on the draw
            rng = np.random.default_rng(seed)
            assert refusal(apply_blind_awgn, self.X, sigma_range, rng) == refusal(spec.validate)

    @settings(max_examples=200, deadline=None)
    @given(quality_factor=NUMBERS)
    @example(quality_factor=100.7)
    def test_quality_factor(self, quality_factor):
        expected = refusal(DegradationSpec(quality_factor=quality_factor).validate)
        assert refusal(quant_table, quality_factor) == expected
        assert refusal(apply_jpeg_sim, self.X[0], quality_factor) == expected

    @settings(max_examples=300, deadline=None)
    @given(image_size=st.tuples(SIDES, SIDES), mask_size=st.tuples(SIDES, SIDES))
    @example(image_size=(32, 32), mask_size=(math.nan, math.nan))
    def test_inpaint_mask(self, image_size, mask_size):
        spec = DegradationSpec(kind="inpaint", mask_size=mask_size, image_size=image_size)
        rng = np.random.default_rng(0)
        assert refusal(make_inpaint_mask, image_size, mask_size, rng) == refusal(spec.validate)

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(KINDS + ("blur",)),
        sigma=NUMBERS,
        sigma_range=PAIRS,
        quality_factor=NUMBERS,
        mask_size=st.tuples(SIDES, SIDES),
        image_size=st.tuples(st.integers(1, 40), st.integers(1, 40)),
    )
    def test_degrade(self, kind, sigma, sigma_range, quality_factor, mask_size, image_size):
        """degrade() checks the parameter its kind uses, against the image it is given."""
        used = {"awgn": {"sigma": sigma}, "blind_awgn": {"sigma_range": sigma_range},
                "jpeg": {"quality_factor": quality_factor}, "inpaint": {"mask_size": mask_size}}
        spec = DegradationSpec(kind=kind, image_size=image_size, **used.get(kind, {}))
        x = np.full((1, *image_size), 0.5)
        rng = np.random.default_rng(0)
        assert refusal(degrade, x, spec, rng) == refusal(spec.validate)
