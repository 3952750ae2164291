"""PGM/PPM reader/writer checks."""

import numpy as np
import pytest

from irae.pnm import load_pnm, pnm_shape, save_pnm


class TestLoad:
    def test_p5_byte_values(self, tmp_path):
        path = tmp_path / "tiny.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = load_pnm(path)
        assert img.shape == (1, 2, 2)
        np.testing.assert_array_equal(
            img.ravel(), [0.0, 1.0, 128 / 255.0, 64 / 255.0]
        )

    def test_p6_three_channels(self, tmp_path):
        path = tmp_path / "tiny.ppm"
        path.write_bytes(b"P6\n1 2\n255\n" + bytes([10, 20, 30, 40, 50, 60]))
        img = load_pnm(path)
        assert img.shape == (3, 2, 1)
        np.testing.assert_array_equal(img[:, 0, 0] * 255, [10, 20, 30])
        np.testing.assert_array_equal(img[:, 1, 0] * 255, [40, 50, 60])

    def test_header_comments_skipped(self, tmp_path):
        path = tmp_path / "comment.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n# another\n255\n" + bytes([7, 9]))
        img = load_pnm(path)
        np.testing.assert_array_equal(img.ravel() * 255, [7, 9])

    def test_non_pnm_rejected_naming_magic(self, tmp_path):
        path = tmp_path / "bogus.pgm"
        path.write_bytes(b"\x89PNG\r\n")
        with pytest.raises(ValueError, match=r"magic bytes b'\\x89P'"):
            load_pnm(path)

    def test_short_payload_rejected(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))
        with pytest.raises(ValueError, match="expected 4"):
            load_pnm(path)

    def test_sixteen_bit_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n" + bytes([0, 0]))
        with pytest.raises(ValueError, match="8-bit"):
            load_pnm(path)

    def test_scaled_by_maxval(self, tmp_path):
        path = tmp_path / "four_bit.pgm"
        path.write_bytes(b"P5\n3 1\n15\n" + bytes([0, 5, 15]))
        np.testing.assert_array_equal(load_pnm(path).ravel(), [0.0, 1 / 3, 1.0])

    def test_sample_above_maxval_rejected(self, tmp_path):
        path = tmp_path / "over.pgm"
        path.write_bytes(b"P5\n2 1\n15\n" + bytes([15, 200]))
        with pytest.raises(ValueError, match="sample 200 exceeds maxval 15"):
            load_pnm(path)

    def test_shape_from_header(self, tmp_path):
        path = tmp_path / "tiny.ppm"
        path.write_bytes(b"P6\n# comment\n1 2\n255\n" + bytes(6))
        assert pnm_shape(path) == (3, 2, 1)

    def test_garbage_after_payload_rejected(self, tmp_path):
        path = tmp_path / "extra.pgm"
        path.write_bytes(b"P5\n1 1\n255\n" + bytes([5]) + b"unexpected")
        with pytest.raises(ValueError, match="after pixel data"):
            load_pnm(path)


class TestSaveRoundTrip:
    def test_p5_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 1, (1, 5, 7))
        first = tmp_path / "a.pgm"
        second = tmp_path / "b.pgm"
        save_pnm(first, img)
        loaded = load_pnm(first)
        save_pnm(second, loaded)
        assert first.read_bytes() == second.read_bytes()
        np.testing.assert_array_equal(loaded, load_pnm(second))

    def test_p6_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 1, (3, 4, 6))
        first = tmp_path / "a.ppm"
        second = tmp_path / "b.ppm"
        save_pnm(first, img)
        loaded = load_pnm(first)
        save_pnm(second, loaded)
        assert first.read_bytes() == second.read_bytes()

    def test_values_clipped_on_save(self, tmp_path):
        path = tmp_path / "clip.pgm"
        save_pnm(path, np.array([[-0.5, 1.7]]))
        np.testing.assert_array_equal(load_pnm(path).ravel(), [0.0, 1.0])

    def test_two_d_input_accepted(self, tmp_path):
        path = tmp_path / "flat.pgm"
        save_pnm(path, np.full((3, 3), 0.5))
        assert load_pnm(path).shape == (1, 3, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixels_refused(self, tmp_path, bad):
        path = tmp_path / "bad.pgm"
        with pytest.raises(ValueError, match="non-finite"):
            save_pnm(path, np.array([[[0.5, bad], [0.0, 1.0]]]))
        assert not path.exists()

    def test_bad_channel_count_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="channels"):
            save_pnm(tmp_path / "bad.pgm", np.zeros((2, 3, 3)))
