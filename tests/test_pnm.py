"""PGM/PPM reader/writer checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize(
    "header, shape",
    [
        (b"P516 16 255\n", (1, 16, 16)),
        (b"P5#x\n16 16 255\n", (1, 16, 16)),
        (b"P5\t16\r16\x0b255\n", (1, 16, 16)),
        (b"P5 16 16 255\n", (1, 16, 16)),
        (b"P5\n#" + b"c" * 5000 + b"\n16 16\n255\n", (1, 16, 16)),
        (b"P5\n16#c\n16 255\n", None),
        (b"P5\n1_6 16\n255\n", None),
        (b"P5\n16 +16\n255\n", None),
        # refused only if the comment runs to the end of its line
        (b"P5 #16 16 255\n", None),
    ],
    ids=["glued-magic", "comment-after-magic", "tab-cr-vt", "one-line", "5000-byte-comment",
         "comment-glued-to-number", "underscore", "plus-sign", "comment-hides-numbers"],
)
def test_header_rule(tmp_path, header, shape):
    """Header numbers are ASCII decimal digits ended by whitespace, after any
    whitespace and comments; each case carries 256 pixel bytes."""
    path = tmp_path / "h.pgm"
    path.write_bytes(header + bytes(256))
    if shape is None:
        with pytest.raises(ValueError, match="malformed header") as refused:
            load_pnm(path)
        assert str(path) in str(refused.value)
    else:
        assert load_pnm(path).shape == shape
        assert pnm_shape(path) == shape


@st.composite
def mutated_pnm(draw):
    """A valid P5/P6 file with one to three bytes overwritten, inserted or
    deleted, three draws in four inside the header after the magic."""
    channels = draw(st.sampled_from([1, 3]))
    height, width = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    maxval = draw(st.sampled_from([1, 15, 255]))
    magic = b"P5" if channels == 1 else b"P6"
    header = magic + b"\n%d %d\n%d\n" % (width, height, maxval)
    size = channels * height * width
    pixels = draw(st.lists(st.integers(0, maxval), min_size=size, max_size=size))
    blob = bytearray(header + bytes(pixels))
    byte = st.one_of(st.sampled_from(b" \t\n\r\x0b\x0c#0123456789+-_P56"), st.integers(0, 255))
    for _ in range(draw(st.integers(1, 3))):
        lo, hi = (2, len(header)) if draw(st.integers(0, 3)) < 3 else (0, len(blob))
        pos = draw(st.integers(min(lo, len(blob)), min(hi, len(blob))))
        op = draw(st.sampled_from(["overwrite", "insert", "delete"]))
        if op == "insert" or pos == len(blob):
            blob.insert(pos, draw(byte))
        elif op == "overwrite":
            blob[pos] = draw(byte)
        else:
            del blob[pos]
    return bytes(blob)


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


@settings(max_examples=300, deadline=None)
@given(blob=mutated_pnm())
def test_mutated_file_loads_or_is_refused_naming_path(mutation_dir, blob):
    path = mutation_dir / "mutated.pnm"
    path.write_bytes(blob)
    try:
        img = load_pnm(path)
    except ValueError as e:
        assert str(path) in str(e)
        return
    assert img.dtype == np.float64 and img.ndim == 3
    assert img.shape[0] == {b"P5": 1, b"P6": 3}[blob[:2]]
    assert pnm_shape(path) == img.shape
    assert 0.0 <= img.min() and img.max() <= 1.0


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
