"""Binary PGM (P5) and PPM (P6) reading and writing, 8-bit, dependency-free.

The header is the magic, then width, height and maxval: each is ASCII
decimal digits (at most 9 after any leading zeros) ended by one whitespace
byte, after any whitespace and '#' comments, a comment running to the end of
its line.  The pixel data starts right after maxval's whitespace byte.
A stored value v becomes v/maxval, so full white is 1.0 at any maxval in
1..255, and a sample above maxval is refused.  Files are written with maxval
255, so an image round-trips load -> save -> load bitwise.  Non-finite
pixels are refused on save.
"""

from __future__ import annotations

import os
import re
from stat import S_ISREG

import numpy as np

__all__ = ["load_pnm", "pnm_shape", "save_pnm"]

_MAGIC_CHANNELS = {b"P5": 1, b"P6": 3}
# a comment must reach its line end, so it cannot stop early and hide a number
_FIELD = rb"(?:\s|#[^\r\n]*[\r\n])*0*([0-9]{1,9})\s"
_HEADER = re.compile(rb"P[56]" + _FIELD * 3)


def open_regular(path, error=ValueError):
    """(binary file object, its fstat) for path, or error naming it if not a regular file; the
    open does not wait for a FIFO's writer, and nothing is read before the check."""
    f = open(os.open(path, os.O_RDONLY | getattr(os, "O_NONBLOCK", 0)), "rb")
    st = os.fstat(f.fileno())
    if not S_ISREG(st.st_mode):
        f.close()
        raise error(f"{path}: not a regular file")
    return f, st


def _header(path):
    """(file bytes, (C,H,W), maxval, offset of the pixel data past the header)."""
    with open_regular(path)[0] as f:
        blob = f.read()
    magic = blob[:2]
    if magic not in _MAGIC_CHANNELS:
        raise ValueError(
            f"{path}: not a binary PGM/PPM file (magic bytes {magic!r}, expected P5 or P6)"
        )
    m = _HEADER.match(blob)
    if m is None:
        raise ValueError(f"{path}: malformed header")
    width, height, maxval = map(int, m.groups())
    if width <= 0 or height <= 0:
        raise ValueError(f"{path}: bad dimensions {width}x{height}")
    if not 1 <= maxval <= 255:
        raise ValueError(f"{path}: maxval {maxval} unsupported (8-bit only)")
    return blob, (_MAGIC_CHANNELS[magic], height, width), maxval, m.end()


def pnm_shape(path):
    """(C,H,W) of a binary PGM/PPM file, read from its header; no pixel is decoded."""
    return _header(path)[1]


def load_pnm(path):
    """Read a binary PGM/PPM file into a (C,H,W) float array in [0,1]."""
    blob, (channels, height, width), maxval, pos = _header(path)
    need = width * height * channels
    payload = blob[pos : pos + need]
    if len(payload) < need:
        raise ValueError(f"{path}: payload has {len(payload)} bytes, expected {need}")
    trailing = blob[pos + need :]
    if trailing.strip():
        raise ValueError(f"{path}: {len(trailing)} unexpected bytes after pixel data")
    samples = np.frombuffer(payload, dtype=np.uint8)
    if maxval < 255 and samples.max() > maxval:
        raise ValueError(f"{path}: sample {samples.max()} exceeds maxval {maxval}")
    pixels = samples.astype(np.float64) / maxval
    return pixels.reshape(height, width, channels).transpose(2, 0, 1)


def save_pnm(path, image):
    """Write a (C,H,W) or (H,W) float image in [0,1] as 8-bit PGM/PPM."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[0] not in (1, 3):
        raise ValueError(f"expected (H,W) or (C,H,W) with 1 or 3 channels, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{path}: image has non-finite pixels")
    data = np.rint(np.clip(arr, 0.0, 1.0) * 255.0).astype(np.uint8)
    channels, height, width = data.shape
    magic = b"P5" if channels == 1 else b"P6"
    header = magic + f"\n{width} {height}\n255\n".encode("ascii")
    with open(path, "wb") as f:
        f.write(header + data.transpose(1, 2, 0).tobytes())
