"""Portable FloatMap (PFM) reader/writer.

Only the little-endian form is supported (scale line < 0); headers are
`PF` for 3-channel and `Pf` for 1-channel maps, rows stored bottom-to-top
as raw 32-bit floats.
"""

from __future__ import annotations

import os

import numpy as np


class PfmError(ValueError):
    """Malformed or unsupported PFM content."""


def _read_token(f) -> bytes:
    # skip leading whitespace, then read one whitespace-delimited token
    tok = b""
    while True:
        c = f.read(1)
        if not c:
            raise PfmError("unexpected end of file in PFM header")
        if c in b" \t\r\n":
            if tok:
                return tok
            continue
        tok += c


def read_pfm(path) -> np.ndarray:
    """Load a PFM file as float32, shape (H, W) for `Pf` or (H, W, 3) for `PF`."""
    with open(path, "rb") as f:
        try:
            magic = _read_token(f)
        except PfmError as e:  # an empty or blank file
            raise PfmError(f"malformed PFM header in {path}: {e}") from e
        if magic == b"PF":
            channels = 3
        elif magic == b"Pf":
            channels = 1
        else:
            raise PfmError(f"not a PFM file (magic {magic!r}): {path}")
        try:
            width = int(_read_token(f))
            height = int(_read_token(f))
            scale = float(_read_token(f))
        except ValueError as e:
            raise PfmError(f"malformed PFM header in {path}: {e}") from e
        if width <= 0 or height <= 0:
            raise PfmError(f"bad PFM dimensions {width}x{height} in {path}")
        if not np.isfinite(scale):
            raise PfmError(f"non-finite PFM scale {scale} in {path}")
        if scale >= 0:
            raise PfmError(f"unsupported endianness (big-endian PFM, scale {scale}) in {path}")
        size = 4 * width * height * channels
        # checked before reading, so a header claiming more than the file
        # holds fails here, not in allocating its payload
        if size > os.fstat(f.fileno()).st_size - f.tell():
            raise PfmError(f"truncated PFM payload in {path}")
        data = np.frombuffer(f.read(size), dtype="<f4").reshape(height, width, channels)
    data = data[::-1].copy()  # bottom-to-top on disk
    return data[:, :, 0] if channels == 1 else data


def write_pfm(path, data: np.ndarray) -> None:
    """Write a (H, W) or (H, W, 3) float array as little-endian PFM."""
    arr = np.asarray(data)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3 or arr.shape[2] not in (1, 3):
        raise PfmError(f"PFM needs 1 or 3 channels, got shape {np.asarray(data).shape}")
    magic = b"Pf" if arr.shape[2] == 1 else b"PF"
    h, w = arr.shape[:2]
    payload = arr[::-1].astype("<f4").tobytes()
    with open(path, "wb") as f:
        f.write(magic + b"\n")
        f.write(f"{w} {h}\n".encode("ascii"))
        f.write(b"-1.0\n")
        f.write(payload)
