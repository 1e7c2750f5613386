"""Binary (P5) PGM: the one 16-bit encoder (``to_codes``), its writer, its reader
and an 8/16-bit reader."""

from __future__ import annotations

import re

import numpy as np

MAXVAL_16 = 65535
# P5, width, height and maxval, whitespace or # comments between, one whitespace byte after
_SEP = rb"\s(?:\s|#[^\n]*\n)*"
_HEADER = re.compile(rb"P5" + _SEP + rb"(\d+)" + _SEP + rb"(\d+)" + _SEP + rb"(\d+)\s")


def to_codes(values, peak: float) -> np.ndarray:
    """Rounded 16-bit codes of nonnegative intensities, ``peak`` (the maximum of
    all values encoded on one scale) at MAXVAL_16; a zero peak keeps the zeros."""
    scale = MAXVAL_16 / peak if peak > 0 else 1.0
    return np.round(np.asarray(values) * scale).astype(np.uint16)


def write_pgm16(path, values: np.ndarray) -> None:
    """Write a 2D uint16 array as a binary P5 PGM with maxval 65535."""
    arr = np.asarray(values)
    if arr.ndim != 2 or arr.dtype != np.uint16:
        raise ValueError(f"a 16-bit PGM holds a 2D uint16 array, got {arr.ndim}D {arr.dtype}; "
                         "encode intensities with pgm.to_codes")
    rows, cols = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n{MAXVAL_16}\n".encode("ascii"))
        fh.write(arr.astype(">u2").tobytes())


def _read(path) -> tuple[np.ndarray, int]:
    """The raster of a binary P5 PGM, as uint8 or uint16, and its maxval."""
    with open(path, "rb") as fh:
        data = fh.read()
    head = _HEADER.match(data)
    if head is None:
        raise ValueError(f"{path}: not a binary PGM: the header must be P5, width, height "
                         f"and maxval in decimal digits, got {data[:40]!r}")
    cols, rows, maxval = (int(token) for token in head.groups())
    if cols < 1 or rows < 1:
        raise ValueError(f"{path}: PGM size {cols} x {rows} has no pixels")
    if maxval <= 0 or maxval > MAXVAL_16:
        raise ValueError(f"{path}: invalid maxval {maxval}")
    dtype = ">u2" if maxval > 255 else "u1"
    expected = rows * cols * np.dtype(dtype).itemsize
    raster = data[head.end():]
    if len(raster) < expected:
        raise ValueError(f"{path}: truncated raster ({len(raster)} < {expected} bytes)")
    arr = np.frombuffer(raster[:expected], dtype=dtype).reshape(rows, cols)
    return arr.astype(np.uint16 if maxval > 255 else np.uint8), maxval


def read_pgm(path) -> np.ndarray:
    """Read a binary P5 PGM into a uint8 or uint16 array."""
    return _read(path)[0]


def read_pgm16(path) -> np.ndarray:
    """Read the uint16 codes of a PGM on the 16-bit scale of ``write_pgm16``;
    any other maxval would put its codes on another scale, so it is rejected."""
    arr, maxval = _read(path)
    if maxval != MAXVAL_16:
        raise ValueError(f"{path}: maxval {maxval}, but a 16-bit PGM with maxval "
                         f"{MAXVAL_16} is needed")
    return arr
