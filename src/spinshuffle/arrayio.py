"""Portable array file format and CSV writing.

Arrays travel as a pair of files: "<name>.hdr" is UTF-8 text with the number
of dimensions on line 1, the space-separated dims on line 2 (first dim
fastest-varying), and the token "complex64" on line 3. "<name>.dat" holds
raw little-endian interleaved (real, imag) 32-bit floats with the first
dimension contiguous. CSV files use '.' decimals, ',' separators, one header
row, and LF line endings.
"""

from __future__ import annotations

import os

import numpy as np

_TOKEN = "complex64"
_SLAB = 1 << 17   # values per write: 1 MB of complex64


def write_array(path: str, array: np.ndarray) -> None:
    """Write an array as a <path>.hdr / <path>.dat pair: the .dat holds the
    C-order values of array.T as <c8, cast and written _SLAB at a time."""
    base = _strip_extension(path)
    arr = np.asarray(array)
    dims = arr.shape if arr.ndim else (1,)
    with open(base + ".hdr", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(dims)}\n")
        fh.write(" ".join(str(d) for d in dims) + "\n")
        fh.write(_TOKEN + "\n")
    with open(base + ".dat", "wb") as fh:
        for slab in np.nditer(arr.T, ["external_loop", "buffered",
                                      "zerosize_ok"], op_dtypes="<c8",
                              casting="unsafe", order="C", buffersize=_SLAB):
            slab.tofile(fh)


def read_array(path: str) -> np.ndarray:
    """Read a .hdr/.dat pair back into a complex64 array."""
    base = _strip_extension(path)
    with open(base + ".hdr", "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh.readlines() if line.strip()]
    if len(lines) != 3:
        raise ValueError(f"malformed header {base}.hdr: expected 3 lines")
    try:
        ndim = int(lines[0])
        dims = tuple(int(tok) for tok in lines[1].split())
    except ValueError as exc:
        raise ValueError(f"malformed header {base}.hdr: {exc}") from exc
    if len(dims) != ndim:
        raise ValueError(
            f"header {base}.hdr: ndim {ndim} but {len(dims)} dims listed")
    if lines[2] != _TOKEN:
        raise ValueError(f"header {base}.hdr: unsupported dtype {lines[2]!r}")
    raw = np.fromfile(base + ".dat", dtype="<f4")
    expected = 2 * int(np.prod(dims))
    if raw.size != expected:
        raise ValueError(
            f"{base}.dat holds {raw.size} floats, header implies {expected}")
    flat = raw[0::2] + 1j * raw[1::2]
    return np.ascontiguousarray(flat.astype(np.complex64).reshape(dims,
                                                                  order="F"))


def _strip_extension(path: str) -> str:
    root, ext = os.path.splitext(path)
    return root if ext in (".hdr", ".dat") else path


def write_csv(path: str, header, rows) -> None:
    """Plain CSV: comma separator, '.' decimal, header row, LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(str(h) for h in header) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(c) for c in row) + "\n")


def _format_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)
