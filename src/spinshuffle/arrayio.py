"""Portable array file format and CSV writing.

Arrays travel as a pair of files: "<name>.hdr" is UTF-8 text with the number
of dimensions on line 1, the space-separated dims on line 2 (first dim
fastest-varying), and the token "complex64" on line 3. "<name>.dat" holds
raw little-endian interleaved (real, imag) 32-bit floats with the first
dimension contiguous; a `FactoredStack` goes there a slab at a time. CSV
files use '.' decimals, ',' separators, one header row, and LF line endings.
"""

from __future__ import annotations

import os

import numpy as np

_TOKEN = "complex64"
_SLAB = 1 << 17   # values per write: 1 MB of complex64


def _columns(dims: tuple, values: int):
    """Last-axis slices of at most `values` values (one index at least)."""
    step = max(1, values // max(1, int(np.prod(dims[:-1]))))
    return (slice(lo, lo + step) for lo in range(0, dims[-1], step))


class FactoredStack:   # a dataclass would add some 0.08 MB RSS at import
    """tensordot(left, right, 1) held as its (T, K) and (K, *dims) factors:
    one GEMM per `_columns` slab of _SLAB // 8 values, `np.asarray` whole."""

    def __init__(self, left: np.ndarray, right: np.ndarray):
        self.left, self.right = left, right

    @property
    def shape(self) -> tuple:
        return (len(self.left), *self.right.shape[1:])

    def slabs(self):
        for cols in _columns(self.shape, _SLAB // 8):
            yield np.tensordot(self.left, self.right[..., cols], 1)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(np.tensordot(self.left, self.right, 1), dtype)


def write_array(path: str, array) -> None:
    """Write an array or a `FactoredStack` as <path>.hdr / <path>.dat: the
    C-order values of array.T as <c8, one `_columns` slab at a time."""
    base = _strip_extension(path)
    if isinstance(array, FactoredStack):
        dims, slabs = array.shape, array.slabs()
    else:
        dims = np.shape(array) or (1,)
        arr = np.reshape(array, dims)
        slabs = (arr[..., cols] for cols in _columns(dims, _SLAB))
    with open(base + ".hdr", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(dims)}\n{' '.join(map(str, dims))}\n{_TOKEN}\n")
    with open(base + ".dat", "wb") as fh:
        for slab in slabs:
            np.asarray(slab.T, "<c8", order="C").tofile(fh)


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
    return np.ascontiguousarray(raw.view("<c8").reshape(dims, order="F"),
                                np.complex64)


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
