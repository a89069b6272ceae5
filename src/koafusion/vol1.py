"""VOL1 binary volume format.

Layout (little-endian throughout):

    magic   4 bytes  b"VOL1"
    ndim    u8
    extent  ndim * u32      voxel counts, slowest axis first (row-major)
    spacing ndim * f64      physical size per axis in mm (1.0 for non-spatial axes)
    scalar  u8              0 = f32, 1 = f64, 2 = u16
    payload extent-product scalars, row-major (C order)

Trivially parseable in any language; used for every on-disk image artifact.
This module also holds ``write_file``, the one way any artifact reaches disk,
and ``read_file``, which every reader of an input file goes through.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import ContractViolation

MAGIC = b"VOL1"

_SCALAR_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("<u2")}
_DTYPE_CODES = {np.dtype("float32"): 0, np.dtype("float64"): 1, np.dtype("uint16"): 2}


def partial_path(path) -> Path:
    """The sibling ``.NAME.partial`` that a file or run dir is built in before it replaces *path*."""
    path = Path(path)
    return path.with_name(f".{path.name}.partial")


def write_file(path, chunks) -> Path:
    """Write the byte *chunks* to *path* whole: a sibling partial file, then ``os.replace``.

    Missing parent dirs are created.  A failure leaves *path* as it was and no partial file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = partial_path(path)
    try:
        with open(partial, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    return path


def read_file(path) -> bytes:
    """The bytes of *path*; a missing or unreadable file is a ContractViolation."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ContractViolation(f"{path}: cannot read ({exc.strerror or exc})") from exc


def write_vol1(path, data: np.ndarray, spacing) -> None:
    """Write an array with per-axis spacing metadata to *path*."""
    data = np.asarray(data)
    if data.dtype not in _DTYPE_CODES:
        raise ContractViolation(
            f"unsupported dtype {data.dtype}; use float32, float64, or uint16"
        )
    spacing = tuple(float(s) for s in spacing)
    if len(spacing) != data.ndim:
        raise ContractViolation(
            f"spacing has {len(spacing)} entries for {data.ndim}-d data"
        )
    code = _DTYPE_CODES[data.dtype]
    write_file(path, (
        MAGIC,
        struct.pack("<B", data.ndim),
        struct.pack(f"<{data.ndim}I", *data.shape),
        struct.pack(f"<{data.ndim}d", *spacing),
        struct.pack("<B", code),
        np.ascontiguousarray(data).astype(_SCALAR_CODES[code]).tobytes(),
    ))


def read_vol1(path) -> tuple[np.ndarray, tuple[float, ...]]:
    """Read a VOL1 file; returns (data, spacing).

    A missing, unreadable, truncated or malformed file, or one with bytes after
    its payload, is a ContractViolation.
    """
    raw = read_file(path)
    if raw[:4] != MAGIC:
        raise ContractViolation(f"{path}: not a VOL1 file (bad magic)")
    if len(raw) < 5 or len(raw) < 6 + 12 * raw[4]:
        raise ContractViolation(f"{path}: header shorter than its declared extents")
    off = 4
    (ndim,) = struct.unpack_from("<B", raw, off)
    off += 1
    shape = struct.unpack_from(f"<{ndim}I", raw, off)
    off += 4 * ndim
    spacing = struct.unpack_from(f"<{ndim}d", raw, off)
    off += 8 * ndim
    (code,) = struct.unpack_from("<B", raw, off)
    off += 1
    if code not in _SCALAR_CODES:
        raise ContractViolation(f"{path}: unknown scalar code {code}")
    dtype = _SCALAR_CODES[code]
    n = math.prod(shape)
    if len(raw) - off != n * dtype.itemsize:
        raise ContractViolation(f"{path}: payload length differs from the declared extents")
    data = np.frombuffer(raw, dtype=dtype, count=n, offset=off).reshape(shape)
    return data.copy(), spacing
