"""Matrix file formats.

Two interchangeable on-disk representations:

* text: a header line ``rows,cols`` followed by ``rows`` lines of ``cols``
  comma-separated decimal values;
* binary: magic bytes ``FMBS``, one version byte (currently 1), two
  little-endian uint64 dimensions, then rows*cols little-endian float64
  values in row-major order.

``load_matrix`` sniffs the magic bytes to pick the decoder.  Binary files
round-trip bit-identically; text files round-trip value-exactly because
floats are written with shortest-repr precision.
"""

import os
import stat
import struct

import numpy as np

from .errors import DimensionError, InvalidParameter, ParseError
from .linalg import all_finite, as_matrix

MAGIC = b"FMBS"
BINARY_VERSION = 1
_HEADER = struct.Struct("<4sBQQ")


def save_matrix(path, a, fmt="binary"):
    """Write a matrix as 'binary' (default) or 'csv' text."""
    a = np.ascontiguousarray(as_matrix(a))
    if fmt == "binary":
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, BINARY_VERSION, a.shape[0], a.shape[1]))
            # the array's own buffer, not a bytes copy of it
            fh.write(a.astype("<f8", copy=False).data)
    elif fmt == "csv":
        lines = [f"{a.shape[0]},{a.shape[1]}"]
        for row in a:
            lines.append(",".join(repr(float(v)) for v in row))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines))
            fh.write("\n")
    else:
        raise InvalidParameter(f"unknown matrix format {fmt!r}")


def load_matrix(path):
    """Read a matrix from either supported format, sniffing the magic bytes."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if head[:4] == MAGIC:
            return _load_binary(fh, head, path)
        blob = head + fh.read()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError:
        raise ParseError(f"{path}: neither magic-tagged binary nor utf-8 text") from None
    return _load_text(text, path)


def _load_binary(fh, head, path):
    """Decode a binary file whose first _HEADER.size bytes (or fewer) are head."""
    if len(head) < _HEADER.size:
        raise ParseError(
            f"{path}: truncated header, expected at least {_HEADER.size} bytes, got {len(head)}"
        )
    _, version, rows, cols = _HEADER.unpack(head)
    if version != BINARY_VERSION:
        raise ParseError(f"{path}: unsupported binary version {version}")
    if rows == 0 or cols == 0:
        raise ParseError(f"{path}: dimensions must be positive, got {rows}x{cols}")
    expected = _HEADER.size + rows * cols * 8
    # a regular file's size is checked before the result is allocated; a
    # pipe's is known only once it has been read to the end
    info = os.fstat(fh.fileno())
    size = info.st_size if stat.S_ISREG(info.st_mode) else None
    if size is None or size == expected:
        # read into the result itself: the file's bytes are never held as
        # well, and a view of them at offset _HEADER.size would be unaligned
        try:
            out = np.empty((rows, cols), dtype="<f8")
        except (ValueError, MemoryError):
            if size is not None:  # a regular file of that size is well formed
                raise
            raise ParseError(f"{path}: cannot allocate a {rows}x{cols} matrix") from None
        size = _HEADER.size + fh.readinto(out) + len(fh.read())
    if size != expected:
        raise ParseError(f"{path}: expected {expected} bytes for {rows}x{cols}, got {size}")
    out = out.astype(np.float64, copy=False)
    if not all_finite(out):
        raise ParseError(f"{path}: matrix entries must be finite")
    return out


def _load_text(text, path):
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = lines[0].split(",")
    if len(header) != 2:
        raise ParseError(f"{path}:1: header must be 'rows,cols'")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(f"{path}:1: header must be two integers, got {lines[0]!r}") from None
    if rows < 1 or cols < 1:
        raise ParseError(f"{path}:1: dimensions must be positive, got {rows}x{cols}")
    if len(lines) - 1 != rows:
        raise DimensionError(
            f"{path}: header promises {rows} rows, found {len(lines) - 1} data lines"
        )
    out = np.empty((rows, cols))
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != cols:
            raise DimensionError(
                f"{path}:{lineno}: header promises {cols} values, found {len(parts)}"
            )
        try:
            out[lineno - 2] = [float(p) for p in parts]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    if not all_finite(out):
        raise ParseError(f"{path}: matrix entries must be finite")
    return out
