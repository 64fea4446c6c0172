"""Embedding matrices: validation, persistence, and row identities.

A training set and a generated set are both plain dense matrices of
32-bit floats. The row index is the only identity used downstream.

Two on-disk formats are supported:

* ``EMBX v1`` binary: magic ``EMBX``, u32 LE version=1, u64 LE count,
  u32 LE dim, u32 LE dtype tag=1 (float32), then count*dim little-endian
  float32 values in row-major order.
* headerless CSV, one vector per line (``--header`` skips line 1).
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError

EMBX_MAGIC = b"EMBX"
EMBX_VERSION = 1
EMBX_DTYPE_F32 = 1

_HEADER = struct.Struct("<4sIQII")  # magic, version, count, dim, dtype
_OFF_MAGIC = 0
_OFF_VERSION = 4
_OFF_COUNT = 8
_OFF_DIM = 16
_OFF_DTYPE = 20
_OFF_PAYLOAD = 24


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Immutable (count, dim) float32 matrix with implicit row identities."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 2:
            raise ValidationError(f"embedding matrix must be 2-D, got {arr.ndim}-D")
        if arr.shape[1] < 1:
            raise ValidationError("embedding dim must be >= 1")
        arr = np.ascontiguousarray(arr, dtype=np.float32)
        bad = np.argwhere(~np.isfinite(arr))
        if bad.size:
            r, c = bad[0]
            raise ValidationError(f"non-finite value at row {r}, column {c}")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def count(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def row(self, i: int) -> np.ndarray:
        return self.data[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddingMatrix):
            return NotImplemented
        return self.data.shape == other.data.shape and bool(
            np.array_equal(
                self.data.view(np.uint32), other.data.view(np.uint32)
            )
        )


def load_embeddings(path, format: str = "binary", skip_header: bool = False) -> EmbeddingMatrix:
    """Load a matrix from an EMBX binary file or a CSV file.

    ``skip_header`` applies to CSV only and drops line 1 before parsing.
    """
    path = Path(path)
    if format == "binary":
        return _load_binary(path)
    if format == "csv":
        return _load_csv(path, skip_header=skip_header)
    raise ValidationError(f"unknown format {format!r}, expected 'binary' or 'csv'")


def save_embeddings(matrix: EmbeddingMatrix, path, format: str = "binary") -> None:
    """Write a matrix so that :func:`load_embeddings` reads it back.

    Binary round-trips are bit-exact; CSV uses the shortest decimal
    representation that reparses to the identical float32 value.
    """
    path = Path(path)
    if format == "binary":
        header = _HEADER.pack(
            EMBX_MAGIC, EMBX_VERSION, matrix.count, matrix.dim, EMBX_DTYPE_F32
        )
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(np.ascontiguousarray(matrix.data, dtype="<f4").tobytes())
    elif format == "csv":
        with open(path, "w") as fh:
            for row in matrix.data:
                fh.write(",".join(str(v) for v in row))
                fh.write("\n")
    else:
        raise ValidationError(f"unknown format {format!r}, expected 'binary' or 'csv'")


def _load_binary(path: Path) -> EmbeddingMatrix:
    blob = path.read_bytes()
    if len(blob) < _OFF_PAYLOAD:
        raise FormatError(
            f"{path}: truncated header, file ends at byte {len(blob)} "
            f"but the header needs {_OFF_PAYLOAD} bytes"
        )
    magic, version, count, dim, dtype = _HEADER.unpack_from(blob, 0)
    if magic != EMBX_MAGIC:
        off = next(i for i in range(4) if magic[i] != EMBX_MAGIC[i])
        raise FormatError(
            f"{path}: bad magic at byte {_OFF_MAGIC + off}, "
            f"expected {EMBX_MAGIC!r} found {magic!r}"
        )
    if version != EMBX_VERSION:
        raise FormatError(
            f"{path}: unsupported version {version} at byte {_OFF_VERSION}"
        )
    if dim < 1:
        raise FormatError(f"{path}: dim must be >= 1, found {dim} at byte {_OFF_DIM}")
    if dtype != EMBX_DTYPE_F32:
        raise FormatError(
            f"{path}: unsupported dtype tag {dtype} at byte {_OFF_DTYPE}"
        )
    expected = count * dim * 4
    actual = len(blob) - _OFF_PAYLOAD
    if actual < expected:
        raise FormatError(
            f"{path}: truncated payload at byte {len(blob)}, "
            f"expected {expected} payload bytes from byte {_OFF_PAYLOAD}, found {actual}"
        )
    if actual > expected:
        raise FormatError(
            f"{path}: unexpected trailing data at byte {_OFF_PAYLOAD + expected}, "
            f"expected {expected} payload bytes from byte {_OFF_PAYLOAD}, found {actual}"
        )
    arr = np.frombuffer(
        blob, dtype="<f4", count=count * dim, offset=_OFF_PAYLOAD
    ).reshape(count, dim)
    return EmbeddingMatrix(arr)


def _load_csv(path: Path, skip_header: bool) -> EmbeddingMatrix:
    lines = path.read_text().split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # single trailing newline is fine
    start = 1 if skip_header else 0
    rows = []
    dim = None
    for lineno, line in enumerate(lines[start:], start=start + 1):
        fields = line.rstrip("\r").split(",")
        if dim is None:
            dim = len(fields)
        elif len(fields) != dim:
            raise FormatError(
                f"{path}: line {lineno}: expected {dim} columns, found {len(fields)}"
            )
        try:
            rows.append([float(f) for f in fields])
        except ValueError:
            raise FormatError(
                f"{path}: line {lineno}: unparseable numeric field"
            ) from None
    if not rows:
        raise FormatError(f"{path}: no data rows")
    return EmbeddingMatrix(np.array(rows, dtype=np.float64))


def validate_pair(training: EmbeddingMatrix, generated: EmbeddingMatrix) -> None:
    """Check that a training/generated pair can be matched against each other."""
    if training.count < 1:
        raise ValidationError("training set is empty")
    if generated.count < 1:
        raise ValidationError("generated set is empty")
    if training.dim != generated.dim:
        raise ValidationError(
            f"dimension mismatch: training dim {training.dim}, "
            f"generated dim {generated.dim}"
        )
