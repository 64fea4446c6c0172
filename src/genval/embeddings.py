"""Embedding matrices: validation, persistence, row identities, and the
nearest-row kernel that exact matching, PQ matching and PQ encoding
share.

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
            fh.write(np.ascontiguousarray(matrix.data, dtype="<f4"))
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


# Scratch bytes one block of a blocked kernel may hold. A fixed budget,
# not a setting: block buffers come on top of the float32 corpus, and
# larger blocks raise peak memory without making the GEMM much faster.
BLOCK_BYTES = 8 << 20


def block_rows(row_bytes: int, budget: int | None = None) -> int:
    """Rows per block when each row needs ``row_bytes`` of scratch out of
    ``budget`` bytes (default ``BLOCK_BYTES``)."""
    return max(1, (BLOCK_BYTES if budget is None else budget) // row_bytes)


def exact_sq_dists(rows: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Squared distances by subtraction, row t of ``rows`` against row t
    of ``queries`` (or against its one row, or one point): the arithmetic
    every reported distance and k-means++ weight is defined by."""
    diff = rows - queries
    return np.einsum("ij,ij->i", diff, diff)


def _pair_sq_dists(train, queries, rows, cols, budget, corpus_rows) -> np.ndarray:
    """``exact_sq_dists`` of every pair (train[cols[t]], queries[rows[t]])."""
    # einsum sums a lone row of more than 8192 entries in buffer-sized
    # pieces but a row of a taller matrix in one go; a full scan of the
    # corpus is what defines each distance, so a call gets one row only
    # when the corpus has one row, however few rows its block has
    if corpus_rows > 1 and rows.size == 1:
        return exact_sq_dists(train[np.repeat(cols, 2)], queries[np.repeat(rows, 2)])[:1]
    # three (step, d) temporaries; chunks of at least step/2 >= 2 rows
    step = 1 if corpus_rows == 1 else max(4, block_rows(24 * train.shape[1], budget))
    bounds = np.linspace(0, rows.size, -(-rows.size // step) + 1, dtype=np.int64)
    out = np.empty(rows.size)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        out[lo:hi] = exact_sq_dists(train[cols[lo:hi]], queries[rows[lo:hi]])
    return out


def nearest_rows(train: np.ndarray, queries: np.ndarray, k: int, budget: int | None = None, corpus_rows: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k rows of ``train`` (n >= 1 rows, float64) for each query row.

    Returns ``(m, min(k, n))`` index and squared-distance tables, each
    row sorted ascending by distance with ties to the lower index. The
    distances are bitwise those of a full scan by ``exact_sq_dists`` of
    the corpus that ``train`` is a block of, which has ``corpus_rows``
    rows (default n). The block buffers take at most ``budget`` bytes
    (default ``BLOCK_BYTES``), and so do the recheck's temporaries.

    One GEMM per block of query rows gives A = |q|² - 2q·x + |x|² for
    every training row. A and the subtracted distance differ by at most
    E = c·(|q|² + |x|²), with c = 8·(d + 4)·2⁻⁵³ twice the first-order
    bound of the two computations' dot-product errors (Higham,
    *Accuracy and Stability of Numerical Algorithms*, §3.1); float32
    inputs cannot underflow or overflow in float64. A row whose A - E
    exceeds the k-th smallest A + E therefore has k rows strictly
    closer. Only the other rows, the candidates, are recomputed by
    subtraction and ranked. Near ties lengthen the candidate list, up
    to all n rows, but never change the result.
    """
    n, d = train.shape
    m = queries.shape[0]
    k = min(k, n)
    c = 8.0 * (d + 4) * 2.0**-53
    x2 = np.einsum("ij,ij->i", train, train)
    ex = c * x2
    b = max(1, min(m, block_rows(17 * n, budget)))  # two float64 and one bool entry per pair
    approx = np.empty((b, n))
    upper = np.empty((b, n))
    keep = np.empty((b, n), dtype=bool)
    indices = np.empty((m, k), dtype=np.int64)
    sq_dists = np.empty((m, k))
    for lo in range(0, m, b):
        q = queries[lo : lo + b]
        r = q.shape[0]
        a, u = approx[:r], upper[:r]
        # a = A - |q|²: |q|² is constant along a row and cancels from the
        # test A - E <= k-th smallest A + E, which leaves
        # a - c·|x|² <= k-th smallest (a + c·|x|²) + 2c·|q|²
        np.matmul(-2.0 * q, train.T, out=a)
        a += x2
        np.add(a, ex, out=u)
        u.partition(k - 1, axis=1)
        tau = u[:, k - 1] + 2.0 * c * np.einsum("ij,ij->i", q, q)
        a -= ex
        np.less_equal(a, tau[:, None], out=keep[:r])
        rows, cols = np.nonzero(keep[:r])
        dist = _pair_sq_dists(train, q, rows, cols, budget, n if corpus_rows is None else corpus_rows)
        # the first k candidates of each query row by (distance, index);
        # every row has at least k
        order = np.lexsort((cols, dist, rows))
        counts = np.bincount(rows)
        pick = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
        indices[lo : lo + r], sq_dists[lo : lo + r] = cols[pick], dist[pick]
    return indices, sq_dists


def validate_pair(training_shape: tuple[int, int], generated: EmbeddingMatrix) -> None:
    """Check that a training set of ``(count, dim)`` rows and a generated
    set can be matched against each other."""
    count, dim = training_shape
    if count < 1:
        raise ValidationError("training set is empty")
    if generated.count < 1:
        raise ValidationError("generated set is empty")
    if dim != generated.dim:
        raise ValidationError(
            f"dimension mismatch: training dim {dim}, "
            f"generated dim {generated.dim}"
        )
