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

EMBX and the PQ index (``pq``) share one container rule, kept by
``read_container`` and ``write_container``: a 4-byte magic, u32 LE
version, the format's fields, then LE arrays that fill the file exactly.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError

EMBX_MAGIC = b"EMBX"
EMBX_VERSION = 1
EMBX_DTYPE_F32 = 1

_HEADER = struct.Struct("<4sIQII")  # magic, version, count, dim, dtype
_OFF_DIM = 16
_OFF_DTYPE = 20


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
        # a value beyond float32's range casts to inf, reported below
        with np.errstate(over="ignore"):
            data = np.ascontiguousarray(arr, dtype=np.float32)
        if not np.isfinite(data).all():
            r, c = np.argwhere(~np.isfinite(data))[0]
            if np.isfinite(arr[r, c]):
                raise ValidationError(
                    f"value {arr[r, c]:g} at row {r}, column {c} is beyond float32 range"
                )
            raise ValidationError(f"non-finite value at row {r}, column {c}")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

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
        write_container(path, header, matrix.data.astype("<f4", copy=False))
    elif format == "csv":
        with open(path, "w") as fh:
            for row in matrix.data:
                fh.write(",".join(str(v) for v in row))
                fh.write("\n")
    else:
        raise ValidationError(f"unknown format {format!r}, expected 'binary' or 'csv'")


def read_container(path: Path, header: struct.Struct, magic: bytes, version: int, layout) -> list[np.ndarray]:
    """Read-only views of the arrays in a binary container file.

    ``header`` unpacks the 4-byte magic, the u32 version and then the
    format's own fields. ``layout(*fields)`` checks those fields and
    returns the ``(dtype, shape)`` of each array; the arrays follow the
    header back to back and must fill the file exactly.
    """
    blob = path.read_bytes()
    if len(blob) < header.size:
        raise FormatError(
            f"{path}: truncated header, file ends at byte {len(blob)} "
            f"but the header needs {header.size} bytes"
        )
    found, found_version, *fields = header.unpack_from(blob)
    if found != magic:
        off = next(i for i in range(4) if found[i] != magic[i])
        raise FormatError(
            f"{path}: bad magic at byte {off}, expected {magic!r} found {found!r}"
        )
    if found_version != version:
        raise FormatError(f"{path}: unsupported version {found_version} at byte 4")
    arrays = [(np.dtype(dtype), shape) for dtype, shape in layout(*fields)]
    expected = header.size + sum(dt.itemsize * math.prod(shape) for dt, shape in arrays)
    if len(blob) != expected:
        raise FormatError(
            f"{path}: wrong size at byte {min(len(blob), expected)}, "
            f"expected {expected} bytes total, found {len(blob)}"
        )
    views, offset = [], header.size
    for dt, shape in arrays:
        views.append(np.frombuffer(blob, dt, math.prod(shape), offset).reshape(shape))
        offset += views[-1].nbytes
    return views


def write_container(path, header: bytes, *arrays: np.ndarray) -> None:
    """Write a packed ``header``, then the buffer of each array in turn."""
    with open(path, "wb") as fh:
        fh.write(header)
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr))


def _load_binary(path: Path) -> EmbeddingMatrix:
    def layout(count, dim, dtype):
        if dim < 1:
            raise FormatError(f"{path}: dim must be >= 1, found {dim} at byte {_OFF_DIM}")
        if dtype != EMBX_DTYPE_F32:
            raise FormatError(
                f"{path}: unsupported dtype tag {dtype} at byte {_OFF_DTYPE}"
            )
        return [("<f4", (count, dim))]

    (data,) = read_container(path, _HEADER, EMBX_MAGIC, EMBX_VERSION, layout)
    return EmbeddingMatrix(data)


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


def nearest_rows(source: np.ndarray, fill, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k training rows for each row of ``queries`` (float64).

    ``source`` has one row per training row (n >= 1), and
    ``fill(block, source[lo:hi])`` writes training rows lo..hi-1 into a
    float64 block. Returns ``(m, min(k, n))`` index and squared-distance
    tables, each row sorted ascending by distance with ties to the lower
    index. The distances are bitwise those of a full scan of the corpus
    by ``exact_sq_dists``, whatever the block sizes. Scratch stays within
    ``BLOCK_BYTES``: the block of training rows takes half, the GEMM
    buffers a quarter and the recheck's temporaries a quarter.

    One GEMM per block of query rows gives A = |q|² - 2q·x + |x|² for
    every row of the training block. A and the subtracted distance
    differ by at most E = c·(|q|² + |x|²), with c = 8·(d + 4)·2⁻⁵³ twice
    the first-order bound of the two computations' dot-product errors
    (Higham, *Accuracy and Stability of Numerical Algorithms*, §3.1);
    float32 inputs cannot underflow or overflow in float64. A row whose
    A - E exceeds the k-th smallest A + E therefore has k rows strictly
    closer. Only the other rows, the candidates, are recomputed by
    subtraction, then ranked together with the query rows' running top k
    by (distance, index); the first k of each row are the new running
    top k. Near ties lengthen the candidate list, up to the whole block,
    but never change the result.
    """
    n = source.shape[0]
    m, d = queries.shape
    k = min(k, n)
    c = 8.0 * (d + 4) * 2.0**-53
    budget = BLOCK_BYTES // 4
    nb = min(n, block_rows(8 * d, 2 * budget))
    nb = -(-n // -(-n // nb))  # as few blocks, all of one size but the last
    b = max(1, min(m, block_rows(17 * nb, budget)))  # two float64 and one bool entry per pair
    block = np.empty((nb, d))
    approx = np.empty(b * nb)
    upper = np.empty(b * nb)
    keep = np.empty(b * nb, dtype=bool)
    # (+inf, n) ranks after every real entry, so each row holds k entries
    # from the start and the pick below stays a fixed-width gather
    indices = np.full((m, k), n, dtype=np.int64)
    sq_dists = np.full((m, k), np.inf)
    for lo in range(0, n, nb):
        train = block[: n - lo]
        t = train.shape[0]
        fill(train, source[lo : lo + t])
        kb = min(k, t)
        x2 = np.einsum("ij,ij->i", train, train)
        ex = c * x2
        for qlo in range(0, m, b):
            q = queries[qlo : qlo + b]
            r = q.shape[0]
            a, u = approx[: r * t].reshape(r, t), upper[: r * t].reshape(r, t)
            # a = A - |q|²: |q|² is constant along a row and cancels from
            # the test A - E <= kb-th smallest A + E, which leaves
            # a - c·|x|² <= kb-th smallest (a + c·|x|²) + 2c·|q|²
            np.matmul(-2.0 * q, train.T, out=a)
            a += x2
            np.add(a, ex, out=u)
            u.partition(kb - 1, axis=1)
            tau = u[:, kb - 1] + 2.0 * c * np.einsum("ij,ij->i", q, q)
            a -= ex
            hit = keep[: r * t].reshape(r, t)
            np.less_equal(a, tau[:, None], out=hit)
            rows, cols = np.nonzero(hit)
            dist = _pair_sq_dists(train, q, rows, cols, budget, n)
            rows = np.concatenate([np.repeat(np.arange(r), k), rows])
            cols = np.concatenate([indices[qlo : qlo + r].ravel(), cols + lo])
            dist = np.concatenate([sq_dists[qlo : qlo + r].ravel(), dist])
            order = np.lexsort((cols, dist, rows))
            counts = np.bincount(rows)
            pick = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
            indices[qlo : qlo + r], sq_dists[qlo : qlo + r] = cols[pick], dist[pick]
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
