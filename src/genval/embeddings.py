"""Embedding matrices: validation, persistence, row identities, and
``nearest_rows``, the nearest-row scan that exact matching, PQ matching
and PQ encoding share (its docstring holds the design).

A training set and a generated set are both plain dense matrices of
32-bit floats. The row index is the only identity used downstream.

Two on-disk formats are supported:

* ``EMBX v1`` binary: magic ``EMBX``, u32 LE version=1, u64 LE count,
  u32 LE dim, u32 LE dtype tag=1 (float32), then count*dim little-endian
  float32 values in row-major order. ``load_embeddings`` reads a file
  whole; ``open_rows`` checks its header and size and leaves the rows in
  the file for the scan to read a tile at a time; ``writing_embx``
  writes one a block of rows at a time. No other module packs or
  unpacks the header.
* headerless CSV, one vector per line (``--header`` skips line 1), read
  by ``textio.read_lines`` as every line input is.

EMBX and the PQ index (``pq``) share one container rule, kept by
``check_container``, ``read_container`` and ``write_container``: a
4-byte magic, u32 LE version, the format's fields, then LE arrays that
fill the file exactly.
"""
from __future__ import annotations

import math
import os
import struct
import sys
from array import array
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, InternalError, ValidationError
from .textio import open_text, read_lines

EMBX_MAGIC = b"EMBX"
EMBX_VERSION = 1
EMBX_DTYPE_F32 = 1

_HEADER = struct.Struct("<4sIQII")  # magic, version, count, dim, dtype
_OFF_DIM = 16
_OFF_DTYPE = 20


def all_finite(arr: np.ndarray) -> bool:
    """Whether every entry of ``arr`` is finite, found without a mask of
    its size: NaN carries through min and max, and ±inf is one of them."""
    return not arr.size or bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))


def frozen(arr, dtype=None) -> np.ndarray:
    """``arr`` as a contiguous, read-only array of ``dtype`` (its own if
    None); an ``arr`` that is one already is frozen as a view, so the
    caller's array stays writeable and nothing is copied."""
    out = np.ascontiguousarray(arr, dtype=dtype)
    if out is arr:
        out = out.view()
    out.flags.writeable = False
    return out


def _check_finite(rows: np.ndarray, lo: int = 0, given: np.ndarray | None = None, where: str = "") -> None:
    """Refuse the first non-finite entry of ``rows``, its row counted from
    ``lo``, as beyond float32 range where ``given``, the uncast rows, is
    finite; the message starts with ``where``."""
    if all_finite(rows):
        return
    r, c = np.argwhere(~np.isfinite(rows))[0]
    if given is not None and np.isfinite(given[r, c]):
        raise ValidationError(f"{where}value {given[r, c]:g} at row {r}, column {c} is beyond float32 range")
    raise ValidationError(f"{where}non-finite value at row {lo + r}, column {c}")


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
        _check_finite(data, given=arr)
        object.__setattr__(self, "data", frozen(data))

    @property
    def count(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def fill(self, block: np.ndarray, lo: int, hi: int) -> None:
        """Copy rows lo..hi-1 into the float32 rows ``block``."""
        block[...] = self.data[lo:hi]

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
    A value the matrix refuses is an error that starts with ``path``.
    """
    path = Path(path)
    if format == "binary":
        (data,) = read_container(path, _HEADER, EMBX_MAGIC, EMBX_VERSION, _embx_layout(path))
    elif format == "csv":
        data = _read_csv(path, skip_header=skip_header)
    else:
        raise ValidationError(f"unknown format {format!r}, expected 'binary' or 'csv'")
    try:
        return EmbeddingMatrix(data)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def save_embeddings(matrix: EmbeddingMatrix, path, format: str = "binary") -> None:
    """Write a matrix so that :func:`load_embeddings` reads it back.

    Binary round-trips are bit-exact; CSV uses the shortest decimal
    representation that reparses to the identical float32 value.
    """
    path = Path(path)
    if format == "binary":
        with writing_embx(path, matrix.count, matrix.dim) as write:
            write(matrix.data)
    elif format == "csv":
        with replacing(path, text=True) as fh:
            for row in matrix.data:
                fh.write(",".join(str(v) for v in row))
                fh.write("\n")
    else:
        raise ValidationError(f"unknown format {format!r}, expected 'binary' or 'csv'")


def check_container(path, head: bytes, size: int, header: struct.Struct, magic: bytes, version: int,
                    layout) -> list[tuple[np.dtype, tuple]]:
    """The ``(dtype, shape)`` of each array in a binary container file of
    ``size`` bytes that starts with the bytes ``head``.

    ``header`` unpacks the 4-byte magic, the u32 version and then the
    format's own fields. ``layout(*fields)`` checks those fields and
    returns the ``(dtype, shape)`` of each array; the arrays follow the
    header back to back and must fill the file exactly.
    """
    if size < header.size:
        raise FormatError(
            f"{path}: truncated header, file ends at byte {size} "
            f"but the header needs {header.size} bytes"
        )
    found, found_version, *fields = header.unpack_from(head)
    if found != magic:
        off = next(i for i in range(4) if found[i] != magic[i])
        raise FormatError(
            f"{path}: bad magic at byte {off}, expected {magic!r} found {found!r}"
        )
    if found_version != version:
        raise FormatError(f"{path}: unsupported version {found_version} at byte 4")
    arrays = [(np.dtype(dtype), shape) for dtype, shape in layout(*fields)]
    expected = header.size + sum(dt.itemsize * math.prod(shape) for dt, shape in arrays)
    if size != expected:
        raise FormatError(
            f"{path}: wrong size at byte {min(size, expected)}, "
            f"expected {expected} bytes total, found {size}"
        )
    return arrays


def read_container(path: Path, header: struct.Struct, magic: bytes, version: int, layout) -> list[np.ndarray]:
    """Read-only views of the arrays in a binary container file, read
    whole and checked by ``check_container``."""
    blob = path.read_bytes()
    arrays = check_container(path, blob, len(blob), header, magic, version, layout)
    views, offset = [], header.size
    for dt, shape in arrays:
        views.append(np.frombuffer(blob, dt, math.prod(shape), offset).reshape(shape))
        offset += views[-1].nbytes
    return views


@contextmanager
def replacing(path, text: bool = False):
    """Open ``path`` for writing, as UTF-8 text or as bytes, so that the
    file is replaced whole or not at all: the writes go to a new
    temporary file in its directory, renamed over it once the block
    ends and removed if the block raises. A target that exists but is
    no regular file (``/dev/null``, a pipe) is written in place.
    """
    path = Path(path)
    tmp = None if path.exists() and not path.is_file() else path.with_name(
        f".{path.name}.{os.urandom(6).hex()}.tmp")
    mode = ("x" if tmp else "w") + ("" if text else "b")
    try:
        with open(tmp or path, mode, **({"encoding": "utf-8", "newline": ""} if text else {})) as fh:
            yield fh
        if tmp:
            os.replace(tmp, path)
    except BaseException as exc:
        if tmp:
            tmp.unlink(missing_ok=True)
            if isinstance(exc, OSError) and exc.filename == str(tmp):
                exc.filename = str(path)  # name the file asked for
        raise


def write_container(path, header: bytes, *arrays: np.ndarray) -> None:
    """Write a packed ``header``, then the buffer of each array in turn,
    through ``replacing``."""
    with replacing(path) as fh:
        fh.write(header)
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr))


@contextmanager
def writing_embx(path, count: int, dim: int):
    """Write an EMBX file of ``count`` rows of dim ``dim`` through
    ``replacing``, a block of rows at a time: the block gets
    ``write(rows)``, which appends the float32 rows ``rows``, and must
    write ``count`` rows in all."""
    with replacing(path) as fh:
        fh.write(_HEADER.pack(EMBX_MAGIC, EMBX_VERSION, count, dim, EMBX_DTYPE_F32))
        written = 0

        def write(rows: np.ndarray) -> None:
            nonlocal written
            fh.write(np.ascontiguousarray(rows, dtype="<f4"))
            written += len(rows)

        yield write
        if written != count:
            raise InternalError(f"{path}: {written} rows written, the header says {count}")


def _embx_layout(path):
    def layout(count, dim, dtype):
        if dim < 1:
            raise FormatError(f"{path}: dim must be >= 1, found {dim} at byte {_OFF_DIM}")
        if dtype != EMBX_DTYPE_F32:
            raise FormatError(
                f"{path}: unsupported dtype tag {dtype} at byte {_OFF_DTYPE}"
            )
        return [("<f4", (count, dim))]

    return layout


def _read_at(fh, view: memoryview, offset: int) -> int:
    """Read into ``view`` from byte ``offset`` of the open file ``fh``;
    returns the bytes read (0 at its end). Forked processes share the
    offset of a file they inherit, so a seek in one moves it under a
    read in another: this reads by position, leaving the offset alone.
    Without ``os.preadv`` it seeks and reads: ``workers.map_processes``
    forks only on Linux, which has it."""
    if hasattr(os, "preadv"):
        return os.preadv(fh.fileno(), [view], offset)
    fh.seek(offset)
    return fh.readinto(view)


class EmbxRows(EmbeddingMatrix):
    """The matrix of an EMBX file, left in the file for the scan to read
    a tile at a time with ``fill``. Its header is checked against the
    file's size as ``load_embeddings`` checks it. It is an
    ``EmbeddingMatrix``, so whatever takes a matrix takes it: ``count``
    and ``dim`` need no read, and ``data`` reads the whole matrix from
    the open file on first use. Open one with ``open_rows``; it owns an
    open file until closed."""

    def __init__(self, path):
        path = Path(path)
        fh = open(path, "rb", buffering=0)
        try:
            head = fh.read(_HEADER.size)
            size = os.fstat(fh.fileno()).st_size
            ((_, (count, dim)),) = check_container(
                path, head, size, _HEADER, EMBX_MAGIC, EMBX_VERSION, _embx_layout(path))
        except BaseException:
            fh.close()
            raise
        for name, value in (("path", path), ("_fh", fh), ("_shape", (count, dim)), ("_data", None)):
            object.__setattr__(self, name, value)

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            data = np.empty(self._shape, dtype=np.float32)
            self.fill(data, 0, self.count)
            object.__setattr__(self, "_data", frozen(data))
        return self._data

    @property
    def count(self) -> int:
        return self._shape[0]

    @property
    def dim(self) -> int:
        return self._shape[1]

    def fill(self, block: np.ndarray, lo: int, hi: int) -> None:
        """Read rows lo..hi-1 into the float32 rows ``block`` by position,
        leaving the file's offset alone, so that forked worker processes
        may share the open file (see ``_read_at``). A non-finite value is
        a ``ValidationError`` naming the file, then its row and column, as
        ``load_embeddings`` names them."""
        view = memoryview(block).cast("B")
        offset = _HEADER.size + lo * self.dim * 4
        while view:
            got = _read_at(self._fh, view, offset)
            if not got:
                raise FormatError(f"{self.path}: file ends at byte {offset} while rows are read")
            view, offset = view[got:], offset + got
        if sys.byteorder == "big":
            block.byteswap(inplace=True)
        _check_finite(block, lo, where=f"{self.path}: ")

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_rows(path, format: str = "binary", skip_header: bool = False):
    """The training rows at ``path``, as ``load_embeddings`` takes its
    arguments, as a context manager for a matrix whose ``fill`` the scan
    reads a tile at a time: an ``EmbxRows`` over a regular EMBX file,
    left in the file; anything else (a CSV file, a pipe, a directory, a
    missing file) read whole by ``load_embeddings`` or refused as there."""
    if format == "binary" and Path(path).is_file():
        return EmbxRows(path)
    return nullcontext(load_embeddings(path, format, skip_header))


def _read_csv(path: Path, skip_header: bool) -> np.ndarray:
    values, dim = array("d"), None
    with open_text(path) as fh:
        lines = enumerate(read_lines(fh, f"{path}:"), start=1)
        if skip_header:
            next(lines, None)
        for lineno, line in lines:
            fields = line.split(",")
            if dim is None:
                dim = len(fields)
            elif len(fields) != dim:
                raise FormatError(f"{path}: line {lineno}: expected {dim} columns, found {len(fields)}")
            try:
                values.extend(map(float, fields))
            except ValueError:
                raise FormatError(f"{path}: line {lineno}: unparseable numeric field") from None
    if not values:
        raise FormatError(f"{path}: no data rows")
    return np.frombuffer(values, dtype=np.float64).reshape(-1, dim)


# Scratch bytes one block of a blocked kernel may hold. A fixed budget,
# not a setting: block buffers come on top of the float32 corpus, and
# larger blocks raise peak memory without making the GEMM much faster.
BLOCK_BYTES = 8 << 20
# Bytes of a block that a pass re-reads or re-ranks often and keeps
# small: under glibc's 128 KiB threshold for serving an allocation by
# mmap, so freeing it does not raise that threshold, which would leave
# later large buffers in the heap and raise peak RSS.
SMALL_BYTES = 64 << 10


def block_rows(row_bytes: int, budget: int) -> int:
    """Rows per block when each row needs ``row_bytes`` of scratch out of
    ``budget`` bytes."""
    return max(1, budget // row_bytes)


def row_blocks(n: int, step: int) -> list[tuple[int, int]]:
    """[lo, hi) blocks of n rows that start at multiples of ``step``; the
    last one takes the remainder, so every block holds step to 2 * step - 1
    rows (all n rows when n < step). A loop whose bits must not depend on
    where it cuts takes its blocks here: einsum sums a lone row of more
    than 8192 entries in buffer-sized pieces but a row of a taller matrix
    in one go, and BLAS may hand a short tail block to another kernel
    (gemv, a small-matrix kernel) than the full ones."""
    starts = list(range(0, max(n - step, 0) + 1, step))
    return list(zip(starts, starts[1:] + [n]))


def exact_sq_dists(rows: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Squared distances by subtraction in float64, row t of ``rows``
    against row t of ``queries`` (or against its one row, or one point),
    float32 or float64 operands alike: the arithmetic that defines every
    match distance, k-means++ weight and reseed, the quantization error,
    the transport cost and the separation of synthetic means."""
    diff = np.subtract(rows, queries, dtype=np.float64)
    return np.einsum("ij,ij->i", diff, diff)


def _pair_sq_dists(train, queries, rows, cols, budget, corpus_rows) -> np.ndarray:
    """``exact_sq_dists`` of every pair (train[cols[t]], queries[rows[t]])."""
    # a full scan of the corpus is what defines each distance, so a call
    # gets one row (see row_blocks) only when the corpus has one row
    if corpus_rows > 1 and rows.size == 1:
        return exact_sq_dists(train[np.repeat(cols, 2)], queries[np.repeat(rows, 2)])[:1]
    # two float32 gathers and their float64 difference, 16 bytes an entry,
    # for each of under 2 * step rows
    step = 1 if corpus_rows == 1 else max(2, block_rows(32 * train.shape[1], budget))
    out = np.empty(rows.size)
    for lo, hi in row_blocks(rows.size, step):
        out[lo:hi] = exact_sq_dists(train[cols[lo:hi]], queries[rows[lo:hi]])
    return out


def _rho(n: int, unit: float) -> float:
    """(1 + unit)^n - 1: the relative error of n roundings to ``unit``."""
    return math.expm1(n * math.log1p(unit))


def _kth_smallest(up: np.ndarray, kb: int) -> np.ndarray:
    """The kb-th smallest entry of each row of ``up``: its minimum when
    kb = 1, else found by partitioning ``up`` in place."""
    if kb == 1:
        return up.min(axis=1)
    up.partition(kb - 1, axis=1)
    return up[:, kb - 1]


def _running_bound(dk: np.ndarray, q2: np.ndarray, s: float, beta: float, d: int) -> np.ndarray:
    """τ_run of ``nearest_rows`` for query rows of dim ``d`` with running
    k-th distances ``dk`` and float64 squared norms ``q2``: the float64
    value dk·s(1 + 8u') - q2·s(1 - c_q) + 2β, rounded up to float32
    (+inf beyond its range)."""
    c_q = _rho(d + 3, 2.0**-24) + 4 * _rho(d + 2, 2.0**-53) + _rho(d, 2.0**-53) + 16 * 2.0**-53
    tau = dk * (s * (1 + 8 * 2.0**-53)) - q2 * (s * (1 - c_q)) + 2 * beta
    with np.errstate(over="ignore"):
        up = tau.astype(np.float32)
    return np.nextafter(up, np.float32(np.inf), out=up, where=up < tau)


def filled_tiles(n: int, d: int, fill, budget: int | None = None):
    """Yield ``(lo, tile)`` for each tile of n training rows of dim d, in
    index order: ``fill(tile, lo, hi)`` writes rows lo..hi-1 into one
    float32 block of at most ``budget`` bytes (an eighth of
    ``BLOCK_BYTES`` if None) or one row, reused for every tile. The
    tiles are as few as that allows and all of one size but the last. A
    ``fill`` that raises ends the iteration."""
    nt = min(n, block_rows(4 * d, BLOCK_BYTES // 8 if budget is None else budget))
    nt = -(-n // -(-n // nt)) if n else 1
    block = np.empty((nt, d), dtype=np.float32)
    for lo in range(0, n, nt):
        tile = block[: n - lo]
        fill(tile, lo, lo + tile.shape[0])
        yield lo, tile


def check_rows(rows: EmbeddingMatrix) -> None:
    """Read every row of ``rows`` once through its ``fill``, a block of
    ``SMALL_BYTES`` at a time, so that a non-finite value is refused
    before any work on the rows starts."""
    for _ in filled_tiles(rows.count, rows.dim, rows.fill, SMALL_BYTES):
        pass


def nearest_rows(n: int, fill, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k training rows for each row of ``queries``.

    The corpus has n >= 1 training rows; ``fill(block, lo, hi)`` writes
    rows lo..hi-1 into a float32 block (copying, decoding or reading them
    from a file), one tile at a time through ``filled_tiles``, and a
    ``fill`` that raises ends the scan. ``queries`` are float32, possibly
    strided, or float64 holding float32 values, to the same bits: |q|² is
    float64 either way, w's power-of-two scaling is exact in float64 and
    rounds once into float32, and the recheck subtracts in float64.
    Returns ``(m, min(k, n))`` index and squared-distance
    tables, each row sorted ascending by distance with ties to the lower
    index; the distances are bitwise those of a full scan of the corpus
    by ``exact_sq_dists``, whatever the tile sizes.

    Tiles. The scan takes the training rows a tile at a time, in index
    order, and each tile against blocks of query rows. Scratch stays
    within ``BLOCK_BYTES`` at 4 bytes an entry: a tile of float32 rows
    takes an eighth, the GEMM's float32 table, its bool mask and the
    scaled query rows under a quarter (a block is sized at 9 bytes a
    pair, of which the table and the mask take 5, and 4 an entry of a
    query row), and the recheck's temporaries a quarter. At d = 128 that
    is 2 048 rows a tile and 110 query rows a block, so each SGEMM packs
    its tile once for a hundred query rows; at d = 64 tiles of 2 048 to
    4 096 rows measured alike.
    Only the first tile ranks its rows to find a threshold, a few query
    rows at a time in one buffer of ``SMALL_BYTES`` (τ of a query row
    depends on that row alone); every later tile takes it from the
    running top k.

    Shortlist. Per tile of training rows x and block of query rows q,
    with s = 2^-2e, one SGEMM and one float32 subtraction give
    a = X - w·x, where X = fl32(s·|x|²) from |x|² in float64 and
    w = fl32(2s·q). The recheck's D = ``exact_sq_dists(x, q)`` ranks a
    query's rows, and T = s·(D - |q|²) ranks them alike. Write u = 2^-24,
    u' = 2^-53, η = 2^-149, ρ(n) = (1+u)^n - 1, ρ'(n) = (1+u')^n - 1,
    Q = s·|q|² and X* = s·|x|². In the rounding model of Higham
    (*Accuracy and Stability of Numerical Algorithms*, §2.1 and §3.1)
    with gradual underflow, a float32 product or fused multiply-add errs
    by u relative plus η/2 absolute, and a sum by u relative only, so

        |a - T| <= C0·(Q + X*) + β,   C0 = ρ(d+3) + 4ρ'(d+2),
        β = (1 + ρ(d+1))·η·(2d + 1 + sqrt(d·max|x|²)),

    the max taken over the tile. The terms: the GEMM, ρ(d)·Σ|w_i·x_i|
    <= ρ(d)·(Q + X*), plus η/2 for each of its at most 2d - 1 roundings,
    each grown by at most (1+u)^d; w's underflow, η/2 an entry, so
    η/2·sqrt(d)·|x|; X's rounding, u·X* + η/2; the subtraction's,
    u·|X - w·x| <= u·(Q + 2X*); |x|² in float64, ρ'(d-1)·X*; and D's
    own against the exact |x - q|², ρ'(d+2)·|x - q|² <= 2ρ'(d+2)·(Q + X*).
    On the first tile the scan keeps each row with

        fl32(a - E) <= τ = fl32(k-th smallest fl32(a + E) of the tile + B),
        E = fl32(c·s·|x|²),   B = fl32(2c·s·|q|² + 4β),
        c = (ρ(d+8) + 8ρ'(d+2)) / (1 - 4u - ρ'(d+2)).

    c pays C0 on each side of a comparison, u for each float32 rounding
    of a ± E and of τ (τ's charged to the row that sets the k-th, as
    y - u·|y| increases with y), and the relative rounding of E and B;
    4β pays β on each side and the η/2 of an E or a B that underflows.
    A row that fails the test thus has k rows in its tile with strictly
    smaller T, so strictly smaller D, and is not in the top k. The rest,
    the candidates, are recomputed by subtraction and ranked with the
    query rows' running top k by (distance, index); the first k of each
    row are the new running top k. Near ties lengthen the candidate
    list, up to the whole tile, but never change the result.

    Running bound. Every later tile keeps each row with

        fl32(a - E) <= τ_run = ↑fl32(D_k·s(1 + 8u') - |q|²·s(1 - c_q) + 2β),
        c_q = C0 + ρ'(d) + 16u',

    where D_k is the k-th distance of the running top k (+inf while it
    holds fewer than k rows), |q|² is the float64 norm the scan computes,
    the expression is evaluated in float64 as written and ↑fl32 rounds
    upward to float32. No partition is needed. A row x of this tile
    comes after every row of the running top k, so it can enter only
    with D_x < D_k; then T_x < s·(D_k - |q|²), and by the bound above,
    with E >= C0·X* - η/2 (c·(1 - 4u - ρ'(d+2)) >= C0 pays the float64
    norm and the two roundings of E),

        a - E < V = s·D_k - (1 - C0)·Q + β + η/2.

    D_k against D, ρ'(d+2), is inside C0, as the T above uses the
    recheck's own D. The float64 norm errs by ρ'(d-1)·|q|², so
    -(1 - C0)·Q <= -s·|q|²·(1 - C0 - ρ'(d-1)). The float64 roundings
    of τ_run's expression, of its coefficient 1 - c_q, its two products
    and its two sums (s is a power of two and every product stays
    normal), cost under 5u' relative on each term, which the 8u' and the
    16u' of c_q pay; 2β >= β + η/2 with room for β's own roundings, as
    β >= 3η. So τ_run >= V > a - E, and as float32 rounding is monotone
    and τ_run a float32 value, fl32(a - E) <= τ_run: a later tile drops
    only rows that cannot enter the top k.

    Scale. e >= 0 is the least integer with s·M²·(1 + c) <= 2^120, M²
    the largest squared norm among the tile's rows and the queries.
    Every float32 value above then stays below 2^124, finite for any
    finite float32 input, and e = 0 while M² <= 2^119 (for d < 10^7,
    where c < 1). τ_run alone may exceed float32's range, where it
    reads +inf and keeps every row. The rows are never scaled: w carries
    the factor, exactly but for the underflow β counts, and the recheck
    reads rows and queries as they are.
    """
    m, d = queries.shape
    k = min(k, n)
    u, u64 = 2.0**-24, 2.0**-53
    c = (_rho(d + 8, u) + 8 * _rho(d + 2, u64)) / (1 - 4 * u - _rho(d + 2, u64))
    eta = (1 + _rho(d + 1, u)) * 2.0**-149
    budget = BLOCK_BYTES // 4
    q2 = np.einsum("ij,ij->i", queries, queries, dtype=np.float64)
    # (+inf, n) ranks after every real entry, so each row holds k entries
    # from the start and the merge below picks a fixed width
    indices = np.full((m, k), n, dtype=np.int64)
    sq_dists = np.full((m, k), np.inf)
    for lo, train in filled_tiles(n, d, fill):
        t = train.shape[0]
        x2 = np.einsum("ij,ij->i", train, train, dtype=np.float64)
        x2_max = x2.max()
        e = max(0, (math.frexp(max(x2_max, q2.max(initial=0.0)) * (1 + c))[1] - 119) // 2)
        s = math.ldexp(1.0, -2 * e)
        beta = eta * (2 * d + 1 + math.sqrt(d * x2_max))
        # X and E of the docstring, and B on the first tile
        x2s = (x2 * s).astype(np.float32)
        ex = (x2 * (c * s)).astype(np.float32)
        if lo == 0:
            kb = min(k, t)
            bq = (q2 * (2 * c * s) + 4 * beta).astype(np.float32)
            # the first tile is the largest; a float32 and a bool entry
            # per pair, and the scaled query row (see Tiles for the 9)
            b = max(1, min(m, block_rows(9 * t + 4 * d, budget)))
            w_block = np.empty((b, d), dtype=np.float32)
            approx = np.empty(b * t, dtype=np.float32)
            keep = np.empty(b * t, dtype=bool)
            # a + E of a few query rows at a time, ranked in place
            rank_rows = min(b, block_rows(4 * t, SMALL_BYTES))
            ranked = np.empty(rank_rows * t, dtype=np.float32)
            first_tau = np.empty(b, dtype=np.float32)
        for qlo in range(0, m, b):
            r = min(b, m - qlo)
            q = queries[qlo : qlo + r]
            w = np.ldexp(q, 1 - 2 * e, out=w_block[:r])
            a = approx[: r * t].reshape(r, t)
            np.matmul(w, train.T, out=a)
            np.subtract(x2s, a, out=a)
            if lo == 0:
                tau = first_tau[:r]
                for i in range(0, r, rank_rows):
                    j = min(i + rank_rows, r)
                    up = np.add(a[i:j], ex, out=ranked[: (j - i) * t].reshape(j - i, t))
                    tau[i:j] = _kth_smallest(up, kb)
                tau += bq[qlo : qlo + r]
            else:
                tau = _running_bound(sq_dists[qlo : qlo + r, k - 1], q2[qlo : qlo + r], s, beta, d)
            a -= ex
            hit = keep[: r * t]
            np.less_equal(a, tau[:, None], out=hit.reshape(r, t))
            rows, cols = np.divmod(np.flatnonzero(hit), t)
            if not rows.size:
                continue
            dist = _pair_sq_dists(train, q, rows, cols, budget, n)
            # each row: its running entries, in (distance, index) order,
            # then its candidates in index order, every one past the
            # running indices, then (+inf, n) padding; a stable sort by
            # distance thus ranks the row by (distance, index)
            counts = np.bincount(rows, minlength=r)
            at = k + np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
            merged = np.full((r, k + counts.max()), np.inf)
            merged_idx = np.full(merged.shape, n, dtype=np.int64)
            merged[:, :k], merged_idx[:, :k] = sq_dists[qlo : qlo + r], indices[qlo : qlo + r]
            merged[rows, at], merged_idx[rows, at] = dist, cols + lo
            pick = np.argsort(merged, axis=1, kind="stable")[:, :k]
            sq_dists[qlo : qlo + r] = np.take_along_axis(merged, pick, axis=1)
            indices[qlo : qlo + r] = np.take_along_axis(merged_idx, pick, axis=1)
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
