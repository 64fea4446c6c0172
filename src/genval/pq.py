"""Product quantization: per-subspace codebooks and compact codes.

Vectors are split into ``num_subspaces`` contiguous subvectors; each
subspace is quantized with Lloyd's k-means (k-means++ seeding). Every
random draw comes from a Philox counter-based generator keyed by
``(seed, subspace_index)``, so each codebook is a pure function of its
own column block and the config, down to the bit: the subspaces are
independent, and ``train_codebooks`` trains up to one per CPU at once
with the same bytes as one after another: on Linux each further worker
is a forked process (``workers.map_processes``), as training is many
short numpy calls that threads of one interpreter would take turns at.
The draws are numpy's Philox4x64-10 stream seeded by
``SeedSequence([seed, subspace_index])``, computed by ``philox.Philox``
so that training never loads ``numpy.random``; tests pin it against
``numpy.random`` itself. k-means++ re-scores, for each new centre, only
the rows the triangle inequality lets it take (``_kmeans_pp_init``).

The trained index persists as a "GMVI v1" file: magic ``GMVI``, u32 LE
version=1, u32 LE num_subspaces, u32 LE subspace_dim, u32 LE
codebook_size, u64 LE count, centroid tables (float32 LE), then codes
(one byte each if codebook_size <= 256, else two bytes LE), read and
written by the container functions it shares with EMBX (``embeddings``).
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import embeddings
from .embeddings import (EmbeddingMatrix, all_finite, block_rows, exact_sq_dists, filled_tiles, frozen,
                         nearest_rows, read_container, row_blocks, write_container)
from .errors import ConfigError, CorruptionError, FormatError, InternalError, ValidationError
from .workers import map_processes, worker_count

if TYPE_CHECKING:
    from .philox import Philox

GMVI_MAGIC = b"GMVI"
GMVI_VERSION = 1

_HEADER = struct.Struct("<4sIIIIQ")  # magic, version, M, subspace_dim, Ks, count
_OFF_M = 8
_OFF_SUBDIM = 12
_OFF_KS = 16

# Relative tolerance for the Lloyd objective monotonicity self-check;
# float64 rounding sits around 1e-16, real regressions far above this.
_OBJECTIVE_SLACK = 1e-9


@dataclass(frozen=True)
class PQConfig:
    num_subspaces: int = 8
    codebook_size: int = 256
    kmeans_iters: int = 25
    seed: int = 0

    def validate(self, dim: int, count: int) -> None:
        if self.num_subspaces < 1:
            raise ConfigError("num_subspaces must be >= 1")
        if not 1 <= self.codebook_size <= 65536:
            raise ConfigError("codebook_size must be in [1, 65536]")
        if self.kmeans_iters < 1:
            raise ConfigError("kmeans_iters must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if dim % self.num_subspaces != 0:
            raise ConfigError(
                f"dim {dim} is not divisible by num_subspaces {self.num_subspaces}"
            )
        if self.codebook_size > count:
            raise ConfigError(
                f"codebook_size {self.codebook_size} exceeds "
                f"training count {count}"
            )


@dataclass(frozen=True)
class Codebook:
    """Per-subspace centroid tables, shape (M, codebook_size, subspace_dim)."""

    centroids: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.centroids, dtype=np.float32)
        if arr.ndim != 3:
            raise ConfigError("centroids must have shape (M, Ks, subspace_dim)")
        if not all_finite(arr):
            raise CorruptionError("codebook contains non-finite centroids")
        object.__setattr__(self, "centroids", frozen(arr))

    @property
    def num_subspaces(self) -> int:
        return self.centroids.shape[0]

    @property
    def codebook_size(self) -> int:
        return self.centroids.shape[1]

    @property
    def subspace_dim(self) -> int:
        return self.centroids.shape[2]

    @property
    def dim(self) -> int:
        return self.num_subspaces * self.subspace_dim


@dataclass(frozen=True)
class PQCodes:
    """Code matrix, shape (count, M); each entry addresses a centroid."""

    codes: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.codes)
        if arr.ndim != 2:
            raise CorruptionError("codes must have shape (count, M)")
        if not np.issubdtype(arr.dtype, np.unsignedinteger):
            raise CorruptionError("codes must be unsigned integers")
        object.__setattr__(self, "codes", frozen(arr))

    @property
    def count(self) -> int:
        return self.codes.shape[0]

    @property
    def num_subspaces(self) -> int:
        return self.codes.shape[1]


def _subspace_rng(seed: int, subspace: int) -> Philox:
    # imported here: a CLI child without cached bytecode compiles every
    # module it imports, and only training draws
    from .philox import Philox

    return Philox([seed, subspace])


def _kmeans_pp_init(points: np.ndarray, k: int, rng: Philox) -> np.ndarray:
    """k-means++ seeding; returns initial centroids (k, dim) float64.

    ``points`` hold float32 values, as ``train_codebooks`` passes them.
    Each draw weighs row x by d2[x], the least ``exact_sq_dists`` D(x, y)
    from x to a centre y chosen so far, and ``owner[x]`` is a centre o
    with D(x, o) = d2[x].

    Pruning. A new centre c re-scores only the rows x with

        d2[x] > fl(q·C),   C = D(o, c),   q = 1/4 - 2^⌈log2(4(d+2))⌉·u,

    u = 2^-53 and q exact. Every skipped row has D(x, c) >= d2[x], so
    min(d2[x], D(x, c)) is d2[x], as if it were re-scored; and the
    re-scored rows, gathered two or more at a time, get the distances a
    scan of every row gets (see ``embeddings.row_blocks``). So d2, every
    draw and the centres are bitwise those of re-scoring every row.

    Proof. Write ρ = (1+u)^(d+2) - 1 <= 2(d+2)u, so q <= (1 - 8ρ)/4.
    A difference of two float32 values is 0 or of magnitude in
    [2^-149, 2^129), so each of D's terms is 0 or a normal float64 in
    [2^-298, 2^258], as is every partial sum for d < 2^700: nothing
    underflows or overflows. In the rounding model of Higham (*Accuracy
    and Stability of Numerical Algorithms*, §2.1 and §3.1) each term
    carries its difference's rounding twice, as it is squared, and its
    square's once, and passes through at most d - 1 roundings of the
    sum, in whatever order einsum adds (a fused multiply-add only drops
    a rounding), so with e = |x - y|² exactly

        (1 - ρ)·e <= D(x, y) <= (1 + ρ)·e.

    Let a = |x - o| and b = |o - c|. A skipped row has

        (1 - ρ)·a² <= d2[x] <= fl(q·C) <= (1 - 8ρ)(1 + u)(1 + ρ)·b²/4,

    so a <= t·b/2 with t² = (1 - 8ρ)(1 + u)(1 + ρ)/(1 - ρ) <= (1 - ρ)²:
    (1 + u)(1 + ρ) <= (1 + ρ)² <= 1 + 3ρ as u <= ρ <= 1, and
    (1 - 8ρ)(1 + 3ρ) <= 1 - 3ρ <= (1 - ρ)³. By the triangle inequality
    |x - c| >= b - a >= (2/t - 1)·a >= a·(1 + ρ)/(1 - ρ), so

        D(x, c) >= (1 - ρ)·|x - c|² >= a²·(1 + ρ)²/(1 - ρ) >= (1 + ρ)·a² >= d2[x].
    """
    n, d = points.shape
    q = 0.25 - math.ldexp(1.0, (4 * (d + 2) - 1).bit_length() - 53)
    centres = np.empty((k, d))
    first = rng.integers(n)
    centres[0] = points[first]
    d2 = exact_sq_dists(points, centres[0])
    owner = np.zeros(n, dtype=np.intp)
    taken = {first}
    for j in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
        else:
            # all remaining mass is on already-chosen points; take the
            # lowest-index point not chosen yet to keep output deterministic
            idx = next((i for i in range(n) if i not in taken), first)
        taken.add(idx)
        centres[j] = c = points[idx]
        reach = exact_sq_dists(centres[:j], c) * q
        rows = np.flatnonzero(d2 > reach[owner])
        if rows.size:
            # a lone row is gathered twice, so that einsum sums it as a
            # row of a taller matrix; take gathers rows faster than indexing
            new = exact_sq_dists(np.take(points, np.repeat(rows, 2) if rows.size == 1 else rows, axis=0),
                                 c)[: rows.size]
            nearer = new < d2[rows]
            rows = rows[nearer]
            d2[rows] = new[nearer]
            owner[rows] = j
    return centres


# _assign's blocks and GEMM pieces come from row_blocks with a step that
# is a multiple of 64 rows, a multiple of every BLAS kernel's row unroll,
# so each row's product is bitwise the one of a single full GEMM
_ASSIGN_ALIGN = 64


def _assign_blocks(n: int, k: int) -> list[tuple[int, int]]:
    """_assign's row blocks: 8-byte scores of a block fill a sixteenth of
    BLOCK_BYTES (256 rows at k = 256, in cache), step a multiple of 64."""
    step = block_rows(8 * k, embeddings.BLOCK_BYTES // 16) // _ASSIGN_ALIGN * _ASSIGN_ALIGN
    return row_blocks(n, max(_ASSIGN_ALIGN, step))


# OpenBLAS runs a GEMM of at most 65536 * GEMM_MULTITHREAD_THRESHOLD
# (4 by default) multiply-adds on the calling thread (interface/gemm.c),
# so training workers running side by side start no BLAS threads
_GEMM_ONE_THREAD = 65536 * 4


def _gemm_rows(k: int, d: int) -> int:
    """Rows of one of _assign's GEMMs against k centroids of dim d: the
    most, in multiples of 64 and at least 64, that OpenBLAS keeps on one
    thread (128 rows at k = 256, d = 8)."""
    return max(_ASSIGN_ALIGN, _GEMM_ONE_THREAD // (k * d) // _ASSIGN_ALIGN * _ASSIGN_ALIGN)


def _assign_plan(n: int, k: int, d: int) -> list[tuple[int, int, list[tuple[int, int]]]]:
    """_assign's row blocks, each with its GEMM pieces (rows of the block)."""
    rows = _gemm_rows(k, d)
    return [(lo, hi, row_blocks(hi - lo, rows)) for lo, hi in _assign_blocks(n, k)]


def _assign(points: np.ndarray, centroids: np.ndarray, x2: np.ndarray, plan, buf: np.ndarray,
            at: np.ndarray) -> tuple[np.ndarray, float]:
    """Nearest-centroid assignment (ties to lowest index) and objective.

    ``x2`` holds the squared norms of ``points`` and ``plan`` is
    ``_assign_plan`` of their shape and k; ``buf`` is scratch of at least
    (largest block's rows, k) float64 entries and ``at`` the row indices
    ``np.arange`` of at least that many rows.
    """
    n = points.shape[0]
    # |x-c|^2 = |x|^2 - 2 x.c + |c|^2; the |x|^2 term does not affect argmin
    c2 = np.einsum("ij,ij->i", centroids, centroids)
    # scaling by -2 is exact, so x.(-2c) is bitwise -2 (x.c); matmul takes
    # the transposed view, as a contiguous copy changes GEMM's bits
    neg2c = -2.0 * centroids
    assign = np.empty(n, dtype=np.int64)
    best = np.empty(n)
    for lo, hi, pieces in plan:
        scores = buf[: hi - lo]
        for plo, phi in pieces:
            np.matmul(points[lo + plo : lo + phi], neg2c.T, out=scores[plo:phi])
        scores += c2
        assign[lo:hi] = np.argmin(scores, axis=1)
        best[lo:hi] = scores[at[: hi - lo], assign[lo:hi]]
    obj = float(np.maximum(best + x2, 0.0).sum())
    return assign, obj


def _lloyd(points: np.ndarray, k: int, iters: int, rng: Philox) -> tuple[np.ndarray, list[float]]:
    """Lloyd's algorithm; returns (centroids, per-iteration objectives)."""
    n, d = points.shape
    centroids = _kmeans_pp_init(points, k, rng)
    x2 = np.einsum("ij,ij->i", points, points)
    plan = _assign_plan(n, k, d)
    rows = max(hi - lo for lo, hi, _ in plan)
    # one score buffer for all iterations: one freed and allocated again
    # per iteration can fragment the heap and raise peak RSS by a buffer
    buf = np.empty((rows, k))
    at = np.arange(rows)
    prev_assign = None
    objectives: list[float] = []
    for _ in range(iters):
        assign, obj = _assign(points, centroids, x2, plan, buf, at)
        if objectives and obj > objectives[-1] * (1.0 + _OBJECTIVE_SLACK) + 1e-12:
            raise InternalError(
                f"k-means objective increased: {objectives[-1]} -> {obj}"
            )
        objectives.append(obj)
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        # bincount adds each cluster's rows in row order, one fixed order
        # of float adds, so the same data and config give the same codebook
        sums = np.empty((k, d))
        for j in range(d):
            sums[:, j] = np.bincount(assign, weights=points[:, j], minlength=k)
        counts = np.bincount(assign, minlength=k)
        empty = np.flatnonzero(counts == 0)
        nonempty = counts > 0
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        for j in empty:
            # reseed an orphaned centroid to the point farthest from its
            # stale position; argmax takes the lowest row index on ties
            far = int(np.argmax(exact_sq_dists(points, centroids[j])))
            centroids[j] = points[far]
        prev_assign = assign
    return centroids, objectives


def train_codebooks(data: EmbeddingMatrix, cfg: PQConfig) -> Codebook:
    """Train one k-means codebook per subspace; deterministic in (data, cfg).

    Subspaces are trained side by side, up to one per CPU, each further
    worker a forked process where forking is safe (``map_processes``);
    each depends on its own columns and random stream only, so the count
    changes no bit. Each worker reads a subspace's columns through
    ``data.fill``, a small block of rows at a time, into a float64
    subspace; it never holds the corpus.
    """
    cfg.validate(data.dim, data.count)
    sub_dim = data.dim // cfg.num_subspaces

    def train(s: int) -> np.ndarray:
        sub = np.empty((data.count, sub_dim))
        for lo, tile in filled_tiles(data.count, data.dim, data.fill, embeddings.SMALL_BYTES):
            sub[lo : lo + tile.shape[0]] = tile[:, s * sub_dim : (s + 1) * sub_dim]
        rng = _subspace_rng(cfg.seed, s)
        return _lloyd(sub, cfg.codebook_size, cfg.kmeans_iters, rng)[0].astype(np.float32)

    m = cfg.num_subspaces
    return Codebook(np.stack(map_processes(train, range(m), worker_count(m))))


def _code_dtype(codebook_size: int) -> np.dtype:
    """Code width, in memory and on disk: one byte up to 256 centroids."""
    return np.dtype("<u1" if codebook_size <= 256 else "<u2")


def encode(data: EmbeddingMatrix, codebook: Codebook) -> PQCodes:
    """Map each subvector to its nearest centroid (ties to lowest index).

    Distances are those of direct subtraction in float64, so exactly
    equidistant centroids really compare equal; ``nearest_rows`` finds
    the nearest one with a float32 GEMM shortlist over the subspace's
    centroid table, an ``EmbeddingMatrix`` filled a tile at a time, and an
    exact recheck. The rows are read through ``data.fill`` a tile at a
    time, as the scan reads training rows, and each subvector's code
    depends on that subvector alone.
    """
    if data.dim != codebook.dim:
        raise ConfigError(
            f"data dim {data.dim} does not match codebook dim {codebook.dim}"
        )
    m, sd = codebook.num_subspaces, codebook.subspace_dim
    tables = [EmbeddingMatrix(codebook.centroids[s]) for s in range(m)]
    codes = np.empty((data.count, m), dtype=_code_dtype(codebook.codebook_size))
    for lo, rows in filled_tiles(data.count, data.dim, data.fill):
        for s, table in enumerate(tables):
            sub = rows[:, s * sd : (s + 1) * sd]
            codes[lo : lo + rows.shape[0], s] = nearest_rows(table.count, table.fill, sub, 1)[0][:, 0]
    return PQCodes(codes)


def check_codes(codes: PQCodes, codebook: Codebook) -> None:
    """Raise unless ``codes`` have ``codebook``'s subspaces and every code
    addresses one of its centroids."""
    if codes.num_subspaces != codebook.num_subspaces:
        raise ValidationError("codes/codebook subspace count mismatch")
    if codes.count and codes.codes.max() >= codebook.codebook_size:
        bad = np.argwhere(codes.codes >= codebook.codebook_size)[0]
        raise CorruptionError(
            f"code {codes.codes[bad[0], bad[1]]} at row {bad[0]}, subspace {bad[1]} "
            f"addresses no centroid (codebook_size {codebook.codebook_size})"
        )


def decode_into(codebook: Codebook, codes: np.ndarray, out: np.ndarray, lo: int, hi: int) -> None:
    """Write the rows that rows lo..hi-1 of ``codes`` (checked) decode to
    into ``out`` (hi - lo rows), converting to its dtype."""
    sd = codebook.subspace_dim
    for s in range(codebook.num_subspaces):
        out[:, s * sd : (s + 1) * sd] = codebook.centroids[s][codes[lo:hi, s]]


def decode(codes: PQCodes, codebook: Codebook) -> EmbeddingMatrix:
    """Reconstruct vectors by concatenating the addressed centroids."""
    check_codes(codes, codebook)
    out = np.empty((codes.count, codebook.dim), dtype=np.float32)
    decode_into(codebook, codes.codes, out, 0, codes.count)
    return EmbeddingMatrix(out)


def quantization_error(data: EmbeddingMatrix, codebook: Codebook, codes: PQCodes | None = None) -> float:
    """Mean squared Euclidean distance between vectors and reconstructions.

    ``codes`` are ``encode(data, codebook)``; they are computed here
    unless the caller has them already. Rows are read through
    ``data.fill``, decoded and subtracted
    a block at a time, in scratch of a sixteenth of ``BLOCK_BYTES``; each
    row's distance is bitwise the one of a whole-corpus subtraction.
    """
    if codes is None:
        codes = encode(data, codebook)
    check_codes(codes, codebook)
    n, d = data.count, data.dim
    if (codes.count, codebook.dim) != (n, d):
        raise ValidationError(
            f"shape mismatch: codes decode to {(codes.count, codebook.dim)}, data is {(n, d)}"
        )
    # a block of fewer than 2 * step rows, each a float32 row read through
    # data.fill, its float32 decoded row and their float64 difference,
    # fills at most a sixteenth of BLOCK_BYTES
    blocks = row_blocks(n, max(2, block_rows(32 * d, embeddings.BLOCK_BYTES // 16)))
    rows = max(hi - lo for lo, hi in blocks)
    read, decoded = (np.empty((rows, d), dtype=np.float32) for _ in range(2))
    sq = np.empty(n)
    for lo, hi in blocks:
        data.fill(read[: hi - lo], lo, hi)
        decode_into(codebook, codes.codes, decoded[: hi - lo], lo, hi)
        sq[lo:hi] = exact_sq_dists(read[: hi - lo], decoded[: hi - lo])
    return float(sq.mean())


def save_index(codebook: Codebook, codes: PQCodes, path) -> None:
    """Write codebook + codes as a GMVI v1 file."""
    check_codes(codes, codebook)
    ks = codebook.codebook_size
    header = _HEADER.pack(GMVI_MAGIC, GMVI_VERSION, codebook.num_subspaces,
                          codebook.subspace_dim, ks, codes.count)
    write_container(path, header, codebook.centroids.astype("<f4", copy=False),
                    codes.codes.astype(_code_dtype(ks), copy=False))


def load_index(path) -> tuple[Codebook, PQCodes]:
    """Read a GMVI v1 file back into (Codebook, PQCodes)."""
    path = Path(path)

    def layout(m, sub_dim, ks, count):
        if m < 1:
            raise FormatError(f"{path}: num_subspaces must be >= 1 (byte {_OFF_M})")
        if sub_dim < 1:
            raise FormatError(f"{path}: subspace_dim must be >= 1 (byte {_OFF_SUBDIM})")
        if not 1 <= ks <= 65536:
            raise FormatError(f"{path}: codebook_size out of range (byte {_OFF_KS})")
        return [("<f4", (m, ks, sub_dim)), (_code_dtype(ks), (count, m))]

    tables, codes = read_container(path, _HEADER, GMVI_MAGIC, GMVI_VERSION, layout)
    try:
        codebook, pq_codes = Codebook(tables), PQCodes(codes)
        check_codes(pq_codes, codebook)
    except CorruptionError as exc:
        raise CorruptionError(f"{path}: {exc}") from None
    return codebook, pq_codes
