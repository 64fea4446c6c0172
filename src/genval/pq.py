"""Product quantization: per-subspace codebooks and compact codes.

Vectors are split into ``num_subspaces`` contiguous subvectors; each
subspace is quantized with Lloyd's k-means (k-means++ seeding). Every
random draw comes from a Philox counter-based generator keyed by
``(seed, subspace_index)``, so each codebook is a pure function of its
own column block and the config, down to the bit: the subspaces are
independent, and ``train_codebooks`` trains up to one per CPU at once
with the same bytes as one after another.

The trained index persists as a "GMVI v1" file: magic ``GMVI``, u32 LE
version=1, u32 LE num_subspaces, u32 LE subspace_dim, u32 LE
codebook_size, u64 LE count, centroid tables (float32 LE), then codes
(one byte each if codebook_size <= 256, else two bytes LE), read and
written by the container functions it shares with EMBX (``embeddings``).
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import embeddings
from .embeddings import (EmbeddingMatrix, all_finite, block_rows, exact_sq_dists, nearest_rows,
                         read_container, write_container)
from .errors import ConfigError, CorruptionError, FormatError, InternalError, ValidationError
from .workers import map_items, worker_count

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
        arr.flags.writeable = False
        object.__setattr__(self, "centroids", arr)

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
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "codes", arr)

    @property
    def count(self) -> int:
        return self.codes.shape[0]

    @property
    def num_subspaces(self) -> int:
        return self.codes.shape[1]


def _subspace_rng(seed: int, subspace: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, subspace])))


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding; returns initial centroids (k, dim) float64."""
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = exact_sq_dists(points, points[chosen[0]])
    for _ in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
        else:
            # all remaining mass is on already-chosen points; take the
            # lowest-index point not chosen yet to keep output deterministic
            taken = set(chosen)
            idx = next((i for i in range(n) if i not in taken), chosen[0])
        chosen.append(idx)
        d2 = np.minimum(d2, exact_sq_dists(points, points[idx]))
    return points[np.array(chosen)].copy()


# _assign runs its GEMM over row blocks, and a row's product is bitwise
# the one of a single full GEMM only while BLAS computes the row the same
# way: blocks start at multiples of 64 rows (a multiple of every kernel's
# row unroll) and the last one takes the remainder, so no short tail
# block falls to gemv or a small-matrix kernel.
_ASSIGN_ALIGN = 64


def _row_blocks(n: int, step: int) -> list[tuple[int, int]]:
    """[lo, hi) blocks starting at multiples of ``step``; the last one
    takes the remainder, so it holds step to 2 * step - 1 rows (all n
    rows when n < step)."""
    starts = list(range(0, max(n - step, 0) + 1, step))
    return list(zip(starts, starts[1:] + [n]))


def _assign_blocks(n: int, k: int) -> list[tuple[int, int]]:
    """_assign's row blocks: 8-byte scores of a block fill a sixteenth of
    BLOCK_BYTES (256 rows at k = 256, in cache), step a multiple of 64."""
    step = block_rows(8 * k, embeddings.BLOCK_BYTES // 16) // _ASSIGN_ALIGN * _ASSIGN_ALIGN
    return _row_blocks(n, max(_ASSIGN_ALIGN, step))


# OpenBLAS runs a GEMM of at most 65536 * GEMM_MULTITHREAD_THRESHOLD
# (4 by default) multiply-adds on the calling thread (interface/gemm.c),
# so training workers running side by side start no BLAS threads
_GEMM_ONE_THREAD = 65536 * 4


def _gemm_rows(k: int, d: int) -> int:
    """Rows of one of _assign's GEMMs against k centroids of dim d: the
    most, in multiples of 64 and at least 64, that OpenBLAS keeps on one
    thread (128 rows at k = 256, d = 8)."""
    return max(_ASSIGN_ALIGN, _GEMM_ONE_THREAD // (k * d) // _ASSIGN_ALIGN * _ASSIGN_ALIGN)


def _assign(points: np.ndarray, centroids: np.ndarray, x2: np.ndarray, buf: np.ndarray) -> tuple[np.ndarray, float]:
    """Nearest-centroid assignment (ties to lowest index) and objective.

    ``x2`` holds the squared norms of ``points``; ``buf`` is scratch of
    at least (largest block's rows, k) float64 entries.
    """
    (n, d), k = points.shape, centroids.shape[0]
    # |x-c|^2 = |x|^2 - 2 x.c + |c|^2; the |x|^2 term does not affect argmin
    c2 = np.einsum("ij,ij->i", centroids, centroids)
    # scaling by -2 is exact, so x.(-2c) is bitwise -2 (x.c)
    neg2c = -2.0 * centroids
    rows = _gemm_rows(k, d)
    assign = np.empty(n, dtype=np.int64)
    best = np.empty(n)
    for lo, hi in _assign_blocks(n, k):
        scores = buf[: hi - lo]
        # GEMM pieces start at multiples of 64 rows as the blocks do
        for plo, phi in _row_blocks(hi - lo, rows):
            np.matmul(points[lo + plo : lo + phi], neg2c.T, out=scores[plo:phi])
        scores += c2
        assign[lo:hi] = np.argmin(scores, axis=1)
        best[lo:hi] = scores[np.arange(hi - lo), assign[lo:hi]]
    obj = float(np.maximum(best + x2, 0.0).sum())
    return assign, obj


def _lloyd(points: np.ndarray, k: int, iters: int, rng: np.random.Generator) -> tuple[np.ndarray, list[float]]:
    """Lloyd's algorithm; returns (centroids, per-iteration objectives)."""
    n, d = points.shape
    centroids = _kmeans_pp_init(points, k, rng)
    x2 = np.einsum("ij,ij->i", points, points)
    # one score buffer for all iterations: one freed and allocated again
    # per iteration can fragment the heap and raise peak RSS by a buffer
    buf = np.empty((max(hi - lo for lo, hi in _assign_blocks(n, k)), k))
    prev_assign = None
    objectives: list[float] = []
    for _ in range(iters):
        assign, obj = _assign(points, centroids, x2, buf)
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

    Subspaces are trained side by side, up to one per CPU; each depends on
    its own columns and random stream only, so the count changes no bit.
    """
    cfg.validate(data.dim, data.count)
    m = cfg.num_subspaces
    sub_dim = data.dim // m
    tables = np.empty((m, cfg.codebook_size, sub_dim), dtype=np.float32)

    def train(s: int) -> None:
        sub = data.data[:, s * sub_dim : (s + 1) * sub_dim].astype(np.float64)
        rng = _subspace_rng(cfg.seed, s)
        centroids, _ = _lloyd(sub, cfg.codebook_size, cfg.kmeans_iters, rng)
        tables[s] = centroids

    map_items(train, range(m), worker_count(m))
    return Codebook(tables)


def _code_dtype(codebook_size: int) -> np.dtype:
    """Code width, in memory and on disk: one byte up to 256 centroids."""
    return np.dtype("<u1" if codebook_size <= 256 else "<u2")


def encode(data: EmbeddingMatrix, codebook: Codebook) -> PQCodes:
    """Map each subvector to its nearest centroid (ties to lowest index).

    Distances are those of direct subtraction in float64, so exactly
    equidistant centroids really compare equal; ``nearest_rows`` finds
    the nearest one with a float32 GEMM shortlist over the subspace's
    centroid table, read in place, and an exact recheck.
    """
    if data.dim != codebook.dim:
        raise ConfigError(
            f"data dim {data.dim} does not match codebook dim {codebook.dim}"
        )
    m, sd = codebook.num_subspaces, codebook.subspace_dim
    codes = np.empty((data.count, m), dtype=_code_dtype(codebook.codebook_size))
    for s in range(m):
        sub = data.data[:, s * sd : (s + 1) * sd]
        codes[:, s] = nearest_rows(codebook.centroids[s], None, sub, 1)[0][:, 0]
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
    unless the caller has them already. Rows are decoded and subtracted
    a block at a time, in scratch of a sixteenth of ``BLOCK_BYTES``; each
    row's distance is bitwise the one of a whole-corpus subtraction.
    """
    if codes is None:
        codes = encode(data, codebook)
    check_codes(codes, codebook)
    if (codes.count, codebook.dim) != data.data.shape:
        raise ValidationError(
            f"shape mismatch: codes decode to {(codes.count, codebook.dim)}, data is {data.data.shape}"
        )
    n, d = data.data.shape
    # a block of fewer than 2 * step rows, each a float32 decoded row and
    # its float64 difference, fills at most a sixteenth of BLOCK_BYTES;
    # step >= 2, as einsum sums a lone row of more than 8192 entries in
    # pieces but a row of a taller matrix in one go (see _pair_sq_dists)
    blocks = _row_blocks(n, max(2, block_rows(24 * d, embeddings.BLOCK_BYTES // 16)))
    decoded = np.empty((max(hi - lo for lo, hi in blocks), d), dtype=np.float32)
    sq = np.empty(n)
    for lo, hi in blocks:
        decode_into(codebook, codes.codes, decoded[: hi - lo], lo, hi)
        sq[lo:hi] = exact_sq_dists(data.data[lo:hi], decoded[: hi - lo])
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
