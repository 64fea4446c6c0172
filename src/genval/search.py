"""Top-k matching of generated points against training points.

Both routes run ``embeddings.nearest_rows``, the one scan, over blocks
of float64 training rows. The exact route fills each block from the
float32 training rows; the PQ route decodes the codes into it, so its
distance is the asymmetric distance of product quantization: the exact
distance from the query to the decoded row. The scan takes a shortlist
from one BLAS GEMM per block and recomputes only the shortlist by
direct subtraction; a rigorous rounding bound keeps every row that
could still be in the top k, so its tables are bitwise those of a full
subtraction scan. Reported distances are non-squared Euclidean; rows
are sorted ascending by distance with ties broken by ascending training
index, so output is reproducible bit for bit regardless of block size
or scheduling.
"""
from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .embeddings import EmbeddingMatrix, nearest_rows, validate_pair
from .errors import ConfigError, FormatError, ValidationError
from .pq import check_codes, decode_into

# distances in JSON-lines output carry 9 significant digits
DISTANCE_FORMAT = "{:.9g}"


@dataclass(frozen=True)
class MatchTables:
    """Distance table and index table, one row per generated point."""

    distances: np.ndarray  # (m, k) float64
    indices: np.ndarray  # (m, k) int64

    def __post_init__(self):
        d = np.ascontiguousarray(self.distances, dtype=np.float64)
        i = np.ascontiguousarray(self.indices, dtype=np.int64)
        if d.ndim != 2 or i.shape != d.shape:
            raise ValidationError("distance and index tables must share an (m, k) shape")
        d.flags.writeable = False
        i.flags.writeable = False
        object.__setattr__(self, "distances", d)
        object.__setattr__(self, "indices", i)

    @property
    def m(self) -> int:
        return self.distances.shape[0]

    @property
    def k(self) -> int:
        return self.distances.shape[1]


def batch_match(training_repr, generated: EmbeddingMatrix, k: int, threads: int = 1) -> MatchTables:
    """Top-k match every generated row; rows are independent.

    ``training_repr`` is either an :class:`EmbeddingMatrix` (exact mode)
    or a ``(Codebook, PQCodes)`` pair (PQ mode). A single query is a
    one-row ``generated`` matrix. ``threads`` splits the query rows
    across at most that many workers, and never more than there are
    rows or CPUs; the result is identical for any count.
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    if isinstance(training_repr, EmbeddingMatrix):
        source, fill, dim = training_repr.data, np.copyto, training_repr.dim
    else:
        codebook, codes = training_repr
        check_codes(codes, codebook)
        source, fill, dim = codes.codes, partial(decode_into, codebook), codebook.dim
    validate_pair((source.shape[0], dim), generated)
    queries = generated.data.astype(np.float64)
    kernel = partial(nearest_rows, source, fill, k=k)
    workers = min(threads, queries.shape[0], os.cpu_count() or 1)
    if workers <= 1:
        indices, sq_dists = kernel(queries)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(kernel, np.array_split(queries, workers)))
        indices = np.concatenate([idx for idx, _ in parts])
        sq_dists = np.concatenate([sq for _, sq in parts])
    return MatchTables(np.sqrt(sq_dists), indices)


def recall_at_k(approx: MatchTables, exact: MatchTables) -> float:
    """Mean per-row overlap between approximate and exact index rows."""
    if approx.indices.shape != exact.indices.shape:
        raise ValidationError(
            f"shape mismatch: approx {approx.indices.shape}, exact {exact.indices.shape}"
        )
    k = approx.k
    hits = sum(
        np.intersect1d(a, e).size for a, e in zip(approx.indices, exact.indices)
    )
    return hits / (approx.m * k)


def write_match_jsonl(tables: MatchTables, fh) -> None:
    """Emit one JSON object per generated point; distances at 9 sig digits."""
    for j in range(tables.m):
        pairs = ", ".join(
            '{{"train_index": {}, "distance": {}}}'.format(
                int(i), DISTANCE_FORMAT.format(float(d))
            )
            for i, d in zip(tables.indices[j], tables.distances[j])
        )
        fh.write(f'{{"gen_index": {j}, "matches": [{pairs}]}}\n')


# JSON decodes integers to int and other numbers to float; bool is
# neither, so a type test (not isinstance) also rejects true/false
_INT_TYPES = {int}
_NUMBER_TYPES = {int, float}


def read_match_jsonl(fh) -> MatchTables:
    """Parse JSON-lines matches back into tables.

    Lines may arrive in any order but must cover gen_index 0..m-1 exactly
    once with a consistent k >= 1. Indices must be JSON integers and
    distances JSON numbers; nothing is coerced.
    """
    rows = {}
    k = None
    for lineno, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            j = obj["gen_index"]
            idx = [p["train_index"] for p in obj["matches"]]
            dist = [p["distance"] for p in obj["matches"]]
        except (json.JSONDecodeError, KeyError, TypeError):
            raise FormatError(f"match stream line {lineno}: malformed record") from None
        if (
            type(j) is not int
            or not set(map(type, idx)) <= _INT_TYPES
            or not set(map(type, dist)) <= _NUMBER_TYPES
        ):
            raise FormatError(
                f"match stream line {lineno}: indices must be JSON integers "
                "and distances JSON numbers"
            )
        if not idx:
            raise FormatError(f"match stream line {lineno}: record has no matches")
        if k is None:
            k = len(idx)
        elif len(idx) != k:
            raise FormatError(
                f"match stream line {lineno}: expected {k} matches, found {len(idx)}"
            )
        if j in rows:
            raise FormatError(f"match stream line {lineno}: duplicate gen_index {j}")
        rows[j] = idx, dist
    if not rows:
        raise FormatError("match stream is empty")
    m = len(rows)
    if sorted(rows) != list(range(m)):
        raise FormatError("match stream gen_index values must cover 0..m-1")
    try:
        indices = np.array([rows[j][0] for j in range(m)], dtype=np.int64)
        distances = np.array([rows[j][1] for j in range(m)], dtype=np.float64)
    except OverflowError:
        raise FormatError("match stream holds a number outside the 64-bit range") from None
    return MatchTables(distances, indices)
