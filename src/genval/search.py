"""Top-k matching of generated points against training points.

Two routes produce the same table shapes: an exact full scan (the
oracle) and asymmetric distance computation over PQ codes (the fast
path). Reported distances are non-squared Euclidean; rows are sorted
ascending by distance with ties broken by ascending training index, so
output is reproducible bit for bit regardless of scheduling.
"""
from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingMatrix, validate_pair
from .errors import ConfigError, FormatError, ValidationError
from .pq import Codebook

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


def _topk(d2: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and squared distances of the k smallest entries.

    Sorted ascending by value; exact ties resolved by ascending index.
    """
    n = d2.shape[0]
    if k >= n:
        order = np.argsort(d2, kind="stable")
        return order, d2[order]
    kth = np.partition(d2, k - 1)[k - 1]
    strict = np.flatnonzero(d2 < kth)
    equal = np.flatnonzero(d2 == kth)
    cand = np.concatenate([strict, equal[: k - strict.size]])
    order = cand[np.argsort(d2[cand], kind="stable")]
    return order, d2[order]


def _exact_sq_dists(training: np.ndarray, query: np.ndarray) -> np.ndarray:
    diff = training - query[None, :]
    return np.einsum("ij,ij->i", diff, diff)


def adc_lookup_table(codebook: Codebook, query: np.ndarray) -> np.ndarray:
    """Squared distances from each query subvector to every centroid.

    Shape (M, codebook_size), stored float32; ADC sums entries of this
    table in float64.
    """
    query = np.asarray(query, dtype=np.float64).reshape(-1)
    if query.shape[0] != codebook.dim:
        raise ValidationError(
            f"query dim {query.shape[0]} does not match codebook dim {codebook.dim}"
        )
    m, sd = codebook.num_subspaces, codebook.subspace_dim
    sub = query.reshape(m, sd)
    diff = codebook.centroids.astype(np.float64) - sub[:, None, :]
    return np.einsum("ijk,ijk->ij", diff, diff).astype(np.float32)


def _adc_sq_dists(table: np.ndarray, codes: np.ndarray) -> np.ndarray:
    acc = np.zeros(codes.shape[0], dtype=np.float64)
    for s in range(codes.shape[1]):
        acc += table[s][codes[:, s]]
    return acc


def batch_match(training_repr, generated: EmbeddingMatrix, k: int, threads: int = 1) -> MatchTables:
    """Top-k match every generated row; rows are independent.

    ``training_repr`` is either an :class:`EmbeddingMatrix` (exact mode)
    or a ``(Codebook, PQCodes)`` pair (ADC mode). A single query is a
    one-row ``generated`` matrix. ``threads`` splits the query rows
    across workers; the result is identical for any count.
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    if isinstance(training_repr, EmbeddingMatrix):
        validate_pair(training_repr, generated)
        train = training_repr.data.astype(np.float64)
        n = train.shape[0]

        def row_sq_dists(q):
            return _exact_sq_dists(train, q)

    else:
        codebook, codes = training_repr
        if generated.dim != codebook.dim:
            raise ValidationError(
                f"dimension mismatch: generated dim {generated.dim}, "
                f"index dim {codebook.dim}"
            )
        if codes.num_subspaces != codebook.num_subspaces:
            raise ValidationError("codes/codebook subspace count mismatch")
        if codes.count < 1:
            raise ValidationError("training set is empty")
        n = codes.count

        def row_sq_dists(q):
            return _adc_sq_dists(adc_lookup_table(codebook, q), codes.codes)

    k_eff = min(k, n)
    queries = generated.data.astype(np.float64)
    m = queries.shape[0]
    distances = np.empty((m, k_eff), dtype=np.float64)
    indices = np.empty((m, k_eff), dtype=np.int64)

    def fill(lo: int, hi: int) -> None:
        for j in range(lo, hi):
            idx, vals = _topk(row_sq_dists(queries[j]), k_eff)
            indices[j] = idx
            distances[j] = np.sqrt(vals)

    if threads == 1 or m < 2:
        fill(0, m)
    else:
        bounds = np.linspace(0, m, threads + 1, dtype=int)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(fill, int(lo), int(hi))
                for lo, hi in zip(bounds[:-1], bounds[1:])
                if hi > lo
            ]
            for fut in futures:
                fut.result()
    return MatchTables(distances, indices)


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
