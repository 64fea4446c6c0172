"""Top-k matching of generated points against training points.

Both routes run ``embeddings.nearest_rows``, the one scan (its docstring
holds the design), over tiles of training rows that each route's
``fill`` writes: the exact route copies a matrix's rows or reads an EMBX
file's (``embeddings.open_rows``); the PQ route decodes the codes, so
its distance is the asymmetric distance of product quantization, the
exact distance from the query to the decoded row. Reported distances
are non-squared Euclidean; rows are sorted ascending by distance with
ties broken by ascending training index, so output is reproducible bit
for bit regardless of tile size or scheduling. JSON lines carry
distances at 9 significant digits; ``as_written`` gives the tables a
reader gets back, so ``value --inline`` values exactly what a piped
``value`` reads.
"""
from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from functools import partial

import numpy as np

from .embeddings import EmbeddingMatrix, frozen, nearest_rows, validate_pair
from .errors import ConfigError, FormatError, ValidationError
from .textio import read_lines
from .workers import lone_os_thread, map_processes, worker_count

# distances in JSON-lines output carry 9 significant digits
DISTANCE_FORMAT = "%.9g"
# distances formatted and parsed back per block in ``as_written``
ROUND_BLOCK = 4096


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
        object.__setattr__(self, "distances", frozen(d))
        object.__setattr__(self, "indices", frozen(i))

    @property
    def m(self) -> int:
        return self.distances.shape[0]

    @property
    def k(self) -> int:
        return self.distances.shape[1]


def batch_match(training_repr, generated: EmbeddingMatrix, k: int) -> MatchTables:
    """Top-k match every generated row; rows are independent.

    ``training_repr`` is an :class:`EmbeddingMatrix`, held in memory or
    left in an EMBX file by ``embeddings.open_rows`` (exact mode), or a
    ``(Codebook, PQCodes)`` pair (PQ mode); the two exact forms of one
    matrix give the same tables. A single query is a one-row
    ``generated`` matrix. The query rows are split across one worker
    per row or CPU, whichever is fewer (``workers.worker_count``,
    ``workers.map_processes``); each worker fills one tile of training
    rows at a time, and the result is identical for any count. The scan
    takes more than one worker only while the process runs no other OS
    thread (``workers.lone_os_thread``): a BLAS thread pool in each
    forked worker would oversubscribe the cores and make the scan slower
    than one worker.
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    if isinstance(training_repr, EmbeddingMatrix):
        n, fill, dim = training_repr.count, training_repr.fill, training_repr.dim
    else:
        # imported here, so that the exact route loads no pq
        from .pq import check_codes, decode_into

        codebook, codes = training_repr
        check_codes(codes, codebook)
        n, fill, dim = codes.count, partial(decode_into, codebook, codes.codes), codebook.dim
    validate_pair((n, dim), generated)
    workers = worker_count(generated.count) if lone_os_thread() else 1
    parts = map_processes(partial(nearest_rows, n, fill, k=k),
                          np.array_split(generated.data, workers), workers)
    indices = np.concatenate([idx for idx, _ in parts])
    sq_dists = np.concatenate([sq for _, sq in parts])
    return MatchTables(np.sqrt(sq_dists), indices)


def recall_at_k(approx: MatchTables, exact: MatchTables) -> float:
    """Mean per-row overlap between approximate and exact index rows: a
    row's hits are the distinct indices of its approximate row that its
    exact row holds."""
    if approx.indices.shape != exact.indices.shape:
        raise ValidationError(
            f"shape mismatch: approx {approx.indices.shape}, exact {exact.indices.shape}"
        )
    k = approx.k
    # sort each row's approximate then exact indices together, stably: an
    # index in both rows ends its approximate run right where its exact
    # run starts, once however often it repeats on either side
    both = np.concatenate([approx.indices, exact.indices], axis=1)
    order = np.argsort(both, axis=1, kind="stable")
    ranked = np.take_along_axis(both, order, axis=1)
    exact_side = order >= k
    hits = int(np.count_nonzero(
        (ranked[:, 1:] == ranked[:, :-1]) & ~exact_side[:, :-1] & exact_side[:, 1:]))
    return hits / (approx.m * k)


def write_match_jsonl(tables: MatchTables, fh) -> None:
    """Emit one JSON object per generated point, each from one template
    of k matches. Distances carry 9 significant digits
    (``DISTANCE_FORMAT``), so a reader gets back the tables of
    ``as_written``."""
    row = '{"gen_index": %d, "matches": [' + ", ".join(
        ['{"train_index": %d, "distance": ' + DISTANCE_FORMAT + "}"] * tables.k) + "]}\n"
    pair = [None] * (2 * tables.k)
    for j in range(tables.m):
        pair[0::2], pair[1::2] = tables.indices[j].tolist(), tables.distances[j].tolist()
        fh.write(row % (j, *pair))


def as_written(tables: MatchTables) -> MatchTables:
    """``tables`` as ``read_match_jsonl`` reads them back from
    ``write_match_jsonl``: each distance rounded to 9 significant digits
    by formatting it with ``DISTANCE_FORMAT`` and parsing the text as
    JSON parses a number, ``ROUND_BLOCK`` distances at a time into one
    array; indices as they are."""
    flat = tables.distances.reshape(-1)
    rounded = np.empty(flat.size)
    for lo in range(0, flat.size, ROUND_BLOCK):
        part = flat[lo : lo + ROUND_BLOCK].tolist()
        text = ((DISTANCE_FORMAT + " ") * len(part)) % tuple(part)
        rounded[lo : lo + len(part)] = np.fromiter(map(float, text.split()), np.float64, len(part))
    return MatchTables(rounded.reshape(tables.distances.shape), tables.indices)


# JSON decodes integers to int and other numbers to float; bool is
# neither, so a type test (not isinstance) also rejects true/false
_INT_TYPES = {int}
_NUMBER_TYPES = {int, float}


def read_match_jsonl(fh, where: str = "match stream") -> MatchTables:
    """Parse JSON-lines matches from the text stream ``fh``, read by
    ``read_lines``, back into tables; every error starts with ``where``.

    Lines may arrive in any order but must cover gen_index 0..m-1 exactly
    once with a consistent k >= 1. Indices must be JSON integers and
    distances JSON numbers; nothing is coerced.
    """
    # every record's indices and distances, in stream order, flat
    flat_idx, flat_dist = array("q"), array("d")
    gen, seen = [], set()
    k = None
    for lineno, line in enumerate(read_lines(fh, where), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            j = obj["gen_index"]
            idx = [p["train_index"] for p in obj["matches"]]
            dist = [p["distance"] for p in obj["matches"]]
        except (json.JSONDecodeError, KeyError, TypeError, RecursionError):
            raise FormatError(f"{where} line {lineno}: malformed record") from None
        if (
            type(j) is not int
            or not set(map(type, idx)) <= _INT_TYPES
            or not set(map(type, dist)) <= _NUMBER_TYPES
        ):
            raise FormatError(
                f"{where} line {lineno}: indices must be JSON integers "
                "and distances JSON numbers"
            )
        if not idx:
            raise FormatError(f"{where} line {lineno}: record has no matches")
        if k is None:
            k = len(idx)
        elif len(idx) != k:
            raise FormatError(
                f"{where} line {lineno}: expected {k} matches, found {len(idx)}"
            )
        if j in seen:
            raise FormatError(f"{where} line {lineno}: duplicate gen_index {j}")
        seen.add(j)
        gen.append(j)
        try:
            flat_idx.extend(idx)
            flat_dist.extend(dist)
        except OverflowError:
            raise FormatError(f"{where} line {lineno}: a number outside the 64-bit range") from None
    if not gen:
        raise FormatError(f"{where} is empty")
    m = len(gen)
    # gen_index values are m distinct ints: they cover 0..m-1 when both ends do
    if min(gen) != 0 or max(gen) != m - 1:
        raise FormatError(f"{where} gen_index values must cover 0..m-1")
    order = np.argsort(gen)
    return MatchTables(
        np.frombuffer(flat_dist, dtype=np.float64).reshape(m, k)[order],
        np.frombuffer(flat_idx, dtype=np.int64).reshape(m, k)[order],
    )
