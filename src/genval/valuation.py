"""Per-training-point values from match tables.

Each generated point distributes one unit of credit across its top-k
training matches through a softmax of negative distances; a training
point's value is the sum of its credits over all generated points, so
total value always equals the number of generated points. An optional
sharpness factor scales the distances before exponentiation (factor 1
is the plain softmax) because embedding spaces with large distance
magnitudes otherwise saturate the top score to 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CorruptionError, InternalError, ValidationError
from .search import MatchTables

MASS_TOLERANCE = 1e-6  # |sum(values) - m| <= MASS_TOLERANCE * m


@dataclass(frozen=True)
class ValuationResult:
    n: int
    m: int
    k: int
    values: np.ndarray  # (n,) float64, nonnegative
    ranking: np.ndarray  # (n,) int64, descending value, ties by index

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        r = np.ascontiguousarray(self.ranking, dtype=np.int64)
        v.flags.writeable = False
        r.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "ranking", r)


def discount_scores(distances, temperature: float = 1.0) -> np.ndarray:
    """Softmax of negative distances: exp(-b*d_i) / sum_t exp(-b*d_t).

    ``distances`` is one ``(k,)`` row or an ``(m, k)`` table; the softmax
    runs along the last axis, so every row of a table gets exactly the
    arithmetic a lone row gets. Shifting each row by its minimum before
    exponentiation keeps the computation stable without changing the
    result.
    """
    d = np.asarray(distances, dtype=np.float64)
    if d.ndim not in (1, 2):
        raise ValidationError("distances must be a (k,) row or an (m, k) table")
    if d.shape[-1] == 0:
        raise ValidationError("distance row is empty")
    if not np.isfinite(d).all() or (d < 0).any():
        raise ValidationError("distances must be finite and >= 0")
    if not (temperature > 0 and np.isfinite(temperature)):
        raise ConfigError("temperature must be a positive finite real")
    # a product beyond float64's range is -inf, and exp(-inf) = 0 is the
    # exact limit, so the overflow is not an error
    with np.errstate(over="ignore"):
        e = np.exp(-temperature * (d - d.min(axis=-1, keepdims=True)))
    return e / e.sum(axis=-1, keepdims=True)


def aggregate_values(tables: MatchTables, n: int, temperature: float = 1.0) -> ValuationResult:
    """Sum each training point's per-row credit into a value vector.

    Accumulation runs over generated rows in ascending order with 64-bit
    sums, so the result does not depend on scheduling. A training point
    that appears in no match row keeps value exactly 0.
    """
    if n < 1:
        raise ValidationError("training count must be >= 1")
    if n > np.iinfo(np.intp).max // 8:
        raise ValidationError(f"training count {n} exceeds numpy's array size limit")
    if tables.indices.size and (
        tables.indices.min() < 0 or tables.indices.max() >= n
    ):
        bad = np.argwhere((tables.indices < 0) | (tables.indices >= n))[0]
        raise CorruptionError(
            f"match row {bad[0]} references training index "
            f"{tables.indices[bad[0], bad[1]]} outside [0, {n})"
        )
    scores = discount_scores(tables.distances, temperature)
    values = np.zeros(n, dtype=np.float64)
    np.add.at(values, tables.indices.ravel(), scores.ravel())
    total = float(values.sum())
    if abs(total - tables.m) > MASS_TOLERANCE * tables.m:
        raise InternalError(
            f"value mass {total} deviates from generated count {tables.m}"
        )
    ranking = np.lexsort((np.arange(n), -values))
    return ValuationResult(n=n, m=tables.m, k=tables.k, values=values, ranking=ranking)
