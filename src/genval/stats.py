"""Statistical validation: one-sided Welch test and exact transport cost.

The Welch test runs on the standard library alone, so ``compare`` needs
no numpy: its sums port numpy's float64 pairwise summation, so the
means and variances are bitwise ``mean()`` and ``var(ddof=1)``. The t
tail probability is evaluated through the regularized incomplete beta
function (continued fraction, 1e-12 convergence threshold, 300
iteration cap). The transport cost solves the min-cost perfect
assignment between two equal-size point sets with an O(n^3) Hungarian
algorithm; it is a desk-scale oracle, capped at n = 256.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import TYPE_CHECKING

from .errors import ValidationError

if TYPE_CHECKING:
    import numpy as np

    from .embeddings import EmbeddingMatrix

_BETA_EPS = 1e-12
_BETA_MAX_ITER = 300
MAX_TRANSPORT_POINTS = 256


@dataclass(frozen=True)
class TTestResult:
    t_statistic: float
    degrees_of_freedom: float
    p_one_sided: float
    mean_a: float
    mean_b: float
    var_a: float
    var_b: float
    n_a: int
    n_b: int


@dataclass(frozen=True)
class TransportResult:
    cost: float
    p: int
    assignment: np.ndarray  # source row i pairs with target row assignment[i]


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _beta_cf(x: float, a: float, b: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        # step m's even and odd terms take the same Lentz update
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            break
    return h


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """I_x(a, b) for 0 <= x <= 1, a > 0, b > 0."""
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"x must lie in [0, 1], got {x}")
    if a <= 0 or b <= 0:
        raise ValidationError("shape parameters must be positive")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(x, a, b) / a
    return 1.0 - front * _beta_cf(1.0 - x, b, a) / b


def student_t_sf(t: float, df: float) -> float:
    """P(T_df >= t), the upper tail of Student's t distribution."""
    if df <= 0:
        raise ValidationError("degrees of freedom must be positive")
    x = df / (df + t * t)
    tail = 0.5 * regularized_incomplete_beta(x, 0.5 * df, 0.5)
    return tail if t >= 0 else 1.0 - tail


def _floats(x) -> list[float]:
    """The values of ``numpy.asarray(x, float64).reshape(-1)``, in order,
    for ``x`` a numpy array, an ``array.array``, (nested) lists or a scalar."""
    if hasattr(x, "reshape"):
        x = x.reshape(-1)
    if hasattr(x, "tolist"):
        x = x.tolist()
    if not isinstance(x, (list, tuple)):
        return [float(x)]
    try:
        return list(map(float, x))
    except TypeError:
        return [v for item in x for v in _floats(item)]


def _pairwise_sum(x: list[float], lo: int, hi: int) -> float:
    """numpy's float64 pairwise sum of ``x[lo:hi]``, bit for bit: under 8
    values in order from 0.0; up to 128 in eight strided accumulators,
    combined as a tree, then the tail; above, the halves split at a
    multiple of 8."""
    n = hi - lo
    if n < 8:
        return reduce(add, x[lo:hi], 0.0)
    if n <= 128:
        end = hi - n % 8
        r = [reduce(add, x[lo + j + 8 : end : 8], x[lo + j]) for j in range(8)]
        return reduce(add, x[end:hi], ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(x, lo, lo + half) + _pairwise_sum(x, lo + half, hi)


def _mean_var(x: list[float]) -> tuple[float, float]:
    """``mean()`` and ``var(ddof=1)`` of the float64 array ``x`` as numpy
    gives them: a reduction adds the pairwise sum to its identity 0.0, so
    -0.0 values sum to 0.0. An overflow gives inf or nan, not an error."""
    n = len(x)
    mean = (0.0 + _pairwise_sum(x, 0, n)) / n
    return mean, (0.0 + _pairwise_sum([(v - mean) * (v - mean) for v in x], 0, n)) / (n - 1)


def welch_t_test(a, b) -> TTestResult:
    """One-sided Welch test of mean(a) > mean(b), unequal variances.

    ``a`` and ``b`` are read as float64 arrays, flattened. Uses unbiased
    sample variances and the Welch-Satterthwaite degrees of freedom;
    raises ValidationError when these leave float64's range.
    """
    a, b = _floats(a), _floats(b)
    n_a, n_b = len(a), len(b)
    if n_a < 2 or n_b < 2:
        raise ValidationError(
            f"sample too small: need >= 2 per group, got {n_a} and {n_b}"
        )
    if not (all(map(math.isfinite, a)) and all(map(math.isfinite, b))):
        raise ValidationError("samples must be finite")
    # a sum or square beyond float64's range is reported below
    (mean_a, var_a), (mean_b, var_b) = _mean_var(a), _mean_var(b)
    if var_a == 0.0 and var_b == 0.0:
        raise ValidationError("degenerate samples: both variances are zero")
    sa, sb = var_a / n_a, var_b / n_b
    try:
        t = (mean_a - mean_b) / math.sqrt(sa + sb)
        df = (sa + sb) ** 2 / (sa * sa / (n_a - 1) + sb * sb / (n_b - 1))
    except OverflowError:
        t = df = math.inf
    except ZeroDivisionError:
        raise ValidationError(
            "values too small for a float64 variance: the Welch statistics underflow"
        ) from None
    if not all(map(math.isfinite, (var_a, var_b, t, df))):
        raise ValidationError(
            "values too large for a float64 variance: the Welch statistics overflow"
        )
    return TTestResult(
        t_statistic=t,
        degrees_of_freedom=df,
        p_one_sided=student_t_sf(t, df),
        mean_a=mean_a,
        mean_b=mean_b,
        var_a=var_a,
        var_b=var_b,
        n_a=n_a,
        n_b=n_b,
    )


def _hungarian(cost: np.ndarray) -> np.ndarray:
    """Min-cost perfect assignment on a square matrix, O(n^3).

    Shortest-augmenting-path formulation with row/column potentials;
    returns the column assigned to each row.
    """
    import numpy as np

    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    # match[j] = row matched to column j; column 0 is a virtual root
    match = np.zeros(n + 1, dtype=np.int64)
    way = np.zeros(n + 1, dtype=np.int64)
    cur = np.full(n + 1, np.inf)  # reduced costs of one row; the root stays inf
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while match[j0]:
            used[j0] = True
            i0 = match[j0]
            np.subtract(cost[i0 - 1], u[i0], out=cur[1:])
            cur[1:] -= v[1:]
            better = ~used & (cur < minv)
            minv[better] = cur[better]
            way[better] = j0
            # the lowest free column on a tie, as argmin returns the first
            j1 = np.argmin(np.where(used, np.inf, minv))
            delta = minv[j1]
            u[match[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    assignment = np.empty(n, dtype=np.int64)
    assignment[match[1:] - 1] = np.arange(n)
    return assignment


def exact_wasserstein(source: EmbeddingMatrix, target: EmbeddingMatrix, p: int = 2) -> TransportResult:
    """Exact transport cost between two equal-size empirical point sets.

    Solves min over permutations s of (mean_i d(x_i, y_s(i))^p)^(1/p).
    Only equal-mass, equal-count instances are supported.
    """
    import numpy as np

    from .embeddings import exact_sq_dists, frozen

    if p not in (1, 2):
        raise ValidationError(f"p must be 1 or 2, got {p}")
    if source.count != target.count:
        raise ValidationError(
            f"unbalanced transport unsupported: source count {source.count}, "
            f"target count {target.count}"
        )
    n = source.count
    if n < 1:
        raise ValidationError("point sets are empty")
    if n > MAX_TRANSPORT_POINTS:
        raise ValidationError(
            f"instance too large: {n} points exceeds cap {MAX_TRANSPORT_POINTS}"
        )
    if source.dim != target.dim:
        raise ValidationError(
            f"dimension mismatch: source dim {source.dim}, target dim {target.dim}"
        )
    # one cost row at a time: O(n·d) scratch, not an (n, n, d) difference
    dist = np.stack([np.sqrt(exact_sq_dists(target.data, row)) for row in source.data])
    cost_matrix = dist if p == 1 else dist * dist
    assignment = _hungarian(cost_matrix)
    mean_cost = float(cost_matrix[np.arange(n), assignment].mean())
    cost = mean_cost if p == 1 else math.sqrt(mean_cost)
    return TransportResult(cost=cost, p=p, assignment=frozen(assignment))
