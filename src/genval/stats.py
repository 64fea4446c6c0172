"""Statistical validation: one-sided Welch test and exact transport cost.

The t tail probability is evaluated through the regularized incomplete
beta function (continued fraction, 1e-12 convergence threshold, 300
iteration cap). The transport cost solves the min-cost perfect
assignment between two equal-size point sets with an O(n^3) Hungarian
algorithm; it is a desk-scale oracle, capped at n = 256.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingMatrix
from .errors import ValidationError

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
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
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
    return 1.0 - math.exp(b * math.log1p(-x) + a * math.log(x) - _log_beta(b, a)) * _beta_cf(1.0 - x, b, a) / b


def student_t_sf(t: float, df: float) -> float:
    """P(T_df >= t), the upper tail of Student's t distribution."""
    if df <= 0:
        raise ValidationError("degrees of freedom must be positive")
    x = df / (df + t * t)
    tail = 0.5 * regularized_incomplete_beta(x, 0.5 * df, 0.5)
    return tail if t >= 0 else 1.0 - tail


def welch_t_test(a, b) -> TTestResult:
    """One-sided Welch test of mean(a) > mean(b), unequal variances.

    Uses unbiased sample variances and the Welch-Satterthwaite degrees
    of freedom; raises ValidationError when these leave float64's range.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.size < 2 or b.size < 2:
        raise ValidationError(
            f"sample too small: need >= 2 per group, got {a.size} and {b.size}"
        )
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValidationError("samples must be finite")
    n_a, n_b = a.size, b.size
    # a sum or square beyond float64's range is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        mean_a, mean_b = float(a.mean()), float(b.mean())
        var_a = float(a.var(ddof=1))
        var_b = float(b.var(ddof=1))
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
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    # match[j] = row matched to column j; column 0 is a virtual root
    match = np.zeros(n + 1, dtype=np.int64)
    way = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match[j0]
            free = ~used
            free[0] = False
            cur = cost[i0 - 1, :][free[1:]] - u[i0] - v[1:][free[1:]]
            better = cur < minv[free]
            if better.any():
                free_idx = np.flatnonzero(free)
                upd = free_idx[better]
                minv[upd] = cur[better]
                way[upd] = j0
            free_idx = np.flatnonzero(free)
            j1 = free_idx[np.argmin(minv[free])]
            delta = minv[j1]
            u[match[used]] += delta
            v[used] -= delta
            minv[free] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    assignment = np.empty(n, dtype=np.int64)
    for j in range(1, n + 1):
        assignment[match[j] - 1] = j - 1
    return assignment


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix in float64 by direct subtraction."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def exact_wasserstein(source: EmbeddingMatrix, target: EmbeddingMatrix, p: int = 2) -> TransportResult:
    """Exact transport cost between two equal-size empirical point sets.

    Solves min over permutations s of (mean_i d(x_i, y_s(i))^p)^(1/p).
    Only equal-mass, equal-count instances are supported.
    """
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
    dist = pairwise_distances(
        source.data.astype(np.float64), target.data.astype(np.float64)
    )
    cost_matrix = dist if p == 1 else dist * dist
    assignment = _hungarian(cost_matrix)
    mean_cost = float(cost_matrix[np.arange(n), assignment].mean())
    cost = mean_cost if p == 1 else math.sqrt(mean_cost)
    assignment.flags.writeable = False
    return TransportResult(cost=cost, p=p, assignment=assignment)
