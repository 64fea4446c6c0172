"""Independent naive oracles used to cross-check the package.

Everything here is deliberately written the slow, obvious way — plain
Python loops, ``math``/``fractions``/``mpmath`` arithmetic, factorial
enumeration — and imports nothing from ``genval``.  If a fast path and
one of these oracles disagree, the fast path is wrong.  Two exceptions
are frozen copies of earlier code: ``hungarian``, kept to pin which of
several optimal assignments the package picks, and
``kmeans_pp_full_rescan``, kept to pin k-means++ seeding to the bit.
"""
import itertools
import json
import math

import mpmath
import numpy as np


# ---------------------------------------------------------------- distances


def sq_dist(a, b):
    total = 0.0
    for x, y in zip(a, b):
        d = float(x) - float(y)
        total += d * d
    return total


def full_scan_topk(train_rows, query, k):
    """Exact top-k by scanning every row; ties broken by lower index.

    Returns a list of (index, euclidean_distance) pairs.
    """
    scored = []
    for i, row in enumerate(train_rows):
        scored.append((sq_dist(row, query), i))
    scored.sort()
    out = []
    for d2, i in scored[: min(k, len(scored))]:
        out.append((i, math.sqrt(d2)))
    return out


def recall_at_k_loop(approx_rows, exact_rows):
    """Recall as a per-row loop: each row counts the distinct indices it
    shares with its exact row (numpy's ``intersect1d``), over m * k."""
    hits = sum(np.intersect1d(a, e).size for a, e in zip(approx_rows, exact_rows))
    return hits / (len(approx_rows) * len(approx_rows[0]))


def match_jsonl(indices, distances):
    """JSON-lines text of match tables built one pair at a time with
    ``str.format``: the writer before its one template per row."""
    lines = []
    for j, (irow, drow) in enumerate(zip(indices, distances)):
        pairs = ", ".join(
            '{{"train_index": {}, "distance": {}}}'.format(int(i), "{:.9g}".format(float(d)))
            for i, d in zip(irow, drow)
        )
        lines.append(f'{{"gen_index": {j}, "matches": [{pairs}]}}\n')
    return "".join(lines)


def jsonl_round_trip(indices, distances):
    """The (indices, distances) tables after writing them as JSON lines
    and parsing each line back with ``json.loads``: the route ``value
    --inline`` took before it rounded the distances in arrays."""
    rows = [json.loads(line) for line in match_jsonl(indices, distances).splitlines()]
    return (
        np.array([[p["train_index"] for p in row["matches"]] for row in rows], dtype=np.int64),
        np.array([[float(p["distance"]) for p in row["matches"]] for row in rows]),
    )


# ------------------------------------------------------------------ scoring


def softmax_scores(distances, beta=1.0):
    """exp(-beta*d_i) / sum_t exp(-beta*d_t), shifted for stability."""
    lo = min(distances)
    weights = [math.exp(-beta * (d - lo)) for d in distances]
    z = sum(weights)
    return [w / z for w in weights]


def mp_softmax(distances, beta=1.0, dps=50):
    """High-precision softmax of negative distances via mpmath."""
    with mpmath.workdps(dps):
        weights = [mpmath.exp(-mpmath.mpf(beta) * mpmath.mpf(d)) for d in distances]
        z = mpmath.fsum(weights)
        return [float(w / z) for w in weights]


def pipeline_values(train_rows, gen_rows, k, beta=1.0):
    """Exact matching + softmax credit + per-index accumulation, all loops."""
    values = [0.0] * len(train_rows)
    for q in gen_rows:
        matches = full_scan_topk(train_rows, q, k)
        scores = softmax_scores([d for _, d in matches], beta)
        for (idx, _), s in zip(matches, scores):
            values[idx] += s
    return values


# --------------------------------------------------------------- statistics


def welch(a, b):
    """Welch's t, Welch-Satterthwaite df, and one-sided p (mean_a > mean_b).

    The p-value goes through mpmath's regularized incomplete beta, which
    shares no code with the hand-rolled continued fraction under test.
    """
    na, nb = len(a), len(b)
    ma = sum(a) / na
    mb = sum(b) / nb
    va = sum((x - ma) ** 2 for x in a) / (na - 1)
    vb = sum((x - mb) ** 2 for x in b) / (nb - 1)
    se2 = va / na + vb / nb
    t = (ma - mb) / math.sqrt(se2)
    df = se2**2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    return t, df, mp_student_t_sf(t, df)


def welch_numpy(a, b):
    """The Welch statistics (mean_a, mean_b, var_a, var_b, t, df) as
    numpy's reductions give them: both samples read as flat float64
    arrays, ``mean()`` and ``var(ddof=1)``, then t and df by the package's
    formulas; a result beyond float64's range reads inf or nan."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        ma, mb = float(a.mean()), float(b.mean())
        va, vb = float(a.var(ddof=1)), float(b.var(ddof=1))
    sa, sb = va / a.size, vb / b.size
    try:
        t = (ma - mb) / math.sqrt(sa + sb)
        df = (sa + sb) ** 2 / (sa * sa / (a.size - 1) + sb * sb / (b.size - 1))
    except OverflowError:
        t = df = math.inf
    return ma, mb, va, vb, t, df


def mp_student_t_sf(t, df, dps=50):
    """P(T > t) for Student's t via mpmath's incomplete beta."""
    with mpmath.workdps(dps):
        t = mpmath.mpf(t)
        df = mpmath.mpf(df)
        x = df / (df + t * t)
        tail = mpmath.betainc(df / 2, mpmath.mpf(1) / 2, 0, x, regularized=True) / 2
        if t < 0:
            tail = 1 - tail
        return float(tail)


def t_sf_closed_form(t, df):
    """Closed-form survival functions for df in {1, 2}."""
    if df == 1:
        return 0.5 - math.atan(t) / math.pi
    if df == 2:
        return 0.5 - t / (2.0 * math.sqrt(2.0 + t * t))
    raise ValueError("closed form only for df in {1, 2}")


# ---------------------------------------------------------------- transport


def min_cost_perm(source_rows, target_rows, p=2):
    """Optimal-assignment transport cost by factorial enumeration.

    Returns (cost, assignment) where assignment[i] is the target index
    paired with source row i.  cost = (mean_i dist(i, sigma(i))^p)^(1/p).
    """
    n = len(source_rows)
    if n != len(target_rows):
        raise ValueError("equal counts required")
    best = None
    best_perm = None
    for perm in itertools.permutations(range(n)):
        total = 0.0
        for i, j in enumerate(perm):
            d = math.sqrt(sq_dist(source_rows[i], target_rows[j]))
            total += d**p
        if best is None or total < best - 1e-15:
            best = total
            best_perm = perm
    return (best / n) ** (1.0 / p), list(best_perm)


def hungarian(cost: np.ndarray) -> np.ndarray:
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


# ------------------------------------------------------------ vector coding


def kmeans_objective(points, centroids):
    """Total squared distance from each point to its nearest centroid."""
    total = 0.0
    for pt in points:
        total += min(sq_dist(pt, c) for c in centroids)
    return total


def kmeans_pp_full_rescan(points, k, rng):
    """k-means++ seeding that re-scores every row against each new
    centre, with the package's float64 subtraction and einsum distances
    and its random stream ``rng``: the seeding before pruning."""

    def sq_dists(rows, point):
        diff = np.subtract(rows, point, dtype=np.float64)
        return np.einsum("ij,ij->i", diff, diff)

    n = points.shape[0]
    chosen = [rng.integers(n)]
    d2 = sq_dists(points, points[chosen[0]])
    for _ in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
        else:
            taken = set(chosen)
            idx = next((i for i in range(n) if i not in taken), chosen[0])
        chosen.append(idx)
        d2 = np.minimum(d2, sq_dists(points, points[idx]))
    return points[np.array(chosen)].copy()


def best_two_centroids_1d(values):
    """Enumerate every split of sorted 1-D data into two contiguous groups
    and return the pair of group means minimizing the k-means objective.
    (For k=2 in one dimension the optimum is always a contiguous split.)
    """
    pts = sorted(float(v) for v in values)
    best = None
    best_pair = None
    for cut in range(1, len(pts)):
        left, right = pts[:cut], pts[cut:]
        c = [sum(left) / len(left), sum(right) / len(right)]
        obj = kmeans_objective([[v] for v in pts], [[x] for x in c])
        if best is None or obj < best:
            best = obj
            best_pair = c
    return sorted(best_pair), best / len(pts)


# ---------------------------------------------------------------- value CSVs


def value_csv_table(text):
    """compare's value CSV read the obvious way: a dict from train_index
    to value, filled line by line. Raises ValueError with the message
    ``compare`` gives, less its file name."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    table = {}
    for lineno, line in enumerate(lines, start=1):
        if lineno == 1 and line.startswith("train_index"):
            continue
        fields = line.split(",")
        if len(fields) < 2:
            raise ValueError(f"line {lineno}: expected train_index,value[,rank]")
        try:
            idx, val = int(fields[0]), float(fields[1])
        except ValueError:
            raise ValueError(f"line {lineno}: unparseable field") from None
        if idx in table:
            raise ValueError(f"line {lineno}: duplicate train_index {idx}")
        table[idx] = val
    if not table:
        raise ValueError("no value rows")
    return table


def group_values(table, name, wanted):
    """The values of ``table`` that group ``name`` lists, in its order."""
    for idx in wanted:
        if idx not in table:
            raise ValueError(f"group {name!r} references train_index {idx} missing from the value CSV")
    return [table[idx] for idx in wanted]
