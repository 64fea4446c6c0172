import os
import re
import signal
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import reference
from conftest import (BLAS_ENV, child_env, fake_cpus, fake_os_threads, forbidden_fork, run_cli, traced_peak,
                      write_embx)
from genval import embeddings, pq
from genval import (
    Codebook,
    EmbeddingMatrix,
    PQCodes,
    PQConfig,
    decode,
    encode,
    load_index,
    quantization_error,
    save_index,
    train_codebooks,
)
from genval.embeddings import exact_sq_dists
from genval.errors import ConfigError, CorruptionError, FormatError, InternalError, ValidationError
from genval.philox import Philox


def mat(rows, dtype=np.float32):
    return EmbeddingMatrix(np.asarray(rows, dtype=dtype))


def small_codebook():
    # one subspace of dim 1, centroids 0..4
    return Codebook(np.arange(5, dtype=np.float32).reshape(1, 5, 1))


# ----------------------------------------------------------------- training


def test_kmeans_two_clusters_1d():
    """{0,1,10,11} with two centroids: enumeration says {0.5, 10.5} at 0.25/point."""
    data = mat([[0.0], [1.0], [10.0], [11.0]])
    cfg = PQConfig(num_subspaces=1, codebook_size=2, kmeans_iters=25, seed=0)
    cb = train_codebooks(data, cfg)
    got = sorted(cb.centroids[0, :, 0].tolist())

    expect, per_point = reference.best_two_centroids_1d([0, 1, 10, 11])
    assert got == pytest.approx(expect, abs=1e-12)
    assert per_point == pytest.approx(0.25)
    assert quantization_error(data, cb) == pytest.approx(0.25, abs=1e-12)


def test_zero_mass_pick_and_empty_cluster_reseed():
    """Six 1-D points 0, 0, 1, 1, 2, 2 and k = 5, by hand.

    k-means++: the stream's first draws pick point 0 (x = 0), then, with
    weights d² = 0 0 1 1 4 4 (total 10), point 4 (x = 2), then, with
    d² = 0 0 1 1 0 0 (total 2), point 2 (x = 1). All mass is now on
    chosen points, so the rule takes the lowest unchosen index twice:
    points 1 and 3, for centroids 0 2 1 0 1.

    Lloyd: each point goes to its nearest centroid, ties to the lowest
    index, so clusters 3 and 4 are empty and the others keep their
    means. Cluster 3 (stale at 0) is reseeded to the farthest point,
    x = 2, first at index 4; cluster 4 (stale at 1) to the farthest,
    at distance 1, first at index 0: x = 0. The next assignment is the
    same, so Lloyd stops at 0 2 1 2 0.
    """
    points = np.array([0, 0, 1, 1, 2, 2], dtype=np.float64)[:, None]
    rng = pq._subspace_rng(0, 0)
    first, u1, u2 = rng.integers(6), rng.random(), rng.random()
    # the draws that make the picks above: searchsorted of u·total in
    # the cumulative weights 0 0 1 2 6 10, then 0 0 1 2 2 2
    assert first == 0 and 2 <= u1 * 10 < 6 and u2 * 2 < 1
    init = pq._kmeans_pp_init(points, 5, pq._subspace_rng(0, 0))
    assert init[:, 0].tolist() == [0, 2, 1, 0, 1]
    centroids, objectives = pq._lloyd(points, 5, 25, pq._subspace_rng(0, 0))
    assert centroids[:, 0].tolist() == [0, 2, 1, 2, 0]
    assert objectives == [0.0, 0.0]


SEEDING_ROWS = {
    "gaussian": lambda rng: rng.standard_normal((600, 8)),
    "duplicates": lambda rng: rng.standard_normal((40, 8))[rng.integers(0, 40, 600)],
    "all-equal": lambda rng: np.full((600, 8), 0.75),  # the total == 0 branch
    # steps of a tenth, which float32 rounds: midpoints and near-ties
    "lattice": lambda rng: rng.integers(-3, 4, (600, 8)) * 0.1,
    "1e4-offset": lambda rng: rng.standard_normal((600, 8)) + 1e4,
    "1e30-scaled": lambda rng: rng.standard_normal((600, 8)) * 1e30,
    "1e-30-scaled": lambda rng: rng.standard_normal((600, 8)) * 1e-30,
    "1-dim": lambda rng: rng.standard_normal((600, 1)),
}


def seeding_trace(monkeypatch, seeding, points, k, stream):
    """Centres of ``seeding`` and every weight vector its draws read;
    ``stream()`` makes its random stream."""
    weights, cumsum = [], np.cumsum

    def recording(a, *args, **kwargs):
        weights.append(a.tobytes())
        return cumsum(a, *args, **kwargs)

    monkeypatch.setattr(np, "cumsum", recording)
    try:
        centres = seeding(points, k, stream())
    finally:
        monkeypatch.setattr(np, "cumsum", cumsum)
    return centres.tobytes(), weights


def assert_seeding_is_the_full_rescan(monkeypatch, points, k, stream):
    """Every weight and centre of ``_kmeans_pp_init`` bitwise those of
    re-scoring all rows; returns its centres' bytes."""
    ours = seeding_trace(monkeypatch, pq._kmeans_pp_init, points, k, stream)
    assert ours == seeding_trace(monkeypatch, reference.kmeans_pp_full_rescan, points, k, stream)
    return ours[0]


@pytest.mark.parametrize("kind", SEEDING_ROWS)
@pytest.mark.parametrize("k", [1, 2, 16, 64, 256])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pruned_seeding_equals_the_full_rescan(monkeypatch, kind, k, seed):
    points = SEEDING_ROWS[kind](np.random.default_rng([seed, k])).astype(np.float32).astype(np.float64)
    assert_seeding_is_the_full_rescan(monkeypatch, points, k, lambda: pq._subspace_rng(seed, 0))


class FixedDraws:
    """A stand-in for the seeding's random stream: the first centre is
    the last row, then the given uniform draws."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def integers(self, n):
        return n - 1

    def random(self):
        return next(self.draws)


@pytest.mark.parametrize("seed", range(8))
def test_pruned_seeding_sums_a_lone_long_row_as_the_full_rescan_does(monkeypatch, seed):
    """einsum sums a lone row of more than 8192 entries in pieces. Rows
    P, Q, S, R of dim 9 000, Q nearer R and S near P: R is drawn, then P,
    then a draw of 1.0 lands past the last weight and takes the last row,
    R, again. Only Q, which R owns, is then re-scored, alone."""
    rng = np.random.default_rng(seed)
    p, r = rng.standard_normal((2, 9000))
    rows = [p, r + 0.5 * rng.standard_normal(9000), p + 0.01 * rng.standard_normal(9000), r]
    points = np.array(rows).astype(np.float32).astype(np.float64)
    assert_seeding_is_the_full_rescan(monkeypatch, points, 4, lambda: FixedDraws([0.0, 1.0, 0.5]))


def test_pruned_seeding_re_scores_a_row_past_the_midpoint(monkeypatch):
    """Row x lies a hair nearer to centre c than to its owner o, yet
    D(x, o) = fl(D(o, c) / 4) (found by search): only the rounding
    margin has the seeding re-score it once c is drawn after o."""
    o, c, x = [-1.0, 2.0**-26], [1 + 2.0**-22, -(2.0**-27)], [2.0**-23, 0.0]
    points = np.array([o, c, x])
    assert exact_sq_dists(points[2:], points[1]) < exact_sq_dists(points[2:], points[0])
    assert exact_sq_dists(points[2:], points[0]) == exact_sq_dists(points[:1], points[1]) / 4
    centres = [assert_seeding_is_the_full_rescan(monkeypatch, points, 3, lambda: pq._subspace_rng(seed, 0))
               for seed in range(16)]
    assert points[:2].tobytes() in [drawn[:32] for drawn in centres]  # some seed draws o, then c


def numpy_philox(entropy):
    """The oracle: numpy's own stream for ``entropy``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


# the seeds of the flag probe against two subspaces, and entropy of one,
# six and many words
ENTROPIES = [[seed, s] for seed in (0, 2**32 - 1, 2**32, 2**63, 10**30) for s in (0, 7)] + [
    [], [5], [1, 2, 3, 4, 5, 6], [2**200 + 3, 0, 2**64 - 1, 9]]
# both sides of the 32-bit path's 2**32 limit; 2**31 + 1 and 2**62 + 1
# reject about half and a quarter of their draws
BOUNDS = [1, 2, 10_000, 2**31 + 1, 2**32, 2**32 + 1, 2**62 + 1, 2**63 - 1]


@pytest.mark.parametrize("entropy", ENTROPIES)
def test_philox_is_numpys_stream(entropy):
    ours, oracle = Philox(entropy), numpy_philox(entropy)
    for n in BOUNDS:
        assert [ours.integers(n) for _ in range(30)] == oracle.integers(n, size=30).tolist()
    # interleaved: a 32-bit draw keeps its draw's high half for the next
    # one, and random() between them leaves it kept
    for step in range(300):
        if step % 3 == 1:
            assert ours.random() == oracle.random()
        else:
            n = BOUNDS[step % len(BOUNDS)]
            assert ours.integers(n) == oracle.integers(n)


@pytest.mark.parametrize("n, draw", [(2**31 + 1, "_next32"), (2**62 + 1, "_next64")])
def test_philox_rejection_loops_redraw(n, draw):
    ours, oracle = Philox([3, 1]), numpy_philox([3, 1])
    raw, calls = getattr(ours, draw), []
    setattr(ours, draw, lambda: calls.append(1) or raw())
    assert [ours.integers(n) for _ in range(200)] == oracle.integers(n, size=200).tolist()
    assert len(calls) > 220


def test_each_point_its_own_centroid(rng):
    data = mat(rng.standard_normal((6, 4)))
    cfg = PQConfig(num_subspaces=2, codebook_size=6, kmeans_iters=5, seed=1)
    cb = train_codebooks(data, cfg)
    assert quantization_error(data, cb) == pytest.approx(0.0, abs=1e-10)
    # decode(encode(x)) must give back x exactly once the error hits zero
    assert decode(encode(data, cb), cb) == data


def test_identical_points_single_centroid():
    data = mat([[2.5, -1.0]] * 7)
    cfg = PQConfig(num_subspaces=1, codebook_size=1, kmeans_iters=3, seed=0)
    cb = train_codebooks(data, cfg)
    np.testing.assert_array_equal(cb.centroids[0, 0], [2.5, -1.0])


def test_training_is_deterministic(rng):
    data = mat(rng.standard_normal((200, 8)))
    cfg = PQConfig(num_subspaces=4, codebook_size=16, kmeans_iters=10, seed=9)
    a = train_codebooks(data, cfg)
    b = train_codebooks(data, cfg)
    assert a.centroids.tobytes() == b.centroids.tobytes()


def test_seed_changes_training(rng):
    data = mat(rng.standard_normal((200, 8)))
    a = train_codebooks(data, PQConfig(4, 16, 10, seed=9))
    b = train_codebooks(data, PQConfig(4, 16, 10, seed=10))
    assert a.centroids.tobytes() != b.centroids.tobytes()


def test_training_beats_random_centroid_choice(rng):
    """The trained objective must undercut centroids taken as raw data rows."""
    data = mat(rng.standard_normal((300, 6)))
    cfg = PQConfig(num_subspaces=2, codebook_size=8, kmeans_iters=20, seed=3)
    cb = train_codebooks(data, cfg)
    pick = rng.choice(300, size=8, replace=False)
    naive = Codebook(
        np.stack(
            [data.data[pick, :3], data.data[pick, 3:]],
        )
    )
    assert quantization_error(data, cb) < quantization_error(data, naive)


def test_config_validation():
    with pytest.raises(ConfigError):
        PQConfig(num_subspaces=3).validate(dim=8, count=100)  # 8 % 3 != 0
    with pytest.raises(ConfigError):
        PQConfig(codebook_size=200).validate(dim=8, count=100)  # Ks > n
    with pytest.raises(ConfigError):
        PQConfig(kmeans_iters=0).validate(dim=8, count=100)
    with pytest.raises(ConfigError):
        PQConfig(num_subspaces=0).validate(dim=8, count=100)
    PQConfig().validate(dim=64, count=10_000)  # defaults are fine


def test_train_rejects_mismatched_dim(rng):
    data = mat(rng.standard_normal((50, 7)))
    with pytest.raises(ConfigError):
        train_codebooks(data, PQConfig(num_subspaces=2, codebook_size=4))


# ----------------------------------------------------------------- encoding


def test_encode_exact_centroid_hit():
    cb = small_codebook()
    codes = encode(mat([[3.0]]), cb)
    assert codes.codes[0, 0] == 3


def test_encode_tie_breaks_to_lower_index():
    cb = Codebook(np.array([[[0.0], [10.0]], [[0.0], [10.0]]], dtype=np.float32))
    # 5.0 sits exactly between centroid 0 and centroid 1 in both subspaces
    codes = encode(mat([[5.0, 5.0]]), cb)
    assert codes.codes.tolist() == [[0, 0]]


def test_encode_equidistant_between_centroids_1_and_4():
    # centroid values {9, 1, 9, 9, 4}: the point 2.5 is 1.5 away from both
    # centroid 1 and centroid 4, farther from the rest -> lower index wins
    vals = np.array([9.0, 1.0, 9.0, 9.0, 4.0], dtype=np.float32)
    cb = Codebook(vals.reshape(1, 5, 1))
    assert encode(mat([[2.5]]), cb).codes[0, 0] == 1


def test_decode_all_zero_codes():
    cb = Codebook(
        np.array(
            [[[1.0, 2.0], [9.0, 9.0]], [[3.0, 4.0], [8.0, 8.0]]], dtype=np.float32
        )
    )
    out = decode(PQCodes(np.zeros((3, 2), dtype=np.uint8)), cb)
    np.testing.assert_array_equal(out.data, [[1, 2, 3, 4]] * 3)


def test_decode_rejects_out_of_range_code():
    cb = small_codebook()
    bad = PQCodes(np.array([[1], [7]], dtype=np.uint8))
    with pytest.raises(CorruptionError, match=r"row 1, subspace 0"):
        decode(bad, cb)


def test_encode_decode_idempotent(rng):
    data = mat(rng.standard_normal((80, 6)))
    cfg = PQConfig(num_subspaces=3, codebook_size=8, kmeans_iters=8, seed=2)
    cb = train_codebooks(data, cfg)
    codes = encode(data, cb)
    again = encode(decode(codes, cb), cb)
    np.testing.assert_array_equal(codes.codes, again.codes)


def test_quantization_error_permutation_invariant(rng):
    data = rng.standard_normal((40, 4)).astype(np.float32)
    cfg = PQConfig(num_subspaces=2, codebook_size=5, kmeans_iters=8, seed=5)
    cb = train_codebooks(mat(data), cfg)
    shuffled = data[rng.permutation(40)]
    assert quantization_error(mat(data), cb) == pytest.approx(
        quantization_error(mat(shuffled), cb), rel=1e-12
    )


def test_quantization_error_zero_iff_representable():
    cb = small_codebook()
    on_grid = mat([[0.0], [4.0], [2.0]])
    off_grid = mat([[0.0], [2.25]])
    assert quantization_error(on_grid, cb) == 0.0
    assert quantization_error(off_grid, cb) > 0.0


def subtraction_encode(data, codebook):
    """encode before the GEMM shortlist: subtract every centroid in
    float64, sum squares with einsum, argmin (ties to the lower index)."""
    m, sd = codebook.num_subspaces, codebook.subspace_dim
    points = data.data.astype(np.float64)
    cents = codebook.centroids.astype(np.float64)
    codes = np.empty((data.count, m), dtype=np.int64)
    for s in range(m):
        diff = points[:, None, s * sd : (s + 1) * sd] - cents[s][None, :, :]
        codes[:, s] = np.argmin(np.einsum("ijk,ijk->ij", diff, diff), axis=1)
    return codes


def test_encode_equals_subtraction_encode(rng, monkeypatch):
    # small blocks: 300 rows against 16 centroids of dim 4 make 30 blocks
    # of 10 rows (9 bytes a pair and 4 bytes an entry of the query row)
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", 4 * 10 * (9 * 16 + 4 * 4))
    data = mat(rng.standard_normal((300, 12)))
    trained = train_codebooks(data, PQConfig(num_subspaces=3, codebook_size=16, kmeans_iters=5, seed=4))
    # a coarse lattice: many exactly equidistant centroids
    grid = mat(rng.integers(-2, 3, size=(300, 12)) * 0.5)
    lattice = Codebook(rng.integers(-2, 3, size=(3, 16, 4)).astype(np.float32))
    # 1e4 plus 1e-3 steps at dim 128: the GEMM rounds, the 1e-3 gaps do not
    far = np.float32(1e4) + rng.integers(-3, 4, size=(316, 128)) * np.float32(2.0**-10)
    far_book = Codebook(far[None, 300:])
    for points, book in ((data, trained), (grid, lattice), (mat(far[:300]), far_book)):
        np.testing.assert_array_equal(encode(points, book).codes, subtraction_encode(points, book))


@pytest.mark.parametrize("n", [2_000, 20_000])
def test_encode_scratch_stays_inside_the_block_budget(rng, n):
    """Guards peak memory: encode scans with the block budget that
    matching has, its queries' squared norms and codes included."""
    data = mat(rng.standard_normal((n, 64)))
    codebook = Codebook(rng.standard_normal((8, 256, 8)).astype(np.float32))
    scratch = traced_peak(lambda: encode(data, codebook))
    assert scratch < embeddings.BLOCK_BYTES, f"scratch {scratch / 2**20:.2f} MiB"


def test_encode_holds_no_float64_subspace(rng):
    """Guards peak memory: encode scales each block of query rows into
    float32 where the scan uses it, so besides the GEMM's quarter of BLOCK_BYTES and
    24 bytes a row of codes and tables it holds less than half a float64
    subspace column (1.22 MiB at 20 000 x 8)."""
    n = 20_000
    data = mat(rng.standard_normal((n, 64)))
    codebook = Codebook(rng.standard_normal((8, 256, 8)).astype(np.float32))
    peak = traced_peak(lambda: encode(data, codebook))
    assert peak < embeddings.BLOCK_BYTES // 4 + 24 * n + n * 8 * 8 // 2, f"peak {peak / 2**20:.2f} MiB"


def unblocked_assign(points, centroids):
    """Lloyd's assignment step before blocking: one full GEMM."""
    cross = points @ centroids.T
    c2 = np.einsum("ij,ij->i", centroids, centroids)
    scores = c2[None, :] - 2.0 * cross
    assign = np.argmin(scores, axis=1)
    x2 = np.einsum("ij,ij->i", points, points)
    obj = float(np.maximum(scores[np.arange(points.shape[0]), assign] + x2, 0.0).sum())
    return assign, obj


def blocked_assign(points, centroids):
    """``_assign`` with the plan, score buffer and row index ``_lloyd``
    makes for the shape."""
    (n, d), k = points.shape, centroids.shape[0]
    plan = pq._assign_plan(n, k, d)
    rows = max(hi - lo for lo, hi, _ in plan)
    x2 = np.einsum("ij,ij->i", points, points)
    return pq._assign(points, centroids, x2, plan, np.empty((rows, k)), np.arange(rows))


def test_blocked_assign_equals_one_gemm(rng, monkeypatch):
    # 64 rows of 40 scores fill a sixteenth of this budget: 5 blocks, the
    # last 101 rows (a step sized from the whole budget gives one block)
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", 16 * 64 * 8 * 40)
    points = rng.standard_normal((357, 8)) * 3
    centroids = rng.standard_normal((40, 8))
    assign, obj = blocked_assign(points, centroids)
    want_assign, want_obj = unblocked_assign(points, centroids)
    np.testing.assert_array_equal(assign, want_assign)
    assert obj == want_obj
    assert [hi - lo for lo, hi in pq._assign_blocks(357, 40)] == [64, 64, 64, 64, 101]


@pytest.mark.parametrize("n, k, step", [
    (10_000, 256, 256),  # build-index's default shape: 0.53 MiB of scores
    (10_000, 16, 4096),
    (10_000, 1000, 64),
    (357, 40, 1600),
    (10_000, 2048, 64),  # the 64-row floor: 1 MiB of scores
    (100_000, 65_536, 64),  # the floor: 32 MiB of scores, never allocated here
])
def test_assign_blocks_fill_a_sixteenth_of_the_budget(n, k, step):
    """Guards peak memory and cache use: the step is the most 64-row
    multiples of 8-byte scores a sixteenth of BLOCK_BYTES holds, at least
    64 rows; blocks start at its multiples and the last takes the rest."""
    budget = embeddings.BLOCK_BYTES // 16
    assert step == 64 or step * 8 * k <= budget < (step + 64) * 8 * k
    blocks = pq._assign_blocks(n, k)
    starts = list(range(0, max(n - step, 0) + 1, step))
    assert blocks == list(zip(starts, starts[1:] + [n]))
    assert all(hi - lo < 2 * step for lo, hi in blocks)


@pytest.mark.parametrize("k, d, rows", [
    (256, 8, 128),  # build-index's default shape: 262 144 multiply-adds
    (256, 16, 64),
    (16, 8, 2048),
    (40, 8, 768),
    (1000, 8, 64),  # the 64-row floor
    (65_536, 8, 64),
])
def test_gemm_pieces_stay_on_one_blas_thread(k, d, rows):
    """Guards BLAS threads: a piece of _assign's GEMM is the most 64-row
    multiples that OpenBLAS runs on one thread (at most 65 536 * 4
    multiply-adds), at least 64 rows."""
    assert pq._gemm_rows(k, d) == rows
    assert rows == 64 or rows * k * d <= 65536 * 4 < (rows + 64) * k * d


def test_gemm_pieces_equal_one_gemm(rng, monkeypatch):
    # 128-row steps of 64-row pieces: 357 rows make blocks of 128 and 229
    # rows, and pieces of 64, 64 and 64, 64, 101 rows
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", 16 * 128 * 8 * 40)
    monkeypatch.setattr(pq, "_GEMM_ONE_THREAD", 64 * 40 * 8)
    points = rng.standard_normal((357, 8)) * 3
    centroids = rng.standard_normal((40, 8))
    pieces, matmul = [], np.matmul

    def recording_matmul(a, b, **kwargs):
        pieces.append(a.shape[0])
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", recording_matmul)
    assign, obj = blocked_assign(points, centroids)
    monkeypatch.setattr(np, "matmul", matmul)
    assert pieces == [64, 64, 64, 64, 101]
    want_assign, want_obj = unblocked_assign(points, centroids)
    np.testing.assert_array_equal(assign, want_assign)
    assert obj == want_obj
    assert pq._assign_blocks(357, 40) == [(0, 128), (128, 357)]
    assert pq._gemm_rows(40, 8) == 64


def test_training_does_not_depend_on_the_block_size(rng, monkeypatch):
    data = mat(rng.standard_normal((700, 8)))
    cfg = PQConfig(num_subspaces=2, codebook_size=32, kmeans_iters=10, seed=3)
    one_block = train_codebooks(data, cfg)
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", 1)
    blocked = train_codebooks(data, cfg)
    assert one_block.centroids.tobytes() == blocked.centroids.tobytes()


def test_training_converts_one_subspace_at_a_time(rng):
    """Guards peak memory: no float64 copy of the corpus."""
    data = mat(rng.standard_normal((20_000, 64)))
    peak = traced_peak(lambda: train_codebooks(data, PQConfig(8, 16, 2, seed=0)))
    assert peak < data.data.size * 8, f"peak {peak / 2**20:.1f} MiB"


def trace_each_process(monkeypatch) -> dict[int, int]:
    """Make ``pq.map_processes`` record, for each process that runs an
    item, the largest traced peak of an item above what the process
    held when the item began; returns the pid -> peak dict it fills.
    tracemalloc counts each process's own allocations."""
    peaks: dict[int, int] = {}
    map_processes = pq.map_processes

    def traced_per_process(fn, items, workers):
        def traced(item):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = fn(item)
            return result, os.getpid(), tracemalloc.get_traced_memory()[1] - base

        out = map_processes(traced, items, workers)
        for _, pid, peak in out:
            peaks[pid] = max(peaks.get(pid, 0), peak)
        return [result for result, _, _ in out]

    monkeypatch.setattr(pq, "map_processes", traced_per_process)
    return peaks


@pytest.mark.parametrize("cpus", [1, 2])
def test_training_scratch_is_a_subspace_and_a_score_block(rng, monkeypatch, cpus):
    """Guards peak memory: at build-index's 8 x 256 on 10 000 x 64, each
    training process holds, one subspace at a time, a float64 subspace,
    temporaries of its size and per-row vectors (3 subspaces in all), and
    one score block of under two sixteenths of BLOCK_BYTES; tracemalloc
    counts each process's own allocations."""
    fake_cpus(monkeypatch, cpus)
    data = mat(rng.standard_normal((10_000, 64)))
    peaks = trace_each_process(monkeypatch)
    bound = 3 * 10_000 * 8 * 8 + embeddings.BLOCK_BYTES // 8
    peak = traced_peak(lambda: train_codebooks(data, PQConfig(8, 256, 2, seed=0)))
    assert len(peaks) == cpus
    assert max(peaks.values()) < bound, f"peaks {[p / 2**20 for p in peaks.values()]} MiB"
    assert peak < bound, f"peak {peak / 2**20:.2f} MiB"


def test_build_index_stages_hold_less_than_the_corpus(tmp_path, rng, monkeypatch):
    """Guards peak memory: training, encode and quantization_error read
    an EMBX corpus through its fill, a block of rows at a time, so no
    process of theirs holds the corpus, here 60 000 x 64, 14.6 MiB of
    float32."""
    fake_cpus(monkeypatch, 2)
    n, d = 60_000, 64
    path = write_embx(tmp_path / "x.embx", rng.standard_normal((n, d)))
    peaks = trace_each_process(monkeypatch)
    out = {}
    with embeddings.open_rows(path) as data:
        stages = {
            "train": traced_peak(lambda: out.update(codebook=train_codebooks(data, PQConfig(8, 16, 2, seed=0)))),
            "encode": traced_peak(lambda: out.update(codes=encode(data, out["codebook"]))),
            "error": traced_peak(lambda: quantization_error(data, out["codebook"], out["codes"])),
        }
    corpus = n * d * 4
    assert len(peaks) == 2
    assert max(peaks.values()) < corpus, f"peaks {[p / 2**20 for p in peaks.values()]} MiB"
    assert max(stages.values()) < corpus, {stage: f"{p / 2**20:.2f} MiB" for stage, p in stages.items()}


def train_one_by_one(data, cfg):
    """Training as it ran before workers: each subspace's Lloyd in turn."""
    sd = data.dim // cfg.num_subspaces
    return np.stack([
        pq._lloyd(data.data[:, s * sd : (s + 1) * sd].astype(np.float64), cfg.codebook_size,
                  cfg.kmeans_iters, pq._subspace_rng(cfg.seed, s))[0]
        for s in range(cfg.num_subspaces)
    ]).astype(np.float32)


@pytest.mark.parametrize("shape, cfg", [
    ((300, 6), PQConfig(num_subspaces=1, codebook_size=16, kmeans_iters=8, seed=5)),
    ((400, 32), PQConfig(num_subspaces=8, codebook_size=16, kmeans_iters=8, seed=6)),
])
def test_training_does_not_depend_on_the_worker_count(rng, monkeypatch, shape, cfg):
    """Each codebook is its own subspace's Lloyd, whichever worker ran it
    and however many ran."""
    data = mat(rng.standard_normal(shape))
    tables = []
    for cpus in (1, 8):
        fake_cpus(monkeypatch, cpus)
        tables.append(train_codebooks(data, cfg).centroids.tobytes())
    assert tables[0] == tables[1] == train_one_by_one(data, cfg).tobytes()


def test_an_affinity_of_one_cpu_forks_no_training_worker(rng, monkeypatch):
    """A process that may run on one CPU trains every subspace on the
    caller, even where it could fork and the machine has more CPUs."""
    fake_os_threads(monkeypatch, 1)
    fake_cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "fork", forbidden_fork)
    data = mat(rng.standard_normal((300, 16)))
    cfg = PQConfig(num_subspaces=4, codebook_size=8, kmeans_iters=4, seed=2)
    assert train_codebooks(data, cfg).centroids.tobytes() == train_one_by_one(data, cfg).tobytes()


def failing_lloyd(data, sub_dim, subspace, exc):
    """``_lloyd`` that raises ``exc`` on the columns of ``subspace``."""
    lloyd = pq._lloyd

    def run(points, *args):
        if np.array_equal(points, data.data[:, subspace * sub_dim : (subspace + 1) * sub_dim]):
            raise exc
        return lloyd(points, *args)

    return run


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_a_failing_subspace_fails_training(rng, monkeypatch, cpus):
    fake_cpus(monkeypatch, cpus)
    data = mat(rng.standard_normal((300, 16)))
    threads = threading.active_count()
    monkeypatch.setattr(pq, "_lloyd", failing_lloyd(data, 2, 3, InternalError("objective rose")))
    with pytest.raises(InternalError, match="objective rose"):
        train_codebooks(data, PQConfig(8, 8, 3, seed=0))
    assert threading.active_count() == threads


@pytest.mark.parametrize("exc, code, line", [
    (InternalError("k-means objective increased: 2 -> 3"),
     3, "genval: internal error: k-means objective increased: 2 -> 3"),
    (MemoryError("subspace 3"), 2, "genval: error: out of memory: subspace 3"),
])
def test_build_index_reports_a_failing_subspace(rng, tmp_path, monkeypatch, exc, code, line):
    fake_cpus(monkeypatch, 2)
    data = rng.standard_normal((300, 16)).astype(np.float32)
    train = write_embx(tmp_path / "train.embx", data)
    threads = threading.active_count()
    monkeypatch.setattr(pq, "_lloyd", failing_lloyd(mat(data), 2, 3, exc))
    r = run_cli("build-index", "--train", train, "--output", tmp_path / "index.gmvi",
                "--num-subspaces", 8, "--codebook-size", 8, "--kmeans-iters", 3)
    assert (r.code, r.stderr.splitlines(), r.stdout) == (code, [line], "")
    assert threading.active_count() == threads
    assert not list(tmp_path.glob("*.gmvi")) and not list(tmp_path.glob(".*"))


def test_build_index_reports_a_killed_worker_process(rng, tmp_path, monkeypatch):
    fake_cpus(monkeypatch, 2)
    data = rng.standard_normal((300, 16)).astype(np.float32)
    train = write_embx(tmp_path / "train.embx", data)
    caller, lloyd = os.getpid(), pq._lloyd

    def killed_off_the_caller(points, *args):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return lloyd(points, *args)

    monkeypatch.setattr(pq, "_lloyd", killed_off_the_caller)
    r = run_cli("build-index", "--train", train, "--output", tmp_path / "index.gmvi",
                "--num-subspaces", 8, "--codebook-size", 8, "--kmeans-iters", 3)
    assert (r.code, r.stderr.splitlines(), r.stdout) == (3, [
        "genval: internal error: the worker process running items 1, 3, 5, 7 "
        "ended without a result (killed by SIGKILL)"], "")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not list(tmp_path.glob("*.gmvi")) and not list(tmp_path.glob(".*"))


# The CLI with the CPUs it may run on, so the worker count, set by
# argv[1]. It leaves a line in stdout's buffer, which a forked child
# that flushed the buffers it inherited would print again, and exits 9
# if the command leaves a child process behind.
BUILD_INDEX_CHILD = """
import os, sys
workers = int(sys.argv[1])
os.sched_getaffinity = lambda pid: set(range(workers))
from genval.cli import main
sys.stdout.write("start\\n")
code = main(sys.argv[2:])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(code)
sys.exit(9)
"""


@pytest.mark.parametrize("blas_threads", [None, 1])
def test_build_index_in_a_child_process_is_the_same_on_one_and_two_workers(rng, tmp_path, blas_threads):
    """The real CLI, with BLAS at its default thread count or pinned to 1:
    one worker and two write the same index and print each line once."""
    train = write_embx(tmp_path / "train.embx", rng.standard_normal((2000, 32)))
    # child_env leaves stdout block-buffered
    env = {name: value for name, value in child_env().items() if name not in BLAS_ENV}
    if blas_threads is not None:
        env.update(dict.fromkeys(BLAS_ENV, str(blas_threads)))
    runs = []
    for workers in (1, 2):
        index = tmp_path / f"index{workers}.gmvi"
        done = subprocess.run(
            [sys.executable, "-c", BUILD_INDEX_CHILD, str(workers), "build-index", "--train", str(train),
             "--output", str(index), "--num-subspaces", "4", "--codebook-size", "64", "--kmeans-iters", "5"],
            capture_output=True, text=True, env=env, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        assert re.fullmatch(r"start\nquantization_error=\S+\n", done.stdout), done.stdout
        runs.append((done.stdout, index.read_bytes()))
    assert runs[0] == runs[1]


def random_index(rng, n, d, m, ks):
    codebook = Codebook(rng.standard_normal((m, ks, d // m)).astype(np.float32))
    return codebook, PQCodes(rng.integers(0, ks, size=(n, m)).astype(np.uint8))


@pytest.mark.parametrize("n", [20_000, 100_000])
def test_quantization_error_scratch_stays_inside_a_block_budget(rng, n):
    """Guards peak memory: the error holds its n float64 distances and
    blocks of under two sixteenths of BLOCK_BYTES, whatever the corpus."""
    data = mat(rng.standard_normal((n, 64)))
    codebook, codes = random_index(rng, n, 64, 8, 256)
    peak = traced_peak(lambda: quantization_error(data, codebook, codes))
    assert peak < 8 * n + embeddings.BLOCK_BYTES // 8, f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("n, d, budget", [
    (1001, 16, 16 * 24 * 16 * 10),  # steps of 10 rows: one row past the last
    (5, 9000, 1),  # steps of 2 rows at d > 8192
    (3, 9000, 1),
    (2, 9000, 1),
    (1, 9000, 1),
])
def test_blocked_quantization_error_equals_one_subtraction(rng, monkeypatch, n, d, budget):
    """Every block holds 2 rows or more: einsum sums a lone row of more than
    8192 entries otherwise than a row of a taller matrix."""
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", budget)
    data = mat(rng.standard_normal((n, d)))
    codebook, codes = random_index(rng, n, d, 4 if d == 16 else 9, 8)
    want = float(exact_sq_dists(data.data, decode(codes, codebook).data).mean())
    assert quantization_error(data, codebook, codes) == want


def test_quantization_error_rejects_codes_of_other_data(rng):
    data = mat(rng.standard_normal((10, 8)))
    codebook, codes = random_index(rng, 9, 8, 2, 4)
    with pytest.raises(ValidationError, match="shape mismatch"):
        quantization_error(data, codebook, codes)
    with pytest.raises(ValidationError, match="shape mismatch"):
        quantization_error(mat(rng.standard_normal((9, 12))), codebook, codes)


def test_quantization_error_reuses_given_codes(rng):
    data = mat(rng.standard_normal((90, 6)))
    cb = train_codebooks(data, PQConfig(num_subspaces=3, codebook_size=8, kmeans_iters=6, seed=1))
    assert quantization_error(data, cb, encode(data, cb)) == quantization_error(data, cb)


# ------------------------------------------------------------- serialization


def test_index_roundtrip(tmp_path, rng):
    data = mat(rng.standard_normal((60, 8)))
    cfg = PQConfig(num_subspaces=4, codebook_size=16, kmeans_iters=6, seed=11)
    cb = train_codebooks(data, cfg)
    codes = encode(data, cb)
    path = tmp_path / "idx.gmvi"
    save_index(cb, codes, path)
    cb2, codes2 = load_index(path)
    assert cb.centroids.tobytes() == cb2.centroids.tobytes()
    np.testing.assert_array_equal(codes.codes, codes2.codes)


def test_index_wide_codes_roundtrip(tmp_path, rng):
    """codebook_size above 256 forces 16-bit code storage."""
    data = mat(rng.standard_normal((400, 2)))
    cfg = PQConfig(num_subspaces=1, codebook_size=300, kmeans_iters=4, seed=0)
    cb = train_codebooks(data, cfg)
    codes = encode(data, cb)
    assert codes.codes.dtype == np.uint16
    path = tmp_path / "wide.gmvi"
    save_index(cb, codes, path)
    cb2, codes2 = load_index(path)
    assert codes2.codes.dtype == np.uint16
    np.testing.assert_array_equal(codes.codes, codes2.codes)


def test_index_header_prefix(tmp_path):
    data = mat(np.eye(4, dtype=np.float32))
    cfg = PQConfig(num_subspaces=2, codebook_size=2, kmeans_iters=2, seed=0)
    cb = train_codebooks(data, cfg)
    path = tmp_path / "i.gmvi"
    save_index(cb, encode(data, cb), path)
    assert path.read_bytes()[:4] == b"GMVI"


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda b: b"JMVI" + b[4:], r"byte 0"),
        (lambda b: b[:4] + (2).to_bytes(4, "little") + b[8:], r"version"),
        (lambda b: b[:-1], r"wrong size"),
        (lambda b: b + b"\x01", r"wrong size"),
    ],
)
def test_index_rejects_malformed_files(tmp_path, mutate, message):
    data = mat(np.eye(4, dtype=np.float32))
    cfg = PQConfig(num_subspaces=2, codebook_size=2, kmeans_iters=2, seed=0)
    cb = train_codebooks(data, cfg)
    path = tmp_path / "i.gmvi"
    save_index(cb, encode(data, cb), path)
    path.write_bytes(mutate(path.read_bytes()))
    with pytest.raises(FormatError, match=message):
        load_index(path)


def test_index_rejects_out_of_range_stored_code(tmp_path):
    data = mat(np.eye(4, dtype=np.float32))
    cfg = PQConfig(num_subspaces=2, codebook_size=2, kmeans_iters=2, seed=0)
    cb = train_codebooks(data, cfg)
    path = tmp_path / "i.gmvi"
    save_index(cb, encode(data, cb), path)
    blob = bytearray(path.read_bytes())
    blob[-1] = 250  # codebook_size is 2, so any code >= 2 is garbage
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptionError, match=rf"^{re.escape(str(path))}: code 250 at row 3, subspace 1 "):
        load_index(path)
