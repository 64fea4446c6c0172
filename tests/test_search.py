import contextlib
import io
import math
import os
import sys
from fractions import Fraction

import numpy as np
import pytest

import reference
from conftest import counted_forks, fake_cpus, fake_os_threads, forbidden_fork, on_cpus, traced_peak, write_embx
from genval import embeddings, search, synth
from genval import (
    Codebook,
    EmbeddingMatrix,
    MatchTables,
    PQConfig,
    PQCodes,
    batch_match,
    decode,
    encode,
    quantization_error,
    read_match_jsonl,
    recall_at_k,
    train_codebooks,
    write_match_jsonl,
)
from genval.errors import ConfigError, CorruptionError, FormatError, ValidationError
from genval.workers import map_processes


def mat(rows):
    return EmbeddingMatrix(np.asarray(rows, dtype=np.float32))


def tables(dist_rows, idx_rows):
    return MatchTables(np.asarray(dist_rows, float), np.asarray(idx_rows))


# --------------------------------------------------------------- exact scan


def query(row):
    """One query as a one-row matrix: batch_match is the only matcher."""
    return mat([row])


def test_self_match_is_first(rng):
    train = mat(rng.standard_normal((12, 3)))
    t = batch_match(train, query(train.data[7]), k=3)
    assert (t.indices[0, 0], t.distances[0, 0]) == (7, 0.0)


def test_three_four_five_triangle():
    train = mat([[0, 0], [3, 4], [6, 8]])
    t = batch_match(train, query([0.0, 0.0]), k=2)
    assert t.indices.tolist() == [[0, 1]]
    assert t.distances.tolist() == [[0.0, 5.0]]


def test_duplicate_training_rows_keep_index_order():
    train = mat([[5, 5], [1, 1], [1, 1], [9, 9]])
    t = batch_match(train, query([1.0, 1.0]), k=2)
    assert t.indices[0].tolist() == [1, 2]
    assert t.distances[0].tolist() == [0.0, 0.0]


def test_distances_match_naive_full_scan(rng):
    train_rows = rng.standard_normal((30, 5))
    q = rng.standard_normal(5)
    t = batch_match(mat(train_rows), query(q), k=6)
    # float32 storage quantizes the inputs; compare against the oracle on
    # the same float32 values
    rows32 = train_rows.astype(np.float32).tolist()
    expect = reference.full_scan_topk(rows32, q.astype(np.float32).tolist(), 6)
    assert t.indices[0].tolist() == [i for i, _ in expect]
    for d_got, (_, d_want) in zip(t.distances[0], expect):
        assert d_got == pytest.approx(d_want, rel=1e-9)


def test_k_of_at_least_n_returns_everything(rng):
    train = mat(rng.standard_normal((4, 2)))
    t = batch_match(train, query(np.zeros(2)), k=99)
    assert sorted(t.indices[0].tolist()) == [0, 1, 2, 3]
    assert np.all(np.diff(t.distances[0]) >= 0)


def test_query_dim_mismatch():
    with pytest.raises(ValidationError):
        batch_match(mat([[1.0, 2.0]]), query(np.zeros(3)), k=1)
    with pytest.raises(ConfigError):
        batch_match(mat([[1.0, 2.0]]), query(np.zeros(2)), k=0)


# ---------------------------------------------------------------------- adc


def test_adc_hand_example():
    """Two 1-D subspaces with centroids {0, 10} each; query (1, 9)."""
    cb = Codebook(np.array([[[0.0], [10.0]], [[0.0], [10.0]]], dtype=np.float32))
    # vector coded (0, 1) reconstructs to (0, 10): estimated sq dist 1 + 1
    codes = PQCodes(np.array([[0, 1]], dtype=np.uint8))
    t = batch_match((cb, codes), query([1.0, 9.0]), k=1)
    assert t.distances[0, 0] == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_adc_rejects_codes_from_another_codebook():
    cb = Codebook(np.array([[[0.0], [10.0]], [[0.0], [10.0]]], dtype=np.float32))
    codes = PQCodes(np.array([[0]], dtype=np.uint8))
    with pytest.raises(ValidationError, match="subspace count"):
        batch_match((cb, codes), query([1.0, 9.0]), k=1)


def test_adc_rejects_codes_that_address_no_centroid():
    cb = Codebook(np.array([[[0.0], [10.0]], [[0.0], [10.0]]], dtype=np.float32))
    codes = PQCodes(np.array([[0, 1], [2, 0]], dtype=np.uint8))
    with pytest.raises(CorruptionError, match="row 1, subspace 0"):
        batch_match((cb, codes), query([1.0, 9.0]), k=1)


@pytest.mark.parametrize("route", ["exact", "adc"])
def test_both_routes_reject_empty_sets(route):
    cb = Codebook(np.array([[[0.0], [10.0]], [[0.0], [10.0]]], dtype=np.float32))

    def train(n):
        codes = PQCodes(np.zeros((n, 2), dtype=np.uint8))
        return decode(codes, cb) if route == "exact" else (cb, codes)

    with pytest.raises(ValidationError, match="generated set is empty"):
        batch_match(train(3), mat(np.zeros((0, 2))), k=1)
    with pytest.raises(ValidationError, match="training set is empty"):
        batch_match(train(0), query([1.0, 9.0]), k=1)


def test_adc_equals_exact_on_zero_error_codebook(rng):
    pts = rng.standard_normal((9, 4))
    train = mat(pts)
    cb = train_codebooks(train, PQConfig(2, 9, 4, seed=0))
    codes = encode(train, cb)
    assert quantization_error(train, cb) == 0.0
    q = query(rng.standard_normal(4))
    ex = batch_match(train, q, k=4)
    ad = batch_match((cb, codes), q, k=4)
    # a lossless codebook decodes to the training rows themselves
    assert ex.indices.tobytes() == ad.indices.tobytes()
    assert ex.distances.tobytes() == ad.distances.tobytes()


def test_adc_single_subspace_full_codebook(rng):
    pts = rng.standard_normal((7, 3))
    train = mat(pts)
    cb = train_codebooks(train, PQConfig(1, 7, 3, seed=1))
    codes = encode(train, cb)
    for q in rng.standard_normal((5, 3)):
        assert (
            batch_match((cb, codes), query(q), k=3).indices.tolist()
            == batch_match(train, query(q), k=3).indices.tolist()
        )


# -------------------------------------------------------------- batch match


def test_batch_single_row_matches_single_scan(rng):
    train_rows = rng.standard_normal((20, 4)).astype(np.float32)
    gen = mat(rng.standard_normal((6, 4)))
    full = batch_match(mat(train_rows), gen, k=5)
    for j in range(gen.count):
        single = batch_match(mat(train_rows), query(gen.data[j]), k=5)
        assert single.m == 1
        # a one-row query gives bit for bit the row a full batch gives
        assert single.indices[0].tobytes() == full.indices[j].tobytes()
        assert single.distances[0].tobytes() == full.distances[j].tobytes()
        expect = reference.full_scan_topk(train_rows.tolist(), gen.data[j].tolist(), 5)
        assert single.indices[0].tolist() == [i for i, _ in expect]
        np.testing.assert_allclose(single.distances[0], [d for _, d in expect], rtol=1e-9)


def test_identity_matching():
    train = mat(np.diag([1.0, 2.0, 3.0]))
    t = batch_match(train, train, k=1)
    assert t.indices[:, 0].tolist() == [0, 1, 2]
    assert t.distances.tolist() == [[0.0]] * 3


def test_small_instance_against_oracle(rng):
    train_rows = rng.standard_normal((5, 3)).astype(np.float32)
    gen_rows = rng.standard_normal((3, 3)).astype(np.float32)
    t = batch_match(mat(train_rows), mat(gen_rows), k=2)
    for j in range(3):
        expect = reference.full_scan_topk(train_rows.tolist(), gen_rows[j], 2)
        assert t.indices[j].tolist() == [i for i, _ in expect]
        np.testing.assert_allclose(
            t.distances[j], [d for _, d in expect], rtol=1e-9, atol=1e-12
        )


def test_rows_are_sorted_and_recomputable(rng):
    train = mat(rng.standard_normal((50, 6)))
    gen = mat(rng.standard_normal((10, 6)))
    t = batch_match(train, gen, k=8)
    for j in range(t.m):
        d = t.distances[j]
        assert np.all(np.diff(d) >= 0)
        for col, i in enumerate(t.indices[j]):
            direct = math.sqrt(
                reference.sq_dist(train.data[i].tolist(), gen.data[j].tolist())
            )
            assert d[col] == pytest.approx(direct, rel=1e-5, abs=1e-7)


def test_permutation_equivariance(rng):
    train_rows = rng.standard_normal((25, 4)).astype(np.float32)
    gen = mat(rng.standard_normal((6, 4)))
    perm = rng.permutation(25)
    base = batch_match(mat(train_rows), gen, k=4)
    shuf = batch_match(mat(train_rows[perm]), gen, k=4)
    # row i of the shuffled set is row perm[i] of the original
    inverse = np.empty(25, dtype=np.int64)
    inverse[perm] = np.arange(25)
    np.testing.assert_array_equal(inverse[base.indices], shuf.indices)
    np.testing.assert_allclose(base.distances, shuf.distances, rtol=1e-6)


def test_k_larger_than_n_covers_every_index(rng):
    train = mat(rng.standard_normal((5, 3)))
    gen = mat(rng.standard_normal((4, 3)))
    t = batch_match(train, gen, k=40)
    assert t.k == 5
    for j in range(4):
        assert sorted(t.indices[j].tolist()) == [0, 1, 2, 3, 4]


def test_the_cpu_count_does_not_change_output(rng, monkeypatch):
    """One CPU and eight, seven of them forked workers, give the same tables."""
    train = mat(rng.standard_normal((101, 8)))
    gen = mat(rng.standard_normal((37, 8)))
    (one, _), (eight, forks) = on_cpus(monkeypatch, lambda: batch_match(train, gen, k=7), 1, 8)
    assert forks == 7
    assert one.distances.tobytes() == eight.distances.tobytes()
    assert one.indices.tobytes() == eight.indices.tobytes()


def test_batch_match_validates_pair():
    with pytest.raises(ValidationError):
        batch_match(mat([[1.0, 2.0]]), mat([[1.0, 2.0, 3.0]]), k=1)


@pytest.mark.parametrize(
    "cpus, m, workers",
    [
        (2, 37, 2),  # capped at the CPU count
        (64, 3, 3),  # capped at the row count
        (4, 37, 4),  # one a CPU
        (64, 1, 1),  # one row: one worker
    ],
)
def test_workers_are_capped_at_rows_and_cpus(rng, monkeypatch, cpus, m, workers):
    counts = []

    def recording_map(fn, items, n):
        counts.append(n)
        return map_processes(fn, items, n)

    monkeypatch.setattr(search, "map_processes", recording_map)
    train = mat(rng.standard_normal((20, 4)))
    gen = mat(rng.standard_normal((m, 4)))
    (one, _), (t, forks) = on_cpus(monkeypatch, lambda: batch_match(train, gen, k=3), 1, cpus)
    assert counts == [1, workers] and forks == workers - 1
    assert t.indices.tobytes() == one.indices.tobytes()
    assert t.distances.tobytes() == one.distances.tobytes()


def test_an_affinity_of_one_cpu_forks_no_scan_worker(rng, monkeypatch):
    """A process that may run on one CPU scans on the caller, even where
    it could fork and the machine has more CPUs."""
    fake_os_threads(monkeypatch, 1)
    fake_cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "fork", forbidden_fork)
    train = mat(rng.standard_normal((20, 4)))
    batch_match(train, mat(rng.standard_normal((9, 4))), k=3)


def test_unknown_cpus_scan_on_the_caller(rng, monkeypatch):
    """Where neither the CPUs this process may run on nor the machine's
    are known, the scan takes one worker and forks nothing."""
    fake_os_threads(monkeypatch, 1)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    monkeypatch.setattr(os, "fork", forbidden_fork)
    train = mat(rng.standard_normal((20, 4)))
    batch_match(train, mat(rng.standard_normal((9, 4))), k=3)


@contextlib.contextmanager
def route_case(route, rng, tmp_path, n, m):
    """Yield (training, queries) of ``route``: "exact" rows in memory, the
    same rows left in an "embx" file, or an "adc" PQ index; n training
    rows tie closely, and so make the scan's tie-breaks count."""
    if route == "adc":
        codebook, codes, gen = adc_case("lattice", rng, n, m)
        yield (codebook, codes), gen
        return
    train, gen = shortlist_case("near_ties", rng, n, m)
    with (embeddings.open_rows(write_embx(tmp_path / "train.embx", train.data)) if route == "embx"
          else contextlib.nullcontext(train)) as train:
        yield train, gen


@pytest.mark.parametrize("route", ["exact", "embx", "adc"])
def test_a_lone_os_thread_lets_the_scan_fork_once(rng, tmp_path, monkeypatch, route):
    """With no OS thread but the caller's, two CPUs fork one worker, and
    get one CPU's tables bit for bit."""
    with route_case(route, rng, tmp_path, 30, 23) as (train, gen):
        (one, _), (two, forks) = on_cpus(monkeypatch, lambda: batch_match(train, gen, k=6), 1, 2)
    assert forks == 1
    assert one.indices.tobytes() == two.indices.tobytes()
    assert one.distances.tobytes() == two.distances.tobytes()


def test_another_os_thread_keeps_the_scan_on_the_caller(rng, monkeypatch, eight_cpus):
    """A BLAS pool in each forked worker would oversubscribe the cores,
    so beside another OS thread the scan forks nothing."""
    train, gen = shortlist_case("gaussian", rng, 30, 23)
    one = batch_match(train, gen, k=6)
    fake_os_threads(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", forbidden_fork)
    two = batch_match(train, gen, k=6)
    assert one.indices.tobytes() == two.indices.tobytes()
    assert one.distances.tobytes() == two.distances.tobytes()


def test_off_linux_the_scan_reads_no_proc(rng, monkeypatch, eight_cpus):
    def no_proc(path):
        raise AssertionError(f"{path} was read")

    train, gen = shortlist_case("gaussian", rng, 30, 23)
    one = batch_match(train, gen, k=6)
    monkeypatch.setattr(sys, "platform", "darwin")
    monkeypatch.setattr(os, "listdir", no_proc)
    monkeypatch.setattr(os, "fork", forbidden_fork)
    two = batch_match(train, gen, k=6)
    assert one.indices.tobytes() == two.indices.tobytes()
    assert one.distances.tobytes() == two.distances.tobytes()


# ------------------------------------------------------------ gemm shortlist


def subtraction_scan(train, gen, k):
    """The exact route before the GEMM shortlist: per query row, subtract
    every training row, sum squares with einsum, stable-sort by distance."""
    t = train.data.astype(np.float64)
    idx, dist = [], []
    for q in gen.data.astype(np.float64):
        diff = t - q[None, :]
        d2 = np.einsum("ij,ij->i", diff, diff)
        order = np.argsort(d2, kind="stable")[:k]
        idx.append(order)
        dist.append(np.sqrt(d2[order]))
    return np.array(idx), np.array(dist)


def shortlist_case(name, rng, n, m, d=6):
    """Training and query rows whose squared distances are exact in any
    summation order (except "gaussian", "huge" and "tiny"), so the loop
    oracle's ties are the true ties."""
    if name == "gaussian":
        pts = rng.standard_normal((n + m, d))
    elif name == "lattice":  # small integers: exact ties everywhere
        pts = rng.integers(-2, 3, size=(n + m, d)).astype(float)
    elif name == "duplicates":  # 4 distinct rows, repeated
        pts = rng.integers(-3, 4, size=(4, d))[rng.integers(0, 4, size=n + m)].astype(float)
    elif name == "near_ties":  # one row plus a few 2^-12 steps
        base = np.round(rng.standard_normal(d) * 8)
        pts = base + rng.integers(-2, 3, size=(n + m, d)) * 2.0**-12
    elif name == "huge":  # squared distances near 1e61, past float32's range
        pts = rng.standard_normal((n + m, d)) * 1e30
    elif name == "tiny":  # float32 products land on the first subnormal steps, or on 0
        pts = rng.standard_normal((n + m, d)) * 1e-23
    elif name == "float32_max":
        pts = near_float32_max(rng, (n + m, d))
    else:  # "large_offset": 1e4 plus 1e-3 noise, one float32 ulp there
        pts = np.float32(1e4) + rng.integers(-3, 4, size=(n + m, d)) * np.float32(2.0**-10)
    pts = pts.astype(np.float32)
    return mat(pts[:n]), mat(pts[n:])


def near_float32_max(rng, shape):
    """Entries ±(14336 + j)·2^114 for |j| <= 3, about ±2.98e38: float32
    values whose squared differences and their sums are exact in float64."""
    steps = 14336 + rng.integers(-3, 4, size=shape)
    return rng.choice([-1.0, 1.0], size=shape) * steps * 2.0**114


CASES = ["gaussian", "lattice", "duplicates", "near_ties", "large_offset", "huge", "tiny", "float32_max"]


@pytest.fixture
def four_row_blocks(monkeypatch):
    """Shrink the block budget so a 30-row corpus of dim 6 is one tile of
    training rows (an eighth of the budget, float32), scanned 4 query
    rows per block (the GEMM gets a quarter of the budget: 9 bytes a pair
    and 4 bytes an entry of the query row)."""
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", 8 * 30 * 4 * 6)
    assert embeddings.block_rows(4 * 6, embeddings.BLOCK_BYTES // 8) == 30
    assert embeddings.block_rows(9 * 30 + 4 * 6, embeddings.BLOCK_BYTES // 4) == 4


@pytest.mark.parametrize("m", [3, 4, 5, 9])  # below, at and above one block, and three blocks
@pytest.mark.parametrize("case", CASES)
def test_shortlist_equals_full_scan(case, m, four_row_blocks):
    rng = np.random.default_rng(CASES.index(case) * 100 + m)
    # at d=128 the GEMM rounds at norm 1e4 while the 1e-3 gaps stay exact
    train, gen = shortlist_case(case, rng, 30, m, d=128 if case == "large_offset" else 6)
    for k in (1, 3, 30, 45):
        t = batch_match(train, gen, k=k)
        idx, dist = subtraction_scan(train, gen, k)
        assert t.indices.tobytes() == idx.tobytes()
        assert t.distances.tobytes() == dist.tobytes()
        for j in range(m):
            expect = reference.full_scan_topk(train.data.tolist(), gen.data[j].tolist(), k)
            assert t.indices[j].tolist() == [i for i, _ in expect]
            np.testing.assert_allclose(t.distances[j], [x for _, x in expect], rtol=1e-12)


def test_shortlist_survives_a_rounding_bound_as_wide_as_the_corpus(rng, monkeypatch):
    """At norm 1e4 the bound dwarfs the 1e-3 gaps, so most rows stay
    candidates; the result is still the full scan's."""
    rechecked = []
    pair_sq_dists = embeddings._pair_sq_dists

    def counting(train, queries, rows, cols, budget, corpus_rows):
        rechecked.append(rows.size)
        return pair_sq_dists(train, queries, rows, cols, budget, corpus_rows)

    monkeypatch.setattr(embeddings, "_pair_sq_dists", counting)
    fake_cpus(monkeypatch, 1)  # the count sees only this process's calls
    train, gen = shortlist_case("large_offset", rng, 200, 30, d=128)
    t = batch_match(train, gen, k=5)
    idx, dist = subtraction_scan(train, gen, 5)
    assert t.indices.tobytes() == idx.tobytes()
    assert t.distances.tobytes() == dist.tobytes()
    assert sum(rechecked) > 30 * 200 // 2


def test_shortlist_rechecks_few_pairs_on_a_synthetic_corpus(monkeypatch):
    """Guards the bounds' width: synth's 20 000 x 128 mixture (seed 1), 500
    generated rows, k = 10, scanned in 10 tiles of 2 000 rows, each
    against 5 blocks of at most 110 query rows. The first tile rechecks
    at least k rows per query, 5 000 pairs; a later tile rechecks the
    rows its running bound keeps, about k/j per query on the j-th of
    tiles in random order, since that many beat the running k-th. The
    scan rechecked 19 530 pairs. The ceiling stays at 31 004, twice the
    15 502 that three blocks of 6 667 rows rechecked, so a bound
    loosened by mistake, or one that rechecks whole tiles, fails."""
    rechecked = []
    pair_sq_dists = embeddings._pair_sq_dists

    def counting(train, queries, rows, cols, budget, corpus_rows):
        rechecked.append(rows.size)
        return pair_sq_dists(train, queries, rows, cols, budget, corpus_rows)

    monkeypatch.setattr(embeddings, "_pair_sq_dists", counting)
    fake_cpus(monkeypatch, 1)  # the count sees only this process's calls
    spec = synth.ExperimentSpec(dim=128, n_per_split=10_000, m_generated=500, seed=1)
    train = np.concatenate([synth.sample_mixture(spec, 10_000, stream=s).data for s in (0, 1)])
    gen = synth.simulate_generated(mat(train[:10_000]), spec)
    batch_match(mat(train), gen, k=10)
    assert len(rechecked) <= 10 * 5 and 5_000 <= sum(rechecked) <= 31_004, sum(rechecked)


@pytest.mark.parametrize("n, m, k", [(1, 3, 1), (5, 1, 1), (5, 4, 2)])
def test_rows_longer_than_the_einsum_buffer(rng, n, m, k):
    # einsum sums a lone row of more than 8192 entries in pieces and a
    # row of a taller matrix in one go; the recheck keeps the full scan's
    train = mat(rng.standard_normal((n, 9000)))
    gen = mat(rng.standard_normal((m, 9000)))
    t = batch_match(train, gen, k=k)
    idx, dist = subtraction_scan(train, gen, k)
    assert t.indices.tobytes() == idx.tobytes()
    assert t.distances.tobytes() == dist.tobytes()


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("route", ["exact", "adc"])
def test_a_last_block_of_one_long_row_keeps_the_corpus_arithmetic(rng, monkeypatch, route, m):
    """A block of one training row still sums its rows of 9 000 entries
    as a row of the whole corpus does, not as einsum sums a lone row."""
    if route == "exact":
        train = corpus = mat(rng.standard_normal((3, 9000)))
    else:
        codebook = Codebook(rng.standard_normal((1, 4, 9000)).astype(np.float32))
        codes = PQCodes(np.array([[0], [1], [2]], dtype=np.uint8))
        train, corpus = (codebook, codes), decode(codes, codebook)
    gen = mat(rng.standard_normal((m, 9000)))
    one_block = batch_match(train, gen, k=3)
    blocks = training_blocks_of(2, 9000, monkeypatch)
    t = batch_match(train, gen, k=3)
    assert blocks == [2, 1]
    idx, dist = subtraction_scan(corpus, gen, 3)
    for want_idx, want_dist in [(one_block.indices, one_block.distances), (idx, dist)]:
        assert t.indices.tobytes() == want_idx.tobytes()
        assert t.distances.tobytes() == want_dist.tobytes()


@pytest.mark.parametrize("route", ["exact", "embx", "adc"])
def test_workers_split_across_blocks(rng, tmp_path, monkeypatch, route):
    with route_case(route, rng, tmp_path, 30, 23) as (train, gen):
        training_blocks_of(4, gen.dim, monkeypatch)
        (one, _), (three, forks) = on_cpus(monkeypatch, lambda: batch_match(train, gen, k=6), 1, 3)
    assert forks == 2
    assert one.indices.tobytes() == three.indices.tobytes()
    assert one.distances.tobytes() == three.distances.tobytes()


def test_forked_workers_share_one_embx_file(rng, tmp_path, monkeypatch, eight_cpus):
    """Eight workers, more than the CPUs, read one open EMBX file, each
    its own 4-row tiles, seven of them in forked processes that share the
    file's offset: a read that lost its position to another worker's
    would give one worker another tile's rows, and change its tables."""
    train, gen = shortlist_case("gaussian", rng, 60, 64)
    want = batch_match(train, gen, k=5)
    training_blocks_of(4, gen.dim, monkeypatch)
    fake_os_threads(monkeypatch, 1)
    forks = counted_forks(monkeypatch)
    with embeddings.open_rows(write_embx(tmp_path / "train.embx", train.data)) as rows:
        for _ in range(3):
            got = batch_match(rows, gen, k=5)
            assert got.indices.tobytes() == want.indices.tobytes()
            assert got.distances.tobytes() == want.distances.tobytes()
    assert len(forks) == 3 * 7


# ---------------------------------------------------- training-row blocks


def adc_case(name, rng, n, m):
    """A PQ index of n codes and m query rows. "lattice" and "wide_codes"
    hold small integers, so their distances tie exactly; "wide_codes" has
    300 centroids per subspace and so two-byte codes; "tiny" and
    "float32_max" hold the extreme magnitudes of ``shortlist_case``."""
    if name == "gaussian":
        cents, q = rng.standard_normal((4, 16, 3)), rng.standard_normal((m, 12))
    elif name == "tiny":
        cents, q = rng.standard_normal((4, 16, 3)) * 1e-23, rng.standard_normal((m, 12)) * 1e-23
    elif name == "float32_max":
        cents, q = near_float32_max(rng, (3, 5, 2)), near_float32_max(rng, (m, 6))
    elif name == "lattice":
        cents, q = rng.integers(-2, 3, size=(3, 5, 2)), rng.integers(-2, 3, size=(m, 6))
    else:
        cents, q = rng.integers(-3, 4, size=(2, 300, 2)), rng.integers(-3, 4, size=(m, 4))
    codebook = Codebook(cents.astype(np.float32))
    ks = codebook.codebook_size
    codes = rng.integers(0, ks, size=(n, codebook.num_subspaces))
    return codebook, PQCodes(codes.astype(np.uint8 if ks <= 256 else np.uint16)), mat(q)


def training_blocks_of(rows, dim, monkeypatch):
    """Shrink the block budget so every route scans ``rows`` training
    rows of dim ``dim`` per tile (an eighth of the budget, float32);
    returns the list of tile sizes it records. Every route calls
    ``fill`` once per tile, so the fills are the tiles."""
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", 8 * rows * 4 * dim)
    blocks = []
    kernel = search.nearest_rows

    def recording(n, fill, *a, **kw):
        def filling(block, lo, hi):
            blocks.append(hi - lo)
            fill(block, lo, hi)

        return kernel(n, filling, *a, **kw)

    monkeypatch.setattr(search, "nearest_rows", recording)
    return blocks


def assert_blocks_equal_subtraction_scan(train, corpus, gen, monkeypatch):
    """``train``'s tables, bit for bit, against a subtraction scan over
    ``corpus``, with tiles of 4 training rows; k = 5 fills the running
    top k only on the second tile."""
    n = corpus.count
    blocks = training_blocks_of(4, gen.dim, monkeypatch)
    for k in (1, 3, 5, n, n + 5):
        blocks.clear()
        t = batch_match(train, gen, k=k)
        assert blocks == [min(4, n - lo) for lo in range(0, n, 4)]
        idx, dist = subtraction_scan(corpus, gen, k)
        assert t.indices.tobytes() == idx.tobytes()
        assert t.distances.tobytes() == dist.tobytes()


# n = 29 leaves a last block of one row
BLOCK_SHAPES = [(30, 3), (30, 4), (30, 5), (30, 9), (29, 5)]
EXACT_BLOCK_CASES = ["gaussian", "lattice", "near_ties", "huge", "tiny", "float32_max"]


@pytest.mark.parametrize("n, m", BLOCK_SHAPES)
@pytest.mark.parametrize("case", EXACT_BLOCK_CASES)
def test_training_row_blocks_equal_subtraction_scan(case, n, m, monkeypatch):
    """The exact route's tables with 4-row blocks of training rows."""
    rng = np.random.default_rng(EXACT_BLOCK_CASES.index(case) * 100 + n + m)
    train, gen = shortlist_case(case, rng, n, m)
    assert_blocks_equal_subtraction_scan(train, train, gen, monkeypatch)


@pytest.mark.parametrize("n, m", BLOCK_SHAPES)
@pytest.mark.parametrize("case", EXACT_BLOCK_CASES)
def test_embx_file_tiles_equal_subtraction_scan(case, n, m, tmp_path, monkeypatch):
    """The exact route's tables with 4-row tiles read from an EMBX file."""
    rng = np.random.default_rng(EXACT_BLOCK_CASES.index(case) * 100 + n + m)
    train, gen = shortlist_case(case, rng, n, m)
    with embeddings.open_rows(write_embx(tmp_path / "train.embx", train.data)) as rows:
        assert isinstance(rows, embeddings.EmbxRows)
        assert_blocks_equal_subtraction_scan(rows, train, gen, monkeypatch)


ADC_CASES = ["gaussian", "lattice", "wide_codes", "tiny", "float32_max"]


@pytest.mark.parametrize("n, m", BLOCK_SHAPES)
@pytest.mark.parametrize("case", ADC_CASES)
def test_decoded_blocks_equal_subtraction_scan(case, n, m, monkeypatch):
    """The PQ route's tables, bit for bit, against a subtraction scan
    over the whole decoded corpus, with 4-row decoded blocks."""
    rng = np.random.default_rng(ADC_CASES.index(case) * 100 + n + m)
    codebook, codes, gen = adc_case(case, rng, n, m)
    assert_blocks_equal_subtraction_scan((codebook, codes), decode(codes, codebook), gen, monkeypatch)


@pytest.mark.parametrize("case", ADC_CASES)
def test_encode_equals_subtraction_scan(case):
    """encode's codes, per subspace, are the top-1 rows of a subtraction
    scan over that subspace's centroids."""
    rng = np.random.default_rng(ADC_CASES.index(case) * 100 + 7)
    codebook, _, gen = adc_case(case, rng, 1, 40)
    sd = codebook.subspace_dim
    want = np.stack([
        subtraction_scan(mat(codebook.centroids[s]), mat(gen.data[:, s * sd : (s + 1) * sd]), 1)[0][:, 0]
        for s in range(codebook.num_subspaces)
    ], axis=1)
    assert encode(gen, codebook).codes.tolist() == want.tolist()


# ------------------------------------------------------------ running bound


def test_only_the_first_tile_ranks_its_rows(rng, monkeypatch):
    """Each query block ranks its rows (partition, or min at k = 1) on the
    first tile only; every later tile takes its threshold from the
    running top k. 30 rows of dim 6 make 8 tiles of at most 4 rows, and
    23 queries 8 blocks of at most 3 rows."""
    train, gen = shortlist_case("gaussian", rng, 30, 23)
    blocks = training_blocks_of(4, gen.dim, monkeypatch)
    assert embeddings.block_rows(9 * 4 + 4 * gen.dim, embeddings.BLOCK_BYTES // 4) == 3
    ranked = []
    kth_smallest = embeddings._kth_smallest

    def counting(up, kb):
        ranked.append((up.shape[1], kb))
        return kth_smallest(up, kb)

    monkeypatch.setattr(embeddings, "_kth_smallest", counting)
    fake_cpus(monkeypatch, 1)  # the counts see only this process's calls
    for k in (1, 3, 6):
        blocks.clear()
        ranked.clear()
        t = batch_match(train, gen, k=k)
        assert len(blocks) == 8
        assert ranked == [(4, min(k, 4))] * 8
        idx, dist = subtraction_scan(train, gen, k)
        assert t.indices.tobytes() == idx.tobytes()
        assert t.distances.tobytes() == dist.tobytes()


@pytest.mark.parametrize("route", ["exact", "adc"])
def test_ties_across_tiles_go_to_the_earlier_tile(rng, monkeypatch, route):
    """Every tile holds the same 4 lattice rows, so each row ties exactly
    with a copy in every other tile: copies rank by index, and the
    nearest row is always the first tile's."""
    if route == "exact":
        base = rng.integers(-2, 3, size=(4, 6)).astype(np.float32)
        train = corpus = mat(np.tile(base, (5, 1)))
        gen = mat(rng.integers(-2, 3, size=(7, 6)))
    else:
        codebook, codes, gen = adc_case("lattice", rng, 4, 7)
        codes = PQCodes(np.tile(codes.codes, (5, 1)))
        train, corpus = (codebook, codes), decode(codes, codebook)
    training_blocks_of(4, gen.dim, monkeypatch)
    for k in (1, 2, 4, 5, 9, 20):
        t = batch_match(train, gen, k=k)
        idx, dist = subtraction_scan(corpus, gen, k)
        assert t.indices.tobytes() == idx.tobytes()
        assert t.distances.tobytes() == dist.tobytes()
        assert t.indices[:, 0].max() < 4


@pytest.mark.parametrize("order", ["tiny_huge_unit", "huge_tiny_unit", "unit_huge_tiny"])
@pytest.mark.parametrize("queries", ["small", "with_huge"])
def test_scale_changes_between_tiles(rng, monkeypatch, order, queries):
    """Tiles of rows near 1e-23, near 1e30 and near 1 in turn: each tile
    scales by its own largest norm, so the running k-th distance of one
    tile bounds the next at another scale; a huge query forces a small
    scale on every tile instead."""
    parts = {"tiny": rng.standard_normal((8, 6)) * 1e-23, "huge": rng.standard_normal((8, 6)) * 1e30,
             "unit": rng.standard_normal((8, 6))}
    train = mat(np.concatenate([parts[name] for name in order.split("_")]))
    q = [parts["tiny"][:3] * 0.5, parts["unit"][:3] + 0.1, np.zeros((1, 6))]
    if queries == "with_huge":
        q.append(parts["huge"][:2] * 1.01)
    gen = mat(np.concatenate(q))
    training_blocks_of(4, gen.dim, monkeypatch)
    for k in (1, 3, 5, 9, 24):
        t = batch_match(train, gen, k=k)
        idx, dist = subtraction_scan(train, gen, k)
        assert t.indices.tobytes() == idx.tobytes()
        assert t.distances.tobytes() == dist.tobytes()


def running_bound_floor(dk, q2, s, beta, d):
    """V' of ``nearest_rows``' docstring in exact arithmetic: the value
    τ_run must reach for a later tile to keep every row that can enter
    the top k, s·D_k - s·|q|²·(1 - C0 - ρ'(d-1)) + β + η/2."""
    u, u64 = Fraction(1, 2**24), Fraction(1, 2**53)
    c0 = (1 + u) ** (d + 3) - 1 + 4 * ((1 + u64) ** (d + 2) - 1)
    g = 1 - c0 - ((1 + u64) ** (d - 1) - 1)
    return Fraction(s) * Fraction(dk) - Fraction(s) * Fraction(q2) * g + Fraction(beta) + Fraction(1, 2**150)


@pytest.mark.parametrize("d", [1, 6, 128])
def test_running_bound_covers_its_exact_value(rng, d):
    """τ_run >= V' in exact arithmetic: on random entries, and where V'
    lies just above a float32 value, so that the float64 roundings or a
    float32 rounding to nearest, left unpaid, would put τ_run below V'.
    D_k = +inf (a running top k not yet full) keeps every row."""
    def check(dk, q2, s, beta):
        tau = embeddings._running_bound(np.array(dk), np.array(q2), s, beta, d)
        assert tau.dtype == np.float32
        for t, x, y in zip(tau.tolist(), dk, q2):
            assert Fraction(t) >= running_bound_floor(x, y, s, beta, d), (t, x, y, s)

    for s in (1.0, 2.0**-40, 2.0**-150):
        for x2_max in (0.0, 1.0, 1e30):
            beta = (1 + embeddings._rho(d + 1, 2.0**-24)) * 2.0**-149 * (2 * d + 1 + math.sqrt(d * x2_max))
            # random running distances and query norms
            dk = (np.abs(rng.standard_normal(50)) * 10.0 ** rng.uniform(-3, 3, 50)).tolist()
            q2 = (np.abs(rng.standard_normal(50)) * 10.0 ** rng.uniform(-3, 3, 50)).tolist()
            check(dk, q2, s, beta)
            # D_k the least float64 with V' above a float32 target F: with
            # |q|² = 0 the D_k term dominates, with |q|² = 100·D_k the norm
            dks, q2s = [], []
            for target, ratio in [(f, 0.0) for f in (1.0, 3.5, 1e10)] + [(f, 100.0) for f in (-1.0, -7.25e5)]:
                F = float(np.float32(target * s))
                y = 0.0 if ratio == 0 else -target * ratio / 0.99
                dk_exact = (Fraction(F) - Fraction(beta) - Fraction(1, 2**150)
                            - running_bound_floor(0.0, y, s, 0.0, d) + Fraction(1, 2**150)) / Fraction(s)
                x = max(0.0, float(dk_exact))
                while running_bound_floor(x, y, s, beta, d) <= F:
                    x = math.nextafter(x, math.inf)
                dks.append(x)
                q2s.append(y)
            check(dks, q2s, s, beta)
    assert embeddings._running_bound(np.array([np.inf]), np.array([1.0]), 1.0, 1e-44, d).tolist() == [np.inf]


@pytest.mark.parametrize("n", [2_000, 20_000])
def test_adc_scratch_stays_inside_the_block_budget(rng, n):
    """Guards peak memory: the PQ route's float32 decoded block and the
    kernel's buffers fit the block budget. Besides them it holds less
    than 0.5 MiB: the queries' squared norms, the running and the
    block's top-k tables, and one block column of codes as indices."""
    codebook = Codebook(rng.standard_normal((8, 256, 8)).astype(np.float32))
    codes = PQCodes(rng.integers(0, 256, size=(n, 8)).astype(np.uint8))
    gen = mat(rng.standard_normal((500, 64)))
    scratch = traced_peak(lambda: batch_match((codebook, codes), gen, k=10))
    assert scratch < embeddings.BLOCK_BYTES + (1 << 19), f"scratch {scratch / 2**20:.2f} MiB"


@pytest.mark.parametrize("n, dim", [
    pytest.param(2_000, 64, id="2000"),
    pytest.param(20_000, 64, id="20000"),
    # value-exact's shape: a float32 corpus of 9.77 MiB
    pytest.param(20_000, 128, id="20000x128"),
])
def test_exact_scratch_stays_inside_the_block_budget(rng, n, dim):
    """Guards peak memory: the exact route reads the training rows in
    place, copying no block of them and never the corpus, so it stays
    inside the PQ route's bound."""
    train = mat(rng.standard_normal((n, dim)))
    gen = mat(rng.standard_normal((500, dim)))
    scratch = traced_peak(lambda: batch_match(train, gen, k=10))
    assert scratch < embeddings.BLOCK_BYTES + (1 << 19), f"scratch {scratch / 2**20:.2f} MiB"


def test_an_embx_file_scan_holds_no_corpus(rng, tmp_path):
    """Guards peak memory: over an EMBX file the exact route opens the
    file (its header only), reads one tile at a time into an eighth of
    BLOCK_BYTES and holds the kernel's other buffers in half of it, so
    opening and scanning stay inside the PQ route's bound of
    BLOCK_BYTES + 0.5 MiB, 8.5 MiB: below the 9.77 MiB float32 corpus
    of value-exact's shape, 20 000 x 128."""
    n, dim = 20_000, 128
    path = write_embx(tmp_path / "train.embx", rng.standard_normal((n, dim)))
    gen = mat(rng.standard_normal((500, dim)))

    def scan():
        with embeddings.open_rows(path) as train:
            batch_match(train, gen, k=10)

    bound = embeddings.BLOCK_BYTES + (1 << 19)
    assert bound < n * dim * 4
    peak = traced_peak(scan)
    assert peak < bound, f"peak {peak / 2**20:.2f} MiB"


def test_an_exact_scan_holds_one_gemm_table(rng, tmp_path):
    """Guards peak memory: at value-exact's shape (an EMBX corpus of
    20 000 x 128, 500 queries, k = 10) the scan holds one float32 table
    of GEMM results, 0.86 MiB at 110 query rows by 2 048 training rows,
    and ranks the first tile's thresholds a few query rows at a time in
    a buffer of SMALL_BYTES; a second table of that size would take the
    traced peak above 4.3 MiB."""
    n, dim = 20_000, 128
    path = write_embx(tmp_path / "train.embx", rng.standard_normal((n, dim)))
    gen = mat(rng.standard_normal((500, dim)))

    def scan():
        with embeddings.open_rows(path) as train:
            batch_match(train, gen, k=10)

    peak = traced_peak(scan)
    assert peak < 4.3 * 2**20, f"peak {peak / 2**20:.2f} MiB"


# ------------------------------------------------------------------- recall


def test_recall_identical():
    t = tables([[1.0, 2.0]], [[3, 4]])
    assert recall_at_k(t, t) == 1.0


def test_recall_disjoint():
    a = tables([[1.0, 2.0]], [[0, 1]])
    b = tables([[1.0, 2.0]], [[2, 3]])
    assert recall_at_k(a, b) == 0.0


def test_recall_half_shared():
    a = tables([[1.0, 2.0]], [[0, 1]])
    b = tables([[1.0, 2.0]], [[1, 2]])
    assert recall_at_k(a, b) == 0.5


@pytest.mark.parametrize("n, k", [(20, 1), (20, 5), (20, 20), (3, 3)])
def test_recall_equals_the_per_row_loop(n, k):
    """Seeded random tables, with repeated indices in the approximate rows
    and in some exact rows, against the per-row intersect1d loop."""
    rng = np.random.default_rng(n * 100 + k)
    m = 50
    exact = np.array([rng.permutation(n)[:k] for _ in range(m)])
    exact[::7] = rng.integers(0, n, size=exact[::7].shape)  # repeats too
    approx = rng.integers(0, n, size=(m, k))
    approx[::3] = exact[::3]
    approx[1::5, :] = approx[1::5, :1]  # one index k times
    dist = np.zeros((m, k))
    got = recall_at_k(tables(dist, approx), tables(dist, exact))
    assert got == reference.recall_at_k_loop(approx, exact)


def test_recall_shape_mismatch():
    a = tables([[1.0, 2.0]], [[0, 1]])
    b = tables([[1.0]], [[0]])
    with pytest.raises(ValidationError):
        recall_at_k(a, b)


# -------------------------------------------------------------- jsonl table


def test_jsonl_roundtrip_is_stable(rng):
    train = mat(rng.standard_normal((20, 3)))
    gen = mat(rng.standard_normal((5, 3)))
    t = batch_match(train, gen, k=4)
    buf = io.StringIO()
    write_match_jsonl(t, buf)
    first = buf.getvalue()
    back = read_match_jsonl(io.StringIO(first))
    buf2 = io.StringIO()
    write_match_jsonl(back, buf2)
    assert buf2.getvalue() == first  # text fixpoint after one round


def test_jsonl_lines_may_arrive_out_of_order():
    text = (
        '{"gen_index": 1, "matches": [{"train_index": 2, "distance": 0.5}]}\n'
        '{"gen_index": 0, "matches": [{"train_index": 7, "distance": 1.5}]}\n'
    )
    t = read_match_jsonl(io.StringIO(text))
    assert t.indices[:, 0].tolist() == [7, 2]


@pytest.mark.parametrize(
    "text, message",
    [
        ("not json\n", r"line 1"),
        ('{"gen_index": 0}\n', r"line 1"),
        (
            '{"gen_index": 0, "matches": [{"train_index": 1, "distance": 1}]}\n'
            '{"gen_index": 0, "matches": [{"train_index": 1, "distance": 1}]}\n',
            r"duplicate gen_index 0",
        ),
        (
            '{"gen_index": 0, "matches": [{"train_index": 1, "distance": 1}]}\n'
            '{"gen_index": 1, "matches": [{"train_index": 1, "distance": 1}, '
            '{"train_index": 2, "distance": 2}]}\n',
            r"line 2: expected 1 matches",
        ),
        (
            '{"gen_index": 1, "matches": [{"train_index": 1, "distance": 1}]}\n',
            r"cover 0\.\.m-1",
        ),
        *(
            (
                f'{{"gen_index": {a}, "matches": [{{"train_index": 1, "distance": 1}}]}}\n'
                f'{{"gen_index": {b}, "matches": [{{"train_index": 1, "distance": 1}}]}}\n',
                r"cover 0\.\.m-1",
            )
            for a, b in ((0, 2), (-1, 0), (0, 2**70))
        ),
        ("", r"empty"),
        ('{"gen_index": 0, "matches": []}\n', r"line 1: record has no matches"),
        ('{"gen_index": 0, "matches": [{"train_index": 1.7, "distance": 1}]}\n', r"line 1: indices"),
        ('{"gen_index": 0, "matches": [{"train_index": true, "distance": 1}]}\n', r"line 1: indices"),
        ('{"gen_index": 0, "matches": [{"train_index": "3", "distance": 1}]}\n', r"line 1: indices"),
        ('{"gen_index": 0.0, "matches": [{"train_index": 1, "distance": 1}]}\n', r"line 1: indices"),
        ('{"gen_index": false, "matches": [{"train_index": 1, "distance": 1}]}\n', r"line 1: indices"),
        ('{"gen_index": 0, "matches": [{"train_index": 1, "distance": "1"}]}\n', r"distances"),
        ('{"gen_index": 0, "matches": [{"train_index": 1, "distance": null}]}\n', r"distances"),
        ('{"gen_index": 0, "matches": [{"train_index": 1, "distance": true}]}\n', r"distances"),
        (
            '{"gen_index": 0, "matches": [{"train_index": 99999999999999999999, "distance": 1}]}\n',
            r"64-bit",
        ),
        (
            '{"gen_index": 0, "matches": [{"train_index": 1, "distance": 1}]}\n'
            '{"gen_index": 1, "matches": [{"train_index": 99999999999999999999, "distance": 1}]}\n',
            r"line 2: .*64-bit range",
        ),
    ],
)
def test_jsonl_rejects_malformed_streams(text, message):
    with pytest.raises(FormatError, match=message):
        read_match_jsonl(io.StringIO(text))


def test_jsonl_parse_keeps_to_its_tables(rng):
    """Guards peak memory: the parse holds its records as flat index and
    distance buffers, not as per-row Python lists."""
    m, k = 2_000, 50
    t = tables(rng.uniform(0, 10, size=(m, k)), rng.integers(0, 10**6, size=(m, k)))
    buf = io.StringIO()
    write_match_jsonl(t, buf)
    stream = io.StringIO(buf.getvalue())
    table_bytes = t.distances.nbytes + t.indices.nbytes
    peak = traced_peak(lambda: read_match_jsonl(stream))
    assert peak <= 3 * table_bytes, f"peak {peak / table_bytes:.2f}x the tables"


def test_jsonl_distance_precision(rng):
    # nine significant digits resolve any float32-derived distance closely
    # enough that valuation downstream sees relative error below 1e-8
    train = mat(rng.standard_normal((40, 6)))
    gen = mat(rng.standard_normal((8, 6)))
    t = batch_match(train, gen, k=5)
    buf = io.StringIO()
    write_match_jsonl(t, buf)
    buf.seek(0)
    back = read_match_jsonl(buf)
    np.testing.assert_array_equal(back.indices, t.indices)
    np.testing.assert_allclose(back.distances, t.distances, rtol=1e-8, atol=1e-12)


# distances whose 9-digit text is an edge of the format or of the parse:
# 0, integral values written without a point ("3"), values near 1e16
# where the format turns to an exponent, ties at the ninth digit,
# subnormals and the largest float
EDGE_DISTANCES = [
    0.0, 3.0, 1e16, 1e16 + 2, 9999999999999998.0, 123456789.5, 1234567885.0, 0.1, 1e-5, 4.5e15,
    2.0**53 + 2, 5e-324, 1e-310, 2.2250738585072014e-308 / 3, 2.2250738585072014e-308, 1.7976931348623157e308,
]


def edge_tables(rng):
    """Edge distances, random ones over 600 decades and random subnormals,
    in rows of 4 with random indices."""
    dist = np.concatenate([
        EDGE_DISTANCES,
        np.exp(rng.uniform(-700, 700, 400)),
        rng.integers(1, 2**52, 40) * 5e-324,
    ])
    return tables(dist.reshape(-1, 4), rng.integers(0, 10**9, (dist.size // 4, 4)))


def test_as_written_equals_the_jsonl_round_trip(rng):
    """``as_written`` gives, bit for bit, the tables that writing JSON
    lines and parsing them back gives."""
    t = edge_tables(rng)
    idx, dist = reference.jsonl_round_trip(t.indices, t.distances)
    got = search.as_written(t)
    assert got.indices.tobytes() == idx.tobytes()
    assert got.distances.tobytes() == dist.tobytes()
    buf = io.StringIO()
    write_match_jsonl(t, buf)
    assert read_match_jsonl(io.StringIO(buf.getvalue())).distances.tobytes() == dist.tobytes()


def test_as_written_blocks_split_rows_and_end_ragged(rng, monkeypatch):
    """Blocks of 7 distances cut across the rows of 4 and leave a short
    last block; the bits are those of the round trip."""
    monkeypatch.setattr(search, "ROUND_BLOCK", 7)
    t = edge_tables(rng)
    assert t.distances.size % 7
    _, dist = reference.jsonl_round_trip(t.indices, t.distances)
    assert search.as_written(t).distances.tobytes() == dist.tobytes()


def test_as_written_holds_one_block_of_text(rng):
    """At m = 20 000, k = 50 the traced peak is the rounded array plus
    about one block of formatted text, not a string of every distance."""
    t = tables(rng.uniform(0, 100, (20_000, 50)), rng.integers(0, 10**6, (20_000, 50)))
    peak = traced_peak(lambda: search.as_written(t))
    assert peak < t.distances.nbytes + 2**20


def test_write_match_jsonl_equals_the_per_pair_writer(rng):
    t = edge_tables(rng)
    buf = io.StringIO()
    write_match_jsonl(t, buf)
    assert buf.getvalue() == reference.match_jsonl(t.indices, t.distances)


def test_percent_format_equals_the_format_spec():
    """The text outputs format with ``%``; they wrote with ``str.format``
    before, and the two agree on every edge of ``.9g``."""
    for x in [*EDGE_DISTANCES, -0.0, -3.0, -1e16, float("inf"), float("-inf"), float("nan"),
              -1.7976931348623157e308, -5e-324]:
        assert search.DISTANCE_FORMAT % x == "{:.9g}".format(x)
