import io
import math
import os
import tracemalloc

import numpy as np
import pytest

import reference
from conftest import traced_peak
from genval import embeddings, search
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


def test_threads_do_not_change_output(rng, eight_cpus):
    train = mat(rng.standard_normal((101, 8)))
    gen = mat(rng.standard_normal((37, 8)))
    one = batch_match(train, gen, k=7, threads=1)
    eight = batch_match(train, gen, k=7, threads=8)
    assert one.distances.tobytes() == eight.distances.tobytes()
    assert one.indices.tobytes() == eight.indices.tobytes()


def test_batch_match_validates_pair():
    with pytest.raises(ValidationError):
        batch_match(mat([[1.0, 2.0]]), mat([[1.0, 2.0, 3.0]]), k=1)


@pytest.mark.parametrize("threads", [0, -3])
def test_batch_match_rejects_fewer_than_one_thread(threads):
    with pytest.raises(ConfigError, match="threads"):
        batch_match(mat([[1.0, 2.0]]), mat([[1.0, 2.0]]), k=1, threads=threads)


class RecordingPool:
    """Stands in for ThreadPoolExecutor: records its size, runs serially."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, parts):
        return [fn(part) for part in parts]


@pytest.mark.parametrize(
    "cpus, threads, m, pool_size",
    [
        (2, 10**30, 37, 2),  # capped at the CPU count
        (64, 8, 3, 3),  # capped at the row count
        (4, 3, 37, 3),  # as asked
        (None, 8, 37, None),  # CPU count unknown: one worker, no pool
        (64, 8, 1, None),  # one row: no pool
    ],
)
def test_workers_are_capped_at_rows_and_cpus(rng, monkeypatch, cpus, threads, m, pool_size):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(search, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    train = mat(rng.standard_normal((20, 4)))
    gen = mat(rng.standard_normal((m, 4)))
    t = batch_match(train, gen, k=3, threads=threads)
    assert RecordingPool.sizes == ([] if pool_size is None else [pool_size])
    one = batch_match(train, gen, k=3, threads=1)
    assert t.indices.tobytes() == one.indices.tobytes()
    assert t.distances.tobytes() == one.distances.tobytes()


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
    summation order (except "gaussian" and "huge"), so the loop oracle's
    ties are the true ties."""
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
    else:  # "large_offset": 1e4 plus 1e-3 noise, one float32 ulp there
        pts = np.float32(1e4) + rng.integers(-3, 4, size=(n + m, d)) * np.float32(2.0**-10)
    pts = pts.astype(np.float32)
    return mat(pts[:n]), mat(pts[n:])


CASES = ["gaussian", "lattice", "duplicates", "near_ties", "large_offset", "huge"]


@pytest.fixture
def four_row_blocks(monkeypatch):
    """Shrink the block budget so a 30-row corpus of dim 6 is one block of
    training rows, scanned 4 query rows per block (the kernel gets a
    quarter of the budget)."""
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", 4 * 4 * 17 * 30)
    assert embeddings.block_rows(17 * 30, embeddings.BLOCK_BYTES // 4) == 4


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
    train, gen = shortlist_case("large_offset", rng, 200, 30, d=128)
    t = batch_match(train, gen, k=5)
    idx, dist = subtraction_scan(train, gen, 5)
    assert t.indices.tobytes() == idx.tobytes()
    assert t.distances.tobytes() == dist.tobytes()
    assert sum(rechecked) > 30 * 200 // 2


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


@pytest.mark.parametrize("route", ["exact", "adc"])
def test_threads_split_across_blocks(rng, monkeypatch, eight_cpus, route):
    if route == "exact":
        train, gen = shortlist_case("near_ties", rng, 30, 23)
    else:
        codebook, codes, gen = adc_case("lattice", rng, 30, 23)
        train = (codebook, codes)
    training_blocks_of(4, gen.dim, monkeypatch)
    one = batch_match(train, gen, k=6, threads=1)
    three = batch_match(train, gen, k=6, threads=3)
    assert one.indices.tobytes() == three.indices.tobytes()
    assert one.distances.tobytes() == three.distances.tobytes()


def test_exact_scan_scratch_stays_below_one_corpus_copy(rng):
    """Guards peak memory: block buffers on top of batch_match's float64
    corpus must stay below a second float64 copy of the corpus."""
    train = mat(rng.standard_normal((20_000, 128)))
    gen = mat(rng.standard_normal((500, 128)))
    corpus64 = train.data.size * 8
    tracemalloc.start()
    try:
        batch_match(train, gen, k=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    scratch = peak - corpus64
    assert scratch < corpus64, f"scratch {scratch / 2**20:.1f} MiB"


# ---------------------------------------------------- training-row blocks


def adc_case(name, rng, n, m):
    """A PQ index of n codes and m query rows. "lattice" and "wide_codes"
    hold small integers, so their distances tie exactly; "wide_codes" has
    300 centroids per subspace and so two-byte codes."""
    if name == "gaussian":
        cents, q = rng.standard_normal((4, 16, 3)), rng.standard_normal((m, 12))
    elif name == "lattice":
        cents, q = rng.integers(-2, 3, size=(3, 5, 2)), rng.integers(-2, 3, size=(m, 6))
    else:
        cents, q = rng.integers(-3, 4, size=(2, 300, 2)), rng.integers(-3, 4, size=(m, 4))
    codebook = Codebook(cents.astype(np.float32))
    ks = codebook.codebook_size
    codes = rng.integers(0, ks, size=(n, codebook.num_subspaces))
    return codebook, PQCodes(codes.astype(np.uint8 if ks <= 256 else np.uint16)), mat(q)


def training_blocks_of(rows, dim, monkeypatch):
    """Shrink the block budget so either route scans ``rows`` training
    rows of dim ``dim`` per block (half the budget, float64); returns the
    list of block sizes it records."""
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", 2 * rows * 8 * dim)
    blocks = []
    kernel = search.nearest_rows

    def recording(source, fill, *a, **kw):
        return kernel(source, lambda block, rows: blocks.append(len(block)) or fill(block, rows), *a, **kw)

    monkeypatch.setattr(search, "nearest_rows", recording)
    return blocks


def assert_blocks_equal_subtraction_scan(train, corpus, gen, monkeypatch):
    """``train``'s tables, bit for bit, against a subtraction scan over
    ``corpus``, with blocks of 4 training rows."""
    n = corpus.count
    blocks = training_blocks_of(4, gen.dim, monkeypatch)
    for k in (1, 3, n, n + 5):
        blocks.clear()
        t = batch_match(train, gen, k=k)
        assert blocks == [min(4, n - lo) for lo in range(0, n, 4)]
        idx, dist = subtraction_scan(corpus, gen, k)
        assert t.indices.tobytes() == idx.tobytes()
        assert t.distances.tobytes() == dist.tobytes()


# n = 29 leaves a last block of one row
BLOCK_SHAPES = [(30, 3), (30, 4), (30, 5), (30, 9), (29, 5)]
EXACT_BLOCK_CASES = ["gaussian", "lattice", "near_ties", "huge"]


@pytest.mark.parametrize("n, m", BLOCK_SHAPES)
@pytest.mark.parametrize("case", EXACT_BLOCK_CASES)
def test_training_row_blocks_equal_subtraction_scan(case, n, m, monkeypatch):
    """The exact route's tables with 4-row blocks of training rows."""
    rng = np.random.default_rng(EXACT_BLOCK_CASES.index(case) * 100 + n + m)
    train, gen = shortlist_case(case, rng, n, m)
    assert_blocks_equal_subtraction_scan(train, train, gen, monkeypatch)


ADC_CASES = ["gaussian", "lattice", "wide_codes"]


@pytest.mark.parametrize("n, m", BLOCK_SHAPES)
@pytest.mark.parametrize("case", ADC_CASES)
def test_decoded_blocks_equal_subtraction_scan(case, n, m, monkeypatch):
    """The PQ route's tables, bit for bit, against a subtraction scan
    over the whole decoded corpus, with 4-row decoded blocks."""
    rng = np.random.default_rng(ADC_CASES.index(case) * 100 + n + m)
    codebook, codes, gen = adc_case(case, rng, n, m)
    assert_blocks_equal_subtraction_scan((codebook, codes), decode(codes, codebook), gen, monkeypatch)


@pytest.mark.parametrize("n", [2_000, 20_000])
def test_adc_scratch_stays_inside_the_block_budget(rng, n):
    """Guards peak memory: the PQ route's decoded block and the kernel's
    buffers fit the block budget. Besides them it holds the float64
    queries and less than 0.5 MiB: the running and the block's top-k
    tables, and one block column of codes as indices."""
    codebook = Codebook(rng.standard_normal((8, 256, 8)).astype(np.float32))
    codes = PQCodes(rng.integers(0, 256, size=(n, 8)).astype(np.uint8))
    gen = mat(rng.standard_normal((500, 64)))
    tracemalloc.start()
    try:
        batch_match((codebook, codes), gen, k=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    scratch = peak - gen.data.size * 8
    assert scratch < embeddings.BLOCK_BYTES + (1 << 19), f"scratch {scratch / 2**20:.2f} MiB"


@pytest.mark.parametrize("n", [2_000, 20_000])
def test_exact_scratch_stays_inside_the_block_budget(rng, n):
    """Guards peak memory: the exact route converts one block of training
    rows at a time, never the corpus, so it stays inside the PQ route's
    bound."""
    train = mat(rng.standard_normal((n, 64)))
    gen = mat(rng.standard_normal((500, 64)))
    scratch = traced_peak(lambda: batch_match(train, gen, k=10)) - gen.data.size * 8
    assert scratch < embeddings.BLOCK_BYTES + (1 << 19), f"scratch {scratch / 2**20:.2f} MiB"


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
    ],
)
def test_jsonl_rejects_malformed_streams(text, message):
    with pytest.raises(FormatError, match=message):
        read_match_jsonl(io.StringIO(text))


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
