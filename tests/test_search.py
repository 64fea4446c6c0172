import io
import math

import numpy as np
import pytest

import reference
from genval import (
    Codebook,
    EmbeddingMatrix,
    MatchTables,
    PQConfig,
    PQCodes,
    adc_lookup_table,
    batch_match,
    encode,
    quantization_error,
    read_match_jsonl,
    recall_at_k,
    train_codebooks,
    write_match_jsonl,
)
from genval.errors import ConfigError, FormatError, ValidationError


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
    t = batch_match(train, query(train.row(7)), k=3)
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


def test_adc_lookup_table_hand_example():
    """Two 1-D subspaces with centroids {0, 10} each; query (1, 9)."""
    cb = Codebook(np.array([[[0.0], [10.0]], [[0.0], [10.0]]], dtype=np.float32))
    table = adc_lookup_table(cb, np.array([1.0, 9.0]))
    assert table.shape == (2, 2)
    np.testing.assert_allclose(table, [[1.0, 81.0], [81.0, 1.0]])
    # vector coded (0, 1) reconstructs to (0, 10): estimated sq dist 1 + 1
    codes = PQCodes(np.array([[0, 1]], dtype=np.uint8))
    t = batch_match((cb, codes), query([1.0, 9.0]), k=1)
    assert t.distances[0, 0] == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_adc_rejects_codes_from_another_codebook():
    cb = Codebook(np.array([[[0.0], [10.0]], [[0.0], [10.0]]], dtype=np.float32))
    codes = PQCodes(np.array([[0]], dtype=np.uint8))
    with pytest.raises(ValidationError, match="subspace count"):
        batch_match((cb, codes), query([1.0, 9.0]), k=1)


def test_adc_equals_exact_on_zero_error_codebook(rng):
    pts = rng.standard_normal((9, 4))
    train = mat(pts)
    cb = train_codebooks(train, PQConfig(2, 9, 4, seed=0))
    codes = encode(train, cb)
    assert quantization_error(train, cb) == 0.0
    q = query(rng.standard_normal(4))
    ex = batch_match(train, q, k=4)
    ad = batch_match((cb, codes), q, k=4)
    assert ex.indices.tolist() == ad.indices.tolist()
    np.testing.assert_allclose(ad.distances, ex.distances, rtol=1e-5)


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
        single = batch_match(mat(train_rows), query(gen.row(j)), k=5)
        assert single.m == 1
        # a one-row query gives bit for bit the row a full batch gives
        assert single.indices[0].tobytes() == full.indices[j].tobytes()
        assert single.distances[0].tobytes() == full.distances[j].tobytes()
        expect = reference.full_scan_topk(train_rows.tolist(), gen.row(j).tolist(), 5)
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


def test_threads_do_not_change_output(rng):
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
