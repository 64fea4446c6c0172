import re

import numpy as np
import pytest

import reference
from conftest import traced_peak
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
from genval.errors import ConfigError, CorruptionError, FormatError


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
    # small blocks: 300 rows against 16 centroids make 30 blocks of 10 rows
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", 40 * 17 * 16)
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
    matching has, its float64 queries and codes included."""
    data = mat(rng.standard_normal((n, 64)))
    codebook = Codebook(rng.standard_normal((8, 256, 8)).astype(np.float32))
    scratch = traced_peak(lambda: encode(data, codebook))
    assert scratch < embeddings.BLOCK_BYTES, f"scratch {scratch / 2**20:.2f} MiB"


def unblocked_assign(points, centroids):
    """Lloyd's assignment step before blocking: one full GEMM."""
    cross = points @ centroids.T
    c2 = np.einsum("ij,ij->i", centroids, centroids)
    scores = c2[None, :] - 2.0 * cross
    assign = np.argmin(scores, axis=1)
    x2 = np.einsum("ij,ij->i", points, points)
    obj = float(np.maximum(scores[np.arange(points.shape[0]), assign] + x2, 0.0).sum())
    return assign, obj


def test_blocked_assign_equals_one_gemm(rng, monkeypatch):
    # a budget this small gives 64-row blocks: 5 of them, the last 101 rows
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", 1)
    points = rng.standard_normal((357, 8)) * 3
    centroids = rng.standard_normal((40, 8))
    x2 = np.einsum("ij,ij->i", points, points)
    assign, obj = pq._assign(points, centroids, x2, np.empty((101, 40)))
    want_assign, want_obj = unblocked_assign(points, centroids)
    np.testing.assert_array_equal(assign, want_assign)
    assert obj == want_obj
    assert [hi - lo for lo, hi in pq._assign_blocks(357, 40)] == [64, 64, 64, 64, 101]


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


def test_quantization_error_holds_one_float64_matrix(rng):
    """Guards peak memory: besides the float64 difference, the error holds
    the float32 reconstruction and less than 1 MiB."""
    data = mat(rng.standard_normal((20_000, 64)))
    cb = train_codebooks(data, PQConfig(8, 16, 2, seed=0))
    codes = encode(data, cb)
    peak = traced_peak(lambda: quantization_error(data, cb, codes))
    assert peak - data.data.size * 8 < data.data.nbytes + (1 << 20), f"peak {peak / 2**20:.1f} MiB"


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
