import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genval import (
    EmbeddingMatrix,
    load_embeddings,
    save_embeddings,
    validate_pair,
)
from genval.errors import FormatError, ValidationError


def test_matrix_basic_properties():
    m = EmbeddingMatrix(np.arange(6, dtype=np.float32).reshape(2, 3))
    assert m.count == 2
    assert m.dim == 3
    assert m.data.dtype == np.float32
    assert m.data.flags.c_contiguous
    assert not m.data.flags.writeable
    np.testing.assert_array_equal(m.row(1), [3, 4, 5])


def test_matrix_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        EmbeddingMatrix(np.zeros(3, dtype=np.float32))
    with pytest.raises(ValidationError):
        EmbeddingMatrix(np.zeros((4, 0), dtype=np.float32))


def test_matrix_rejects_nonfinite_naming_position():
    bad = np.zeros((3, 2), dtype=np.float32)
    bad[1, 1] = np.nan
    with pytest.raises(ValidationError, match=r"row 1.*column 1"):
        EmbeddingMatrix(bad)


def test_matrix_equality_is_bitwise():
    a = EmbeddingMatrix(np.array([[0.0, -0.0]], dtype=np.float32))
    b = EmbeddingMatrix(np.array([[0.0, 0.0]], dtype=np.float32))
    assert a != b  # -0.0 and 0.0 differ bitwise even though == numerically
    assert a == EmbeddingMatrix(np.array([[0.0, -0.0]], dtype=np.float32))


# ------------------------------------------------------------ binary format


def test_binary_header_layout(tmp_path):
    """count=2, dim=3 with six payload floats, laid out exactly as documented."""
    path = tmp_path / "two.embx"
    data = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.float32)
    save_embeddings(EmbeddingMatrix(data), path)
    raw = path.read_bytes()
    assert raw[:4] == b"EMBX"
    version, count, dim, dtype_code = struct.unpack("<xxxxIQII", raw[:24])
    assert (version, count, dim, dtype_code) == (1, 2, 3, 1)
    assert len(raw) == 24 + 2 * 3 * 4
    payload = np.frombuffer(raw[24:], dtype="<f4").reshape(2, 3)
    np.testing.assert_array_equal(payload, data)
    loaded = load_embeddings(path)
    assert loaded.count == 2 and loaded.dim == 3


def test_binary_roundtrip_bitwise(tmp_path, rng):
    m = EmbeddingMatrix(rng.standard_normal((17, 5)).astype(np.float32))
    path = tmp_path / "r.embx"
    save_embeddings(m, path)
    assert load_embeddings(path) == m


@settings(max_examples=25, deadline=None)
@given(
    count=st.integers(1, 8),
    dim=st.integers(1, 6),
    seed=st.integers(0, 2**31),
)
def test_binary_roundtrip_property(tmp_path_factory, count, dim, seed):
    data = np.random.default_rng(seed).normal(size=(count, dim)).astype(np.float32)
    path = tmp_path_factory.mktemp("embx") / "m.embx"
    m = EmbeddingMatrix(data)
    save_embeddings(m, path)
    assert load_embeddings(path) == m


@pytest.mark.parametrize(
    "mutate, offset_in_message",
    [
        (lambda b: b"XMBX" + b[4:], 0),  # bad magic, first byte wrong
        (lambda b: b"EMBZ" + b[4:], 3),  # bad magic, last byte wrong
        (lambda b: b[:4] + struct.pack("<I", 9) + b[8:], 4),  # bad version
        (lambda b: b[:20] + struct.pack("<I", 7) + b[24:], 20),  # bad dtype code
    ],
)
def test_binary_bad_header_names_first_bad_byte(tmp_path, mutate, offset_in_message):
    path = tmp_path / "bad.embx"
    save_embeddings(EmbeddingMatrix(np.ones((2, 2), dtype=np.float32)), path)
    path.write_bytes(mutate(path.read_bytes()))
    with pytest.raises(FormatError, match=rf"byte {offset_in_message}\b"):
        load_embeddings(path)


def test_binary_truncation_rejected(tmp_path):
    path = tmp_path / "t.embx"
    save_embeddings(EmbeddingMatrix(np.ones((3, 4), dtype=np.float32)), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-2])
    with pytest.raises(FormatError):
        load_embeddings(path)
    # header alone, payload missing entirely
    path.write_bytes(raw[:24])
    with pytest.raises(FormatError):
        load_embeddings(path)
    # short header
    path.write_bytes(raw[:10])
    with pytest.raises(FormatError):
        load_embeddings(path)


def test_binary_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "x.embx"
    save_embeddings(EmbeddingMatrix(np.ones((2, 2), dtype=np.float32)), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError):
        load_embeddings(path)


# --------------------------------------------------------------- csv format


def test_csv_parse(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    m = load_embeddings(path, format="csv")
    assert (m.count, m.dim) == (2, 2)
    np.testing.assert_array_equal(m.data, [[1, 2], [3, 4]])


def test_csv_ragged_row_names_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(FormatError, match="line 2"):
        load_embeddings(path, format="csv")


def test_csv_header_skip(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b\n1.5,2.5\n")
    with pytest.raises(FormatError):
        load_embeddings(path, format="csv")
    m = load_embeddings(path, format="csv", skip_header=True)
    assert m.count == 1


def test_csv_roundtrip_exact_values(tmp_path):
    m = EmbeddingMatrix(np.array([[1.5, -2.25]], dtype=np.float32))
    path = tmp_path / "m.csv"
    save_embeddings(m, path, format="csv")
    assert load_embeddings(path, format="csv") == m


def test_csv_roundtrip_survives_awkward_floats(tmp_path, rng):
    # shortest-roundtrip decimal repr must reproduce every f32 bit pattern
    vals = rng.standard_normal((40, 3)).astype(np.float32) * 10.0 ** rng.integers(
        -20, 20, size=(40, 3)
    ).astype(np.float32)
    m = EmbeddingMatrix(vals)
    path = tmp_path / "m.csv"
    save_embeddings(m, path, format="csv")
    assert load_embeddings(path, format="csv") == m


def test_csv_non_numeric_field(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,fish\n")
    with pytest.raises(FormatError, match="line 1"):
        load_embeddings(path, format="csv")


def test_save_to_unwritable_location(tmp_path):
    # a regular file in the directory position fails for any uid, root included
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    with pytest.raises(OSError):
        save_embeddings(
            EmbeddingMatrix(np.ones((1, 1), dtype=np.float32)), blocker / "m.embx"
        )


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValidationError):
        load_embeddings(tmp_path / "m.bin", format="parquet")


# ------------------------------------------------------------------ pair


def test_validate_pair():
    t = EmbeddingMatrix(np.zeros((100, 64), dtype=np.float32))
    g = EmbeddingMatrix(np.zeros((50, 64), dtype=np.float32))
    validate_pair(t, g)  # ok
    with pytest.raises(ValidationError, match="dimension mismatch"):
        validate_pair(t, EmbeddingMatrix(np.zeros((5, 32), dtype=np.float32)))
    with pytest.raises(ValidationError, match="empty"):
        validate_pair(EmbeddingMatrix(np.zeros((0, 64), dtype=np.float32)), g)
