import io
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak, write_embx
from genval import (
    EmbeddingMatrix,
    load_embeddings,
    save_embeddings,
    validate_pair,
)
from genval import embeddings, workers
from genval.embeddings import exact_sq_dists, open_rows, open_text, read_lines, row_blocks
from genval.errors import FormatError, ValidationError


def test_matrix_basic_properties():
    m = EmbeddingMatrix(np.arange(6, dtype=np.float32).reshape(2, 3))
    assert m.count == 2
    assert m.dim == 3
    assert m.data.dtype == np.float32
    assert m.data.flags.c_contiguous
    assert not m.data.flags.writeable
    np.testing.assert_array_equal(m.data[1], [3, 4, 5])


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


@pytest.mark.parametrize("at", [(0, 0), (2, 3), (4, 6)])
@pytest.mark.parametrize("value, message", [
    (np.nan, "non-finite value"),
    (np.inf, "non-finite value"),
    (-np.inf, "non-finite value"),
    (1e39, "value 1e+39"),
    (-1e39, "value -1e+39"),
])
def test_matrix_names_its_first_bad_entry(at, value, message):
    rows = np.zeros((5, 7))
    rows[4, 6] = np.nan  # a later bad entry, unless ``at`` is the last
    rows[at] = value
    tail = " is beyond float32 range" if message.startswith("value") else ""
    with pytest.raises(ValidationError) as err:
        EmbeddingMatrix(rows)
    assert str(err.value) == f"{message} at row {at[0]}, column {at[1]}{tail}"


def read_whole_rows(path):
    """Every row of the EMBX file at ``path``, read through ``open_rows``'s
    ``fill`` as the scan reads a tile."""
    with open_rows(path) as rows:
        rows.fill(np.empty((rows.count, rows.dim), dtype=np.float32), 0, rows.count)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("reader", ["embx", "csv", "embx-rows"])
def test_a_non_finite_value_names_its_file(tmp_path, value, reader):
    rows = np.arange(15, dtype=np.float32).reshape(5, 3)
    if reader == "csv":
        path = tmp_path / "x.csv"
        cells = rows.astype(object)
        cells[3, 2] = value
        path.write_text("".join(",".join(map(str, row)) + "\n" for row in cells))
    else:
        path = write_embx(tmp_path / "x.embx", rows)
        bad = rows.copy()
        bad[3, 2] = value
        path.write_bytes(path.read_bytes()[:24] + bad.astype("<f4").tobytes())
    read = {"embx": load_embeddings, "csv": lambda p: load_embeddings(p, "csv"),
            "embx-rows": read_whole_rows}[reader]
    with pytest.raises(ValidationError) as err:
        read(path)
    assert str(err.value) == f"{path}: non-finite value at row 3, column 2"


@pytest.mark.parametrize("cell", ["1e39", "-1e39"])
def test_a_csv_value_beyond_float32_names_its_file(tmp_path, cell):
    path = tmp_path / "x.csv"
    path.write_text(f"1,2\n3,{cell}\n")
    with pytest.raises(ValidationError) as err:
        load_embeddings(path, "csv")
    assert str(err.value) == f"{path}: value {float(cell):g} at row 1, column 1 is beyond float32 range"


def test_empty_matrix_is_finite():
    assert EmbeddingMatrix(np.zeros((0, 3), dtype=np.float32)).count == 0


def test_finiteness_check_holds_no_mask(rng):
    """Guards peak memory: checking a 20 000 x 128 float32 matrix
    allocates nothing of its size (a bool mask would be 2.4 MiB)."""
    rows = rng.standard_normal((20_000, 128)).astype(np.float32)
    peak = traced_peak(lambda: EmbeddingMatrix(rows))
    assert peak < 1 << 20, f"peak {peak / 2**20:.2f} MiB"


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


def test_embx_rows_data_reads_the_file_it_opened(tmp_path, rng):
    """A file renamed over the path of an open ``EmbxRows`` changes none
    of its rows: ``data`` reads the file that was opened, as ``count``,
    ``dim`` and ``fill`` do."""
    path = tmp_path / "x.embx"
    first = EmbeddingMatrix(rng.standard_normal((4, 3)).astype(np.float32))
    save_embeddings(first, path)
    with open_rows(path) as rows:
        save_embeddings(EmbeddingMatrix(rng.standard_normal((6, 2)).astype(np.float32)), path)
        block = np.empty((4, 3), dtype=np.float32)
        rows.fill(block, 0, 4)
        assert (rows.count, rows.dim) == (4, 3)
        assert block.tobytes() == first.data.tobytes()
        assert rows.data.shape == (4, 3) and rows.data.tobytes() == first.data.tobytes()
        assert not rows.data.flags.writeable


def reader(train, rows, passes):
    """A work item w that fills ``train``'s rows 16 at a time, ``passes``
    times over, ascending for w = 0 and descending otherwise; it returns
    the count of fills that differ from ``rows`` and its process id."""
    def read(w):
        block, wrong = np.empty((16, rows.shape[1]), dtype=np.float32), 0
        for lo in list(range(0, len(rows), 16))[:: 1 if w == 0 else -1] * passes:
            train.fill(block, lo, lo + 16)
            wrong += block.tobytes() != rows[lo : lo + 16].tobytes()
        return wrong, os.getpid()

    return read


def test_forked_readers_of_one_embx_rows_each_get_their_own_rows(tmp_path, rng):
    """``fill`` reads by position: the caller and a forked worker, which
    share the open file's offset, fill from one ``EmbxRows`` at once,
    in opposite orders, and each gets the rows it asked for; the file's
    offset stays where opening left it."""
    rows = rng.standard_normal((4096, 16)).astype(np.float32)
    with open_rows(write_embx(tmp_path / "x.embx", rows)) as train:
        start = os.lseek(train._fh.fileno(), 0, os.SEEK_CUR)
        got = workers.map_processes(reader(train, rows, 20), [0, 1], 2)
        assert len({pid for _, pid in got}) == 2
        assert [wrong for wrong, _ in got] == [0, 0]
        assert os.lseek(train._fh.fileno(), 0, os.SEEK_CUR) == start


def test_without_positional_reads_fill_reads_the_right_rows(tmp_path, rng, monkeypatch):
    """Where ``os.preadv`` is missing, ``fill`` seeks and reads, and gets
    the rows it asked for in either order."""
    monkeypatch.delattr(os, "preadv")
    rows = rng.standard_normal((4096, 16)).astype(np.float32)
    with open_rows(write_embx(tmp_path / "x.embx", rows)) as train:
        assert [reader(train, rows, 2)(w)[0] for w in (0, 1)] == [0, 0]


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


def test_csv_reader_holds_arrays(tmp_path, rng):
    """Guards peak memory: at 5 000 x 64 the reader holds no more than the
    file's text while it reads, then a float64 array (8 bytes an entry,
    room left for its growth) and the float32 matrix (4): not a float
    object and a list slot per entry."""
    n, d = 5_000, 64
    path = tmp_path / "m.csv"
    save_embeddings(EmbeddingMatrix(rng.standard_normal((n, d)).astype(np.float32)), path, format="csv")
    peak = traced_peak(lambda: load_embeddings(path, format="csv"))
    bound = path.stat().st_size + 16 * n * d
    assert peak < bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"


def test_read_lines_is_one_split_of_the_whole_text():
    # lines shorter and longer than a 64 KiB chunk, and an empty one
    lines = ["1,2", "x" * 100_000, "", "3,4" * 30_000, "5"] * 3
    text = "\n".join(lines)
    assert list(read_lines(io.StringIO(text), "s")) == lines
    assert list(read_lines(io.StringIO(text + "\n"), "s")) == lines
    assert list(read_lines(io.StringIO(text + "\n\n"), "s")) == lines + [""]
    assert list(read_lines(io.StringIO(""), "s")) == []


def test_open_text_reads_every_line_end_as_a_newline(tmp_path):
    # a \r\n that straddles the first chunk's end is one line end
    path = tmp_path / "t.txt"
    path.write_bytes(b"a" * 65_535 + b"\r\nb\rc\r\nd")
    with open_text(path) as fh:
        assert list(read_lines(fh, "t")) == ["a" * 65_535, "b", "c", "d"]


def test_read_lines_names_the_line_of_a_bad_byte_past_the_first_chunk(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"1,2\n" * 40_000 + b"3,\xfe4\n")
    read = 0
    with open_text(path) as fh, pytest.raises(FormatError) as err:
        for _ in read_lines(fh, f"{path}:"):
            read += 1
    # every line before the bad one is yielded first
    assert read == 40_000
    assert str(err.value) == f"{path}: line 40001: malformed record, byte 0xfe is not UTF-8"


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


# ------------------------------------------------------- distance kernel


def test_exact_sq_dists_on_float32_is_the_float64_call_bit_for_bit(rng):
    # scales far apart, so a float32 difference would round where the
    # float64 one does not
    rows = (rng.standard_normal((300, 17)) * 10.0 ** rng.integers(-6, 7, (300, 17))).astype(np.float32)
    queries = (rng.standard_normal((300, 17)) * 1e3).astype(np.float32)
    for q in (queries, queries[:1], queries[0]):
        got = exact_sq_dists(rows, q)
        want = exact_sq_dists(rows.astype(np.float64), q.astype(np.float64))
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        rounded = (rows - q).astype(np.float64)
        assert np.einsum("ij,ij->i", rounded, rounded).tobytes() != want.tobytes()


# ------------------------------------------------------------------ pair


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 300), step=st.integers(1, 40))
def test_row_blocks_start_at_multiples_of_step_and_never_cut_short(n, step):
    blocks = row_blocks(n, step)
    assert [lo for lo, _ in blocks] == list(range(0, step * len(blocks), step))
    assert [hi for _, hi in blocks] == [lo for lo, _ in blocks[1:]] + [n]
    sizes = [hi - lo for lo, hi in blocks]
    assert all(step <= s < 2 * step for s in sizes) if n >= step else sizes == [n]


@pytest.mark.parametrize("pairs", [2, 3, 5, 7])
def test_pair_distances_never_take_a_lone_row_from_a_taller_corpus(rng, monkeypatch, pairs):
    """At d = 9 000 einsum sums a lone row in pieces; with a budget that
    gives chunks of 2 to 3 rows, every chunk still holds at least 2, so
    each distance is the one of a scan of the whole corpus."""
    d, budget = 9_000, 2 * 32 * 9_000
    assert embeddings.block_rows(32 * d, budget) == 2
    train = rng.standard_normal((4, d)).astype(np.float32)
    queries = rng.standard_normal((3, d)).astype(np.float32)
    rows, cols = rng.integers(0, 3, pairs), rng.integers(0, 4, pairs)
    chunks = []
    monkeypatch.setattr(embeddings, "exact_sq_dists",
                        lambda a, b: chunks.append(len(a)) or exact_sq_dists(a, b))
    got = embeddings._pair_sq_dists(train, queries, rows, cols, budget, len(train))
    assert sum(chunks) == pairs and min(chunks) >= 2, chunks
    want = [exact_sq_dists(train, queries[r])[c] for r, c in zip(rows, cols)]
    assert got.tobytes() == np.array(want).tobytes()


def test_validate_pair():
    t = EmbeddingMatrix(np.zeros((100, 64), dtype=np.float32))
    g = EmbeddingMatrix(np.zeros((50, 64), dtype=np.float32))
    validate_pair(t.data.shape, g)  # ok
    with pytest.raises(ValidationError, match="dimension mismatch"):
        validate_pair(t.data.shape, EmbeddingMatrix(np.zeros((5, 32), dtype=np.float32)))
    with pytest.raises(ValidationError, match="empty"):
        validate_pair(EmbeddingMatrix(np.zeros((0, 64), dtype=np.float32)).data.shape, g)
