"""The binary container rule that EMBX and GMVI share: a magic, a u32
version, the format's fields, then arrays that fill the file exactly.
Each corruption must raise the same FormatError from both loaders,
naming the file and the first bad byte; a write replaces a file whole or
not at all; and a mutation suite holds every CLI run on a damaged
container to exit 0 or 2 with one error line."""
import errno
import json
import os
import re
import select
import stat
import struct
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CliRun, assert_one_error_line, child_env, run_cli
from genval import (
    Codebook,
    CorruptionError,
    EmbeddingMatrix,
    FormatError,
    PQCodes,
    PQConfig,
    embeddings,
    encode,
    load_embeddings,
    load_index,
    save_embeddings,
    save_index,
    train_codebooks,
)
from genval.errors import InternalError


def write_embx(path):
    save_embeddings(EmbeddingMatrix(np.arange(6, dtype=np.float32).reshape(3, 2)), path)


def write_gmvi(path, ks=3, codes=((0, 1), (2, 0))):
    centroids = np.arange(2 * ks, dtype=np.float32).reshape(2, ks, 1)
    save_index(Codebook(centroids), PQCodes(np.array(codes, dtype=np.uint16)), path)


# name: (writer, loader, header bytes)
FORMATS = {
    "embx": (write_embx, load_embeddings, 24),
    "gmvi": (write_gmvi, load_index, 28),
}


def flip(blob, at):
    return blob[:at] + bytes([blob[at] ^ 0x20]) + blob[at + 1:]


def set_u32(blob, at, value):
    return blob[:at] + struct.pack("<I", value) + blob[at + 4:]


# (id, mutate(blob) -> corrupt blob, message(header, size) for the original size)
CORRUPTIONS = [
    ("short-header", lambda b: b[:10],
     lambda h, n: f"truncated header, file ends at byte 10 but the header needs {h} bytes"),
    *[(f"magic-{i}", lambda b, i=i: flip(b, i), lambda h, n, i=i: f"bad magic at byte {i}, ")
      for i in range(4)],
    ("version", lambda b: set_u32(b, 4, 2), lambda h, n: "unsupported version 2 at byte 4"),
    ("one-short", lambda b: b[:-1],
     lambda h, n: f"wrong size at byte {n - 1}, expected {n} bytes total, found {n - 1}"),
    ("one-extra", lambda b: b + b"\x00",
     lambda h, n: f"wrong size at byte {n}, expected {n} bytes total, found {n + 1}"),
]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("mutate, message", [c[1:] for c in CORRUPTIONS], ids=[c[0] for c in CORRUPTIONS])
def test_both_loaders_report_a_corruption_alike(tmp_path, fmt, mutate, message):
    write, load, header = FORMATS[fmt]
    path = tmp_path / f"file.{fmt}"
    write(path)
    blob = path.read_bytes()
    path.write_bytes(mutate(blob))
    with pytest.raises(FormatError) as err:
        load(path)
    assert str(err.value).startswith(f"{path}: {message(header, len(blob))}")


@pytest.mark.parametrize("fmt, offset, value", [
    ("embx", 16, 0),  # dim
    ("gmvi", 8, 0),  # num_subspaces
    ("gmvi", 12, 0),  # subspace_dim
    ("gmvi", 16, 0),  # codebook_size
    ("gmvi", 16, 65537),
])
def test_field_checks_name_their_byte(tmp_path, fmt, offset, value):
    write, load, _ = FORMATS[fmt]
    path = tmp_path / f"file.{fmt}"
    write(path)
    path.write_bytes(set_u32(path.read_bytes(), offset, value))
    with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: .*byte {offset}\b"):
        load(path)


# the exact scans, each reading --train from an EMBX file a tile at a
# time: (id, argv, the output file it would write or None for stdout)
EXACT_SCANS = [
    ("match", ["match", "--train", "train.embx", "--gen", "gen.embx", "--k", 3, "--output", "out.jsonl"],
     "out.jsonl"),
    ("value-inline", ["value", "--inline", "--train", "train.embx", "--gen", "gen.embx", "--k", 3,
                      "--output", "v.csv", "--summary", "s.json"], "v.csv"),
    ("eval-recall", ["eval-recall", "--train", "train.embx", "--gen", "gen.embx", "--index", "i.gmvi",
                     "--k", 3], None),
]

# damage to a training file: its id -> (mutate(blob), message(header, size))
TRAIN_DAMAGE = {
    **{name: (mutate, message) for name, mutate, message in CORRUPTIONS},
    "dtype": (lambda b: set_u32(b, 20, 2), lambda h, n: "unsupported dtype tag 2 at byte 20"),
}


@pytest.mark.parametrize("argv, output", [c[1:] for c in EXACT_SCANS], ids=[c[0] for c in EXACT_SCANS])
@pytest.mark.parametrize("damage", [*TRAIN_DAMAGE, "nan-last-tile", "directory"])
def test_a_damaged_training_file_fails_each_exact_scan_with_one_line(tmp_path, monkeypatch, argv, output,
                                                                    damage):
    """Each exact scan reads --train a tile at a time, here ten tiles of
    4 rows, so a non-finite value in row 38 is found only in the last
    tile; every damage exits 2 with the line ``load_embeddings`` gives
    for the file, and writes no output and leaves no temporary file.
    A non-finite value's line names the file, then its row and column."""
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((40, 4)).astype(np.float32)
    save_embeddings(EmbeddingMatrix(rows), "train.embx")
    save_embeddings(EmbeddingMatrix(rng.standard_normal((5, 4)).astype(np.float32)), "gen.embx")
    codebook, _ = train_codebooks(EmbeddingMatrix(rows), PQConfig(2, 4, 3, seed=0))
    save_index(codebook, encode(EmbeddingMatrix(rows), codebook), "i.gmvi")
    path = tmp_path / "train.embx"
    if damage == "directory":
        path.unlink()
        path.mkdir()
        message = "[Errno 21] Is a directory: 'train.embx'"
    elif damage == "nan-last-tile":
        bad = rows.copy()
        bad[38, 2] = np.nan
        path.write_bytes(path.read_bytes()[:24] + bad.tobytes())
        message = "train.embx: non-finite value at row 38, column 2"
    else:
        mutate, text = TRAIN_DAMAGE[damage]
        blob = path.read_bytes()
        path.write_bytes(mutate(blob))
        message = f"train.embx: {text(24, len(blob))}"
    before = sorted(p.name for p in tmp_path.iterdir())
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", 8 * 4 * 4 * 4)
    r = run_cli(*argv)
    assert_one_error_line(r)
    # a bad magic's message ends with the bytes expected and found
    assert r.stderr.startswith(f"genval: error: {message}")
    assert r.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    if output is not None:
        assert not (tmp_path / output).exists()


@pytest.mark.parametrize("ks, width", [(256, 1), (257, 2)])
def test_index_code_width_follows_the_documented_layout(tmp_path, ks, width):
    """28-byte header, M*Ks*subspace_dim float32 centroids, then count*M
    codes of one byte up to 256 centroids and two bytes beyond."""
    path = tmp_path / "i.gmvi"
    codes = [(0, ks - 1), (ks - 1, 1), (2, 0)]
    write_gmvi(path, ks, codes)
    assert path.stat().st_size == 28 + 2 * ks * 1 * 4 + 3 * 2 * width
    _, back = load_index(path)
    assert back.codes.dtype.itemsize == width
    np.testing.assert_array_equal(back.codes, codes)



def test_index_non_finite_centroid_names_the_file(tmp_path):
    path = tmp_path / "i.gmvi"
    write_gmvi(path)
    blob = path.read_bytes()
    path.write_bytes(blob[:28] + struct.pack("<f", np.nan) + blob[32:])
    with pytest.raises(CorruptionError, match=rf"^{re.escape(str(path))}: codebook contains non-finite"):
        load_index(path)


# ------------------------------------------------------------ atomic writes


class FailsAfterHeader:
    """A file whose writes after the first, the header, fail as a full
    disk does."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(data)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("existed", [False, True])
def test_a_failed_write_leaves_the_target_as_it_was(tmp_path, monkeypatch, fmt, existed):
    write = FORMATS[fmt][0]
    target = tmp_path / f"out.{fmt}"
    if existed:
        target.write_bytes(b"old bytes")
    monkeypatch.setattr(embeddings, "open", lambda *a, **kw: FailsAfterHeader(open(*a, **kw)),
                        raising=False)
    with pytest.raises(OSError, match="No space left on device"):
        write(target)
    assert sorted(p.name for p in tmp_path.iterdir()) == ([target.name] if existed else [])
    if existed:
        assert target.read_bytes() == b"old bytes"


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_write_replaces_the_target_and_leaves_no_temporary(tmp_path, fmt):
    write, load, _ = FORMATS[fmt]
    target = tmp_path / f"out.{fmt}"
    target.write_bytes(b"old bytes")
    write(target)
    load(target)
    assert [p.name for p in tmp_path.iterdir()] == [target.name]


def test_a_write_to_a_missing_directory_names_the_target(tmp_path):
    target = tmp_path / "missing" / "out.embx"
    with pytest.raises(FileNotFoundError) as err:
        write_embx(target)
    assert err.value.filename == str(target)


def test_an_embx_block_short_of_its_header_keeps_the_target(tmp_path):
    """A ``writing_embx`` block that writes fewer rows than its header
    says is an internal error: the target keeps its old bytes and no
    temporary file is left."""
    target = tmp_path / "out.embx"
    target.write_bytes(b"old bytes")
    message = rf"^{re.escape(str(target))}: 2 rows written, the header says 3$"
    with pytest.raises(InternalError, match=message):
        with embeddings.writing_embx(target, 3, 2) as write:
            write(np.zeros((2, 2), dtype=np.float32))
    assert [p.name for p in tmp_path.iterdir()] == [target.name]
    assert target.read_bytes() == b"old bytes"


def test_rows_of_a_file_truncated_while_open_name_where_it_ends(tmp_path):
    """``open_rows`` checks the size once, at open; a file cut short
    later fails the first fill past its new end, naming that byte."""
    path = tmp_path / "t.embx"
    save_embeddings(EmbeddingMatrix(np.arange(12, dtype=np.float32).reshape(6, 2)), path)
    block = np.empty((2, 2), dtype=np.float32)
    with embeddings.open_rows(path) as rows:
        os.truncate(path, 24 + 3 * 8 + 4)  # three and a half rows
        rows.fill(block, 0, 2)
        np.testing.assert_array_equal(block, [[0, 1], [2, 3]])
        message = rf"^{re.escape(str(path))}: file ends at byte 52 while rows are read$"
        with pytest.raises(FormatError, match=message):
            rows.fill(block, 2, 4)


def test_a_pipe_is_written_in_place(tmp_path):
    """A target that is no regular file (a pipe, /dev/null) is not
    replaced by one."""
    write_embx(tmp_path / "want.embx")
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()), daemon=True)
    reader.start()
    write_embx(pipe)
    reader.join(10)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(pipe.stat().st_mode)
    assert got == [(tmp_path / "want.embx").read_bytes()]


@pytest.mark.parametrize("flag", ["--train", "--gen"])
def test_an_embx_input_is_read_whole_from_a_pipe(tmp_path, monkeypatch, flag):
    """An EMBX input that is no regular file (a pipe) is read whole,
    through ``read_container``, and matches as the regular file does."""
    rng = np.random.default_rng(3)
    inputs = {"--train": tmp_path / "train.embx", "--gen": tmp_path / "gen.embx"}
    for path, count in zip(inputs.values(), (40, 9)):
        save_embeddings(EmbeddingMatrix(rng.standard_normal((count, 5)).astype(np.float32)), path)
    want = run_cli("match", "--train", inputs["--train"], "--gen", inputs["--gen"], "--k", 3)
    assert want.code == 0 and want.stdout.count("\n") == 9
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    read = []
    read_container = embeddings.read_container
    monkeypatch.setattr(embeddings, "read_container",
                        lambda path, *a: read.append(path) or read_container(path, *a))
    writer = threading.Thread(target=lambda: pipe.write_bytes(inputs[flag].read_bytes()), daemon=True)
    writer.start()
    got = run_cli("match", *(x for f, p in inputs.items() for x in (f, pipe if f == flag else p)), "--k", 3)
    writer.join(10)
    assert not writer.is_alive()
    assert pipe in read
    assert (got.code, got.stdout, got.stderr) == (0, want.stdout, "")


# every text output and the file whose write is made to fail: (id, argv)
TEXT_OUTPUTS = [
    ("match", "out.jsonl", ["match", "--train", "train.embx", "--gen", "gen.embx", "--k", 2,
                            "--output", "out.jsonl"]),
    ("value", "v.csv", ["value", "--inline", "--train", "train.embx", "--gen", "gen.embx",
                        "--k", 2, "--output", "v.csv"]),
    ("summary", "s.json", ["value", "--inline", "--train", "train.embx", "--gen", "gen.embx",
                           "--k", 2, "--output", "-", "--summary", "s.json"]),
    ("assignment", "a.json", ["wasserstein", "--source", "train.embx", "--target", "train.embx",
                              "--assignment", "a.json"]),
    ("partition", "partition.json", ["synth", "--out-dir", ".", "--dim", 2, "--n-per-split", 3,
                                     "--m", 2]),
    ("manifest", "experiment.json", ["synth", "--out-dir", ".", "--dim", 2, "--n-per-split", 3,
                                     "--m", 2]),
]


class FailsMidway:
    """A text file whose first write stores half its text, then fails as
    a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.fixture
def text_run(tmp_path, monkeypatch):
    """Run the CLI in a directory holding train.embx and gen.embx."""
    rows = np.arange(12, dtype=np.float32).reshape(6, 2)
    save_embeddings(EmbeddingMatrix(rows), tmp_path / "train.embx")
    save_embeddings(EmbeddingMatrix(rows[::2] + 0.25), tmp_path / "gen.embx")
    monkeypatch.chdir(tmp_path)
    return lambda argv: run_cli(*argv)


@pytest.mark.parametrize("target, argv", [c[1:] for c in TEXT_OUTPUTS], ids=[c[0] for c in TEXT_OUTPUTS])
@pytest.mark.parametrize("existed", [False, True])
def test_a_failed_text_write_leaves_the_target_as_it_was(tmp_path, monkeypatch, text_run, target, argv,
                                                         existed):
    before = sorted(p.name for p in tmp_path.iterdir())
    if existed:
        (tmp_path / target).write_bytes(b"old bytes")
    real_open = open

    def failing_open(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return FailsMidway(fh) if os.path.basename(path).startswith(f".{target}.") else fh

    monkeypatch.setattr(embeddings, "open", failing_open, raising=False)
    assert_one_error_line(text_run(argv), "No space left on device")
    left = {p.name for p in tmp_path.iterdir()} - set(before)
    assert not {name for name in left if name.endswith(".tmp")}
    if existed:
        assert (tmp_path / target).read_bytes() == b"old bytes"
    else:
        assert target not in left


@pytest.mark.parametrize("target, argv", [c[1:] for c in TEXT_OUTPUTS], ids=[c[0] for c in TEXT_OUTPUTS])
def test_a_text_write_replaces_the_target_and_leaves_no_temporary(tmp_path, text_run, target, argv):
    (tmp_path / target).write_bytes(b"old bytes")
    assert text_run(argv).code == 0
    assert (tmp_path / target).read_bytes() != b"old bytes"
    assert not [p.name for p in tmp_path.iterdir() if p.name.startswith(".")]


def test_values_are_not_written_without_their_summary(tmp_path, text_run):
    r = text_run(["value", "--inline", "--train", "train.embx", "--gen", "gen.embx", "--k", 2,
                  "--output", "v.csv", "--summary", "missing/s.json"])
    assert_one_error_line(r, "missing/s.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gen.embx", "train.embx"]


def test_a_text_output_to_a_device_is_written_in_place(text_run):
    assert text_run(["match", "--train", "train.embx", "--gen", "gen.embx", "--k", 2,
                     "--output", os.devnull]).code == 0


# ---------------------------------------------------------- mutation suite

# one child process that runs main() on each argv sent to it, one JSON
# list a line, and answers [exit code, stderr]; an exception main() lets
# out ends it, with the traceback in its own stderr
CLI_CHILD = """
import contextlib, io, json, sys
from genval.cli import main
for line in sys.stdin:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(json.loads(line))
    print(json.dumps([code, err.getvalue()]), flush=True)
"""

# (offset, width) of each header field past the magic
HEADER_FIELDS = {
    "embx": [(4, 4), (8, 8), (16, 4), (20, 4)],  # version, count, dim, dtype
    "gmvi": [(4, 4), (8, 4), (12, 4), (16, 4), (20, 8)],  # version, M, subspace_dim, Ks, count
}


@pytest.fixture(scope="module")
def mutation_runs(tmp_path_factory):
    """Valid files, the runs that read a mutated one (``target``), and a
    function that runs them in the child."""
    d = tmp_path_factory.mktemp("binary")
    rng = np.random.default_rng(7)
    train = EmbeddingMatrix(rng.standard_normal((40, 8)).astype(np.float32))
    save_embeddings(train, d / "train.embx")
    save_embeddings(EmbeddingMatrix(rng.standard_normal((6, 8)).astype(np.float32)), d / "gen.embx")
    codebook, _ = train_codebooks(train, PQConfig(2, 4, 3, seed=0))
    save_index(codebook, encode(train, codebook), d / "index.gmvi")
    train, gen, index = d / "train.embx", d / "gen.embx", d / "index.gmvi"
    target = {fmt: d / f"target.{fmt}" for fmt in FORMATS}
    runs = {
        "gmvi": [["match", "--mode", "pq", "--index", target["gmvi"], "--gen", gen, "--k", 3],
                 ["eval-recall", "--train", train, "--gen", gen, "--index", target["gmvi"], "--k", 3],
                 ["value", "--inline", "--mode", "pq", "--index", target["gmvi"], "--gen", gen]],
        "embx": [["match", "--mode", "pq", "--index", index, "--gen", target["embx"], "--k", 3],
                 ["eval-recall", "--train", target["embx"], "--gen", gen, "--index", index, "--k", 3],
                 ["value", "--inline", "--train", target["embx"], "--gen", gen, "--k", 3]],
    }
    with open(d / "child.err", "w+", encoding="utf-8") as err:
        child = subprocess.Popen([sys.executable, "-c", CLI_CHILD], stdin=subprocess.PIPE,
                                 stdout=subprocess.PIPE, stderr=err, text=True, env=child_env())

        def run(argv):
            child.stdin.write(json.dumps([str(a) for a in argv]) + "\n")
            child.stdin.flush()
            assert select.select([child.stdout], [], [], 60)[0], "the child gave no answer in 60 s"
            reply = child.stdout.readline()
            err.seek(0)
            assert reply, f"the child died: {err.read()}"
            code, stderr = json.loads(reply)
            return CliRun(code, "", stderr)

        try:
            yield {fmt: (path.read_bytes(), target[fmt], runs[fmt])
                   for fmt, path in (("embx", train), ("gmvi", index))}, run
        finally:
            child.stdin.close()
            child.wait(timeout=60)
            child.stdout.close()
        err.seek(0)
        assert err.read() == ""


@st.composite
def binary_mutations(draw, data: bytes, fields) -> bytes:
    """``data`` after one or two byte flips, truncations, extensions or
    header fields set to 0, 2**32 - 1 or 2**64 - 1 (as wide as they fit)."""
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["flip", "truncate", "extend", "field"]))
        if kind == "flip" and data:
            at = draw(st.integers(0, len(data) - 1))
            data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
        elif kind == "truncate":
            data = data[:draw(st.integers(0, len(data)))]
        elif kind == "extend":
            data = data + draw(st.binary(min_size=1, max_size=64))
        elif kind == "field":
            at, width = draw(st.sampled_from(fields))
            value = draw(st.sampled_from([0, 2**32 - 1, 2**64 - 1])) % 2 ** (8 * width)
            data = data[:at] + value.to_bytes(width, "little") + data[at + width:]
    return data


@pytest.mark.parametrize("fmt", FORMATS)
@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_containers_exit_zero_or_two_with_one_line(mutation_runs, fmt, data):
    """Sizes are checked against the file before any array is made, so no
    header field, however large, allocates."""
    inputs, run = mutation_runs
    valid, target, argvs = inputs[fmt]
    target.write_bytes(data.draw(binary_mutations(valid, HEADER_FIELDS[fmt])))
    for argv in argvs:
        r = run(argv)
        assert r.code in (0, 2), r.stderr
        if r.code == 2:
            assert_one_error_line(r)
        else:
            assert r.stderr == ""
