import errno
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genval.cli as cli
import reference
from conftest import (BLAS_ENV, assert_one_error_line, child_env, make_value_csv, on_cpus, run_cli,
                      run_cli_process, traced_peak, write_embx)
from genval import embeddings, load_embeddings, pq, save_embeddings, search, stats, valuation
from genval.errors import GenvalError, InternalError


@pytest.fixture
def exp_dir(tmp_path):
    """A small seeded experiment directory, plus its path map."""
    r = run_cli(
        "synth", "--out-dir", tmp_path / "exp", "--dim", 8, "--n-per-split", 30,
        "--m", 40, "--seed", 5,
    )
    assert r.code == 0
    return tmp_path / "exp"


def test_synth_writes_experiment(tmp_path):
    out = tmp_path / "exp"
    r = run_cli("synth", "--out-dir", out, "--dim", 6, "--n-per-split", 10, "--m", 8)
    assert r.code == 0
    manifest = json.loads(r.stdout)
    assert manifest["counts"]["x_train"] == 20
    assert (out / "x_hat.embx").exists()
    assert load_embeddings(out / "x_hat.embx").count == 8


def test_synth_is_deterministic(tmp_path):
    for sub in ("a", "b"):
        r = run_cli(
            "synth", "--out-dir", tmp_path / sub, "--dim", 6,
            "--n-per-split", 8, "--m", 5, "--seed", 77,
        )
        assert r.code == 0
    for name in ("x_v1.embx", "x_v2.embx", "x_train.embx", "x_hat.embx",
                 "partition.json", "experiment.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_synth_missing_out_dir():
    r = run_cli("synth", "--dim", 4)
    assert r.code == 2
    assert "out-dir" in r.stderr


# -------------------------------------------------------------- build-index


def test_build_index_and_quantization_report(exp_dir, tmp_path):
    idx = tmp_path / "i.gmvi"
    r = run_cli(
        "build-index", "--train", exp_dir / "x_train.embx", "--output", idx,
        "--num-subspaces", 2, "--codebook-size", 8, "--kmeans-iters", 5,
    )
    assert r.code == 0
    assert r.stdout.startswith("quantization_error=")
    assert float(r.stdout.split("=")[1]) >= 0.0
    assert idx.read_bytes()[:4] == b"GMVI"


def test_build_index_encodes_once(exp_dir, tmp_path, monkeypatch):
    encoded = []
    encode = pq.encode
    monkeypatch.setattr(pq, "encode", lambda *a: encoded.append(a) or encode(*a))
    r = run_cli(
        "build-index", "--train", exp_dir / "x_train.embx", "--output", tmp_path / "i.gmvi",
        "--num-subspaces", 2, "--codebook-size", 8, "--kmeans-iters", 5,
    )
    assert r.code == 0
    assert len(encoded) == 1
    train = load_embeddings(exp_dir / "x_train.embx")
    codebook, _ = pq.load_index(tmp_path / "i.gmvi")
    assert r.stdout == "quantization_error=%.9g\n" % pq.quantization_error(train, codebook)


def test_build_index_rejects_oversized_codebook(exp_dir, tmp_path):
    r = run_cli(
        "build-index", "--train", exp_dir / "x_train.embx",
        "--output", tmp_path / "i.gmvi", "--codebook-size", 100_000,
    )
    assert r.code == 2
    assert "codebook_size" in r.stderr


def test_build_index_checks_every_input_before_it_trains(tmp_path, rng, monkeypatch):
    """A missing --output is reported before training, which takes
    minutes at scale, but after --train is read whole and the config is
    checked, so each earlier message keeps its precedence."""
    def no_training(*args):
        raise AssertionError("train_codebooks ran")

    monkeypatch.setattr(pq, "train_codebooks", no_training)
    rows = rng.standard_normal((40, 8)).astype(np.float32)
    train = write_embx(tmp_path / "t.embx", rows)
    rows[39, 1] = np.nan
    bad = tmp_path / "bad.embx"
    bad.write_bytes(train.read_bytes()[:24] + rows.tobytes())
    for path, flags, message in [
        (bad, ["--codebook-size", 100], f"{bad}: non-finite value at row 39, column 1"),
        (train, ["--codebook-size", 100], "codebook_size 100 exceeds training count 40"),
        (train, ["--codebook-size", 4], "missing required input: --output"),
    ]:
        assert_one_error_line(run_cli("build-index", "--train", path, *flags), message)


def test_build_index_is_deterministic(exp_dir, tmp_path):
    outs = []
    for name in ("1.gmvi", "2.gmvi"):
        r = run_cli(
            "build-index", "--train", exp_dir / "x_train.embx",
            "--output", tmp_path / name,
            "--num-subspaces", 2, "--codebook-size", 16, "--kmeans-iters", 6,
        )
        assert r.code == 0
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]


# -------------------------------------------------------------------- match


def test_match_self_identity(tmp_path):
    train = write_embx(tmp_path / "t.embx", np.diag([1.0, 2.0, 3.0]))
    r = run_cli("match", "--train", train, "--gen", train, "--k", 1)
    assert r.code == 0
    lines = r.stdout.strip().split("\n")
    assert len(lines) == 3
    for j, line in enumerate(lines):
        obj = json.loads(line)
        assert obj["gen_index"] == j
        assert obj["matches"] == [{"train_index": j, "distance": 0}]


def test_match_pq_equals_exact_on_zero_error_codebook(tmp_path, rng):
    # six distinct rows and six centroids: the codes decode to the rows,
    # so the PQ route's distances are the exact route's, bit for bit
    train = write_embx(tmp_path / "t.embx", rng.standard_normal((6, 4)))
    gen = write_embx(tmp_path / "g.embx", rng.standard_normal((5, 4)))
    idx = tmp_path / "i.gmvi"
    r = run_cli(
        "build-index", "--train", train, "--output", idx,
        "--num-subspaces", 2, "--codebook-size", 6, "--kmeans-iters", 8,
    )
    assert r.code == 0
    exact = run_cli("match", "--train", train, "--gen", gen, "--k", 3)
    approx = run_cli("match", "--mode", "pq", "--index", idx, "--gen", gen, "--k", 3)
    assert exact.code == approx.code == 0
    assert exact.stdout == approx.stdout


def test_match_malformed_embx_names_offset(tmp_path):
    bad = tmp_path / "bad.embx"
    bad.write_bytes(b"EMBQ" + b"\x00" * 24)
    r = run_cli("match", "--train", bad, "--gen", bad, "--k", 1)
    assert r.code == 2
    assert "byte 3" in r.stderr


def test_match_cpus_do_not_change_bytes(exp_dir, monkeypatch):
    """One CPU and eight, seven of them forked scan workers, print the
    same bytes."""
    args = ("match", "--train", exp_dir / "x_train.embx",
            "--gen", exp_dir / "x_hat.embx", "--k", 5)
    (one, _), (eight, forks) = on_cpus(monkeypatch, lambda: run_cli(*args), 1, 8)
    assert one.code == eight.code == 0 and forks == 7
    assert one.stdout == eight.stdout


def test_workers_split_rows_across_scan_blocks(exp_dir, monkeypatch):
    """60 training rows of dim 8 and 40 queries: 8 tiles of at most 8
    training rows (an eighth of the budget, float32), each against
    blocks of 4 query rows (a quarter: 9 bytes a pair and 4 bytes an
    entry of the query row), put every worker boundary of three CPUs
    somewhere inside or between blocks. The EMBX files, read a tile at a
    time, and the same rows as CSV, parsed whole, give the same bytes."""
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", 8 * 8 * 4 * 8)
    assert embeddings.block_rows(9 * 8 + 4 * 8, embeddings.BLOCK_BYTES // 4) == 4
    for name in ("x_train", "x_hat"):
        save_embeddings(load_embeddings(exp_dir / f"{name}.embx"), exp_dir / f"{name}.csv", format="csv")
    for command in (["match"], ["value", "--inline"]):
        runs = [run for ext, fmt in (("embx", "binary"), ("csv", "csv"))
                for run in on_cpus(monkeypatch, lambda: run_cli(
                    *command, "--train", exp_dir / f"x_train.{ext}", "--gen", exp_dir / f"x_hat.{ext}",
                    "--format", fmt, "--k", 5), 1, 3)]
        assert [(r.code, forks) for r, forks in runs] == [(0, 0), (0, 2)] * 2
        assert len({r.stdout for r, _ in runs}) == 1


# The CLI with os.fork counted. argv[1] is "plain" (nothing faked: the
# CPUs the process may run on are cut to the first argv[2] of them by
# its affinity, before numpy starts BLAS), "fork" (worker_count sees
# argv[2] CPUs and /proc/self/task lists one OS thread, so that the scan
# forks whatever threads BLAS runs) or "kill" (that, and each forked
# scan worker kills itself). It leaves a line in stdout's buffer, which
# a forked child that flushed the buffers it inherited would print
# again; it writes to stderr the CPUs it ran on, whether the process ran
# no other OS thread after the command and how often it forked, and
# exits 9 if the command leaves a child process behind.
SCAN_CHILD = """
import os, signal, sys
mode, cpus = sys.argv[1], int(sys.argv[2])
if mode == "plain":
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:cpus])
else:
    os.sched_getaffinity = lambda pid: set(range(cpus))
from genval import search, workers
from genval.cli import main
caller, fork, listdir, scan = os.getpid(), os.fork, os.listdir, search.nearest_rows
forks = []

def counted_fork():
    forks.append(1)
    return fork()

def killed_off_the_caller(*args, **kwargs):
    if os.getpid() != caller:
        os.kill(os.getpid(), signal.SIGKILL)
    return scan(*args, **kwargs)

os.fork = counted_fork
if mode != "plain":
    os.listdir = lambda path: ["1"] if path == "/proc/self/task" else listdir(path)
if mode == "kill":
    search.nearest_rows = killed_off_the_caller
sys.stdout.write("start\\n")
code = main(sys.argv[3:])
sys.stderr.write(f"cpus={len(os.sched_getaffinity(0))} lone={int(workers.lone_os_thread())} forks={len(forks)}\\n")
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(code)
sys.exit(9)
"""


def run_scan_child(mode, cpus, *argv, blas_threads=None):
    """SCAN_CHILD in a child process on ``cpus`` CPUs, with BLAS at its
    default thread count or pinned to ``blas_threads``, and stdout
    block-buffered."""
    env = {name: value for name, value in child_env().items() if name not in BLAS_ENV}
    if blas_threads is not None:
        env.update(dict.fromkeys(BLAS_ENV, str(blas_threads)))
    return subprocess.run([sys.executable, "-c", SCAN_CHILD, mode, str(cpus), *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.fixture
def scan_inputs(tmp_path, rng):
    """Training rows as EMBX, generated rows and a PQ index of them."""
    train = write_embx(tmp_path / "train.embx", rng.standard_normal((3000, 16)))
    gen = write_embx(tmp_path / "gen.embx", rng.standard_normal((60, 16)))
    index = tmp_path / "index.gmvi"
    assert run_cli("build-index", "--train", train, "--output", index, "--num-subspaces", 4,
                   "--codebook-size", 16, "--kmeans-iters", 2).code == 0
    return train, gen, index


@pytest.mark.parametrize("blas_threads", [None, 1])
@pytest.mark.parametrize("command, scans", [("match", 1), ("value", 1), ("eval-recall", 2)])
def test_the_scan_in_a_child_process_is_the_same_on_one_and_two_workers(scan_inputs, tmp_path, blas_threads,
                                                                        command, scans):
    """The real CLI, with BLAS at its default thread count or pinned to 1,
    on one CPU and on two, set by its affinity: on two, it forks one
    worker a scan only where no other OS thread runs, which pinned BLAS
    leaves so, and writes one CPU's bytes, printing each line once."""
    train, gen, index = scan_inputs
    runs = []
    for cpus in (1, 2):
        out = tmp_path / f"out{cpus}"
        argv = {"match": ["match", "--output", out],
                "value": ["value", "--inline", "--output", out],
                "eval-recall": ["eval-recall", "--index", index]}[command]
        done = run_scan_child("plain", cpus, *argv, "--train", train, "--gen", gen, "--k", 5,
                              blas_threads=blas_threads)
        got = re.fullmatch(r"cpus=(\d+) lone=([01]) forks=\d+\n", done.stderr)
        assert done.returncode == 0 and got, done.stderr
        assert int(got[1]) == min(cpus, len(os.sched_getaffinity(0)))
        forks = scans * (int(got[1]) - 1) * int(got[2])
        assert done.stderr == f"cpus={got[1]} lone={got[2]} forks={forks}\n"
        assert done.stdout.count("start\n") == 1
        runs.append((done.stdout, out.read_bytes() if out.exists() else None))
        if blas_threads == 1:
            assert got[2] == "1"
    assert runs[0] == runs[1]


def test_a_non_finite_row_through_a_forked_scan_worker_is_one_workers_error(tmp_path, rng):
    train = write_embx(tmp_path / "train.embx", rng.standard_normal((20000, 8)))
    with open(train, "r+b") as fh:  # the header is 24 bytes, a value 4
        fh.seek(24 + (12345 * 8 + 7) * 4)
        fh.write(np.float32(np.nan).tobytes())
    gen = write_embx(tmp_path / "gen.embx", rng.standard_normal((8, 8)))
    one, two = (run_scan_child(mode, cpus, "match", "--train", train, "--gen", gen, "--k", 3)
                for mode, cpus in (("plain", 1), ("fork", 2)))
    assert (one.returncode, two.returncode) == (2, 2)
    one, two = one.stderr.splitlines(), two.stderr.splitlines()
    assert one[0] == two[0] == f"genval: error: {train}: non-finite value at row 12345, column 7"
    assert one[1].endswith(" forks=0") and two[1] == "cpus=2 lone=1 forks=1"


def test_a_killed_scan_worker_is_an_internal_error(scan_inputs, tmp_path):
    train, gen, _ = scan_inputs
    out = tmp_path / "values.csv"
    done = run_scan_child("kill", 2, "value", "--inline", "--train", train, "--gen", gen, "--k", 5,
                          "--output", out)
    assert (done.returncode, done.stdout, done.stderr.splitlines()) == (3, "start\n", [
        "genval: internal error: the worker process running items 1 ended without a result (killed by SIGKILL)",
        "cpus=2 lone=1 forks=1"])
    assert not out.exists() and not list(tmp_path.glob(".*"))


def test_match_output_flag_matches_stdout(exp_dir, tmp_path):
    out = tmp_path / "m.jsonl"
    direct = run_cli("match", "--train", exp_dir / "x_train.embx",
                     "--gen", exp_dir / "x_hat.embx", "--k", 3)
    to_file = run_cli("match", "--train", exp_dir / "x_train.embx",
                      "--gen", exp_dir / "x_hat.embx", "--k", 3, "--output", out)
    assert direct.code == to_file.code == 0
    assert out.read_text() == direct.stdout


# -------------------------------------------------------------------- value


HAND_MATCHES = (
    '{"gen_index": 0, "matches": [{"train_index": 0, "distance": 1}, '
    '{"train_index": 1, "distance": 2}]}\n'
    '{"gen_index": 1, "matches": [{"train_index": 2, "distance": 1}, '
    '{"train_index": 3, "distance": 1}]}\n'
)


def test_value_hand_instance_from_stdin():
    r = run_cli("value", "--matches", "-", "--n", 4, stdin=HAND_MATCHES)
    assert r.code == 0
    lines = r.stdout.strip().split("\n")
    assert lines[0] == "train_index,value,rank"
    rows = [line.split(",") for line in lines[1:]]
    values = [float(v) for _, v, _ in rows]
    ranks = [int(k) for _, _, k in rows]
    np.testing.assert_allclose(values, [0.731059, 0.268941, 0.5, 0.5], atol=1e-6)
    assert ranks == [1, 4, 2, 3]
    assert sum(values) == pytest.approx(2.0, abs=2e-6)


def test_value_mass_conservation_and_zero_rows(exp_dir, tmp_path):
    out = tmp_path / "v.csv"
    r = run_cli(
        "value", "--inline", "--train", exp_dir / "x_train.embx",
        "--gen", exp_dir / "x_hat.embx", "--k", 4, "--output", out,
    )
    assert r.code == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert len(rows) == 60
    total = sum(float(v) for _, v, _ in rows)
    assert abs(total - 40) <= 1e-6 * 40
    # x_hat is drawn from split 1 only, so plenty of split-2 rows never match
    zero_rows = [int(i) for i, v, _ in rows if float(v) == 0.0]
    assert any(int(i) >= 30 for i in zero_rows)


def test_value_pipe_equals_inline(exp_dir, tmp_path):
    matched = run_cli("match", "--train", exp_dir / "x_train.embx",
                      "--gen", exp_dir / "x_hat.embx", "--k", 5)
    assert matched.code == 0
    piped = run_cli("value", "--matches", "-", "--n", 60, stdin=matched.stdout)
    inline = run_cli("value", "--inline", "--train", exp_dir / "x_train.embx",
                     "--gen", exp_dir / "x_hat.embx", "--k", 5)
    assert piped.code == inline.code == 0
    assert piped.stdout == inline.stdout


def test_values_csv_equals_the_per_line_writer(tmp_path):
    """The values CSV, written with one format call, holds the bytes of
    a line-by-line ``str.format`` writer: zero values, a lone match's
    integral 1, equal splits and softmax fractions."""
    rng = np.random.default_rng(5)
    m, k, n = 50, 4, 300
    dist = np.sort(rng.uniform(0, 3, (m, k)), axis=1)
    dist[:5] = 0.0  # four-way ties: 0.25 each
    idx = rng.integers(0, n, (m, k))
    idx[5:10] = idx[5:10, :1]  # one row four times: credit exactly 1
    matches = tmp_path / "m.jsonl"
    matches.write_text(reference.match_jsonl(idx, dist), encoding="utf-8")
    r = run_cli("value", "--matches", matches, "--n", n, "--output", tmp_path / "v.csv")
    assert r.code == 0
    with open(matches, encoding="utf-8") as fh:
        result = valuation.aggregate_values(search.read_match_jsonl(fh), n)
    rank = np.empty(n, dtype=np.int64)
    rank[result.ranking] = np.arange(1, n + 1)
    want = "train_index,value,rank\n" + "".join(
        "{},{:.9g},{}\n".format(i, v, r) for i, (v, r) in enumerate(zip(result.values.tolist(), rank.tolist())))
    assert (tmp_path / "v.csv").read_text(encoding="utf-8") == want


def test_value_summary_file(exp_dir, tmp_path):
    summary = tmp_path / "s.json"
    r = run_cli(
        "value", "--inline", "--train", exp_dir / "x_train.embx",
        "--gen", exp_dir / "x_hat.embx", "--k", 3,
        "--output", tmp_path / "v.csv", "--summary", summary,
    )
    assert r.code == 0
    s = json.loads(summary.read_text())
    assert (s["n"], s["m"], s["k"]) == (60, 40, 3)
    assert s["sum_values"] == pytest.approx(40.0, abs=1e-6 * 40)
    assert len(s["top_indices"]) == 10


def test_value_summary_dash_is_stdout(exp_dir, tmp_path, monkeypatch):
    """``--summary -`` names stdout, as every other ``-`` names a
    standard stream; the values go to their file."""
    (tmp_path / "work").mkdir()
    monkeypatch.chdir(tmp_path / "work")
    inputs = ("value", "--inline", "--train", exp_dir / "x_train.embx", "--gen", exp_dir / "x_hat.embx",
              "--k", 3)
    r = run_cli(*inputs, "--output", "v.csv", "--summary", "-")
    assert (r.code, r.stderr) == (0, "")
    assert sorted(os.listdir()) == ["v.csv"]
    assert run_cli(*inputs, "--output", "v2.csv", "--summary", "s.json").code == 0
    assert r.stdout == Path("s.json").read_text(encoding="utf-8")
    assert Path("v.csv").read_bytes() == Path("v2.csv").read_bytes()


@pytest.mark.parametrize("output", [None, "-"])
def test_value_refuses_summary_and_values_both_on_stdout(exp_dir, tmp_path, monkeypatch, output):
    """Refused before any input is read: the training file is missing."""
    (tmp_path / "work").mkdir()
    monkeypatch.chdir(tmp_path / "work")
    r = run_cli("value", "--inline", "--train", "missing.embx", "--gen", exp_dir / "x_hat.embx", "--k", 3,
                "--summary", "-", *(() if output is None else ("--output", output)))
    assert_one_error_line(r, "--summary -", "stdout")
    assert r.stdout == ""
    assert os.listdir() == []


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("summary", ["./o2.csv", "o2.csv", "link.csv"])
def test_value_refuses_a_summary_at_the_output_path(exp_dir, tmp_path, monkeypatch, summary, existing):
    """The values would be renamed over the summary: the run is refused
    before any input is read, and a file already at the path keeps its
    bytes."""
    monkeypatch.chdir(tmp_path)
    os.symlink("o2.csv", "link.csv")
    if existing:
        Path("o2.csv").write_bytes(b"old bytes\n")
    before = sorted(os.listdir())
    r = run_cli("value", "--inline", "--train", "missing.embx", "--gen", exp_dir / "x_hat.embx",
                "--k", 3, "--output", "o2.csv", "--summary", summary)
    assert_one_error_line(r, "--summary", "--output", "same file")
    assert r.stdout == ""
    assert sorted(os.listdir()) == before
    assert Path("o2.csv").exists() == existing
    if existing:
        assert Path("o2.csv").read_bytes() == b"old bytes\n"


def test_value_sized_by_train_equals_value_sized_by_n(exp_dir, tmp_path):
    matches = tmp_path / "m.jsonl"
    assert run_cli("match", "--train", exp_dir / "x_train.embx", "--gen", exp_dir / "x_hat.embx",
                   "--output", matches).code == 0
    by_n = run_cli("value", "--matches", matches, "--n", 60)
    by_train = run_cli("value", "--matches", matches, "--train", exp_dir / "x_train.embx")
    assert by_n.code == by_train.code == 0
    assert by_train.stdout == by_n.stdout and by_n.stdout.count("\n") == 61


@pytest.mark.parametrize("header", [False, True])
def test_value_sized_by_a_csv_train_equals_value_sized_by_n(exp_dir, tmp_path, header):
    matches = tmp_path / "m.jsonl"
    assert run_cli("match", "--train", exp_dir / "x_train.embx", "--gen", exp_dir / "x_hat.embx",
                   "--output", matches).code == 0
    train = tmp_path / "train.csv"
    save_embeddings(load_embeddings(exp_dir / "x_train.embx"), train, format="csv")
    if header:
        train.write_text("c" + ",c" * 7 + "\n" + train.read_text())
    flags = ["--header"] if header else []
    by_n = run_cli("value", "--matches", matches, "--n", 60)
    by_train = run_cli("value", "--matches", matches, "--train", train, "--format", "csv", *flags)
    assert by_n.code == by_train.code == 0
    assert by_train.stdout == by_n.stdout and by_n.stdout.count("\n") == 61


@pytest.mark.parametrize("header", [False, True])
def test_value_sized_by_a_csv_train_refuses_a_nan_field(tmp_path, rng, header):
    lines = [",".join(map(str, row)) for row in rng.standard_normal((5, 3)).tolist()]
    lines[3] = lines[3].split(",", 1)[0] + ",nan," + lines[3].rsplit(",", 1)[1]
    train = tmp_path / "train.csv"
    train.write_text("x,y,z\n" * header + "\n".join(lines) + "\n")
    flags = ["--header"] if header else []
    r = run_cli("value", "--matches", "-", "--train", train, "--format", "csv", *flags, stdin=HAND_MATCHES)
    assert_one_error_line(r)
    assert r.stderr == f"genval: error: {train}: non-finite value at row 3, column 1\n"


def test_value_sized_by_an_empty_train_exits_2(tmp_path):
    """A valid EMBX file of no rows is read as no tiles, then refused."""
    train = tmp_path / "train.embx"
    with embeddings.writing_embx(train, 0, 3):
        pass
    r = run_cli("value", "--matches", "-", "--train", train, stdin=HAND_MATCHES)
    assert_one_error_line(r)
    assert r.stderr == "genval: error: training count must be >= 1\n"


def test_value_sized_by_train_reads_one_tile_at_a_time(tmp_path, rng):
    """An EMBX --train is checked a tile at a time, never held whole; the
    bytes are those of --n."""
    train = write_embx(tmp_path / "train.embx", rng.standard_normal((4_000, 512)))
    gen = write_embx(tmp_path / "gen.embx", rng.standard_normal((5, 512)))
    matches = tmp_path / "m.jsonl"
    assert run_cli("match", "--train", train, "--gen", gen, "--k", 3, "--output", matches).code == 0
    by_n = run_cli("value", "--matches", matches, "--n", 4_000)
    runs = []
    peak = traced_peak(lambda: runs.append(run_cli("value", "--matches", matches, "--train", train)))
    assert by_n.code == runs[0].code == 0 and runs[0].stdout == by_n.stdout
    assert peak < 4_000 * 512 * 4 // 4, f"peak {peak / 2**20:.2f} MiB"


def test_value_sized_by_train_refuses_a_nan_in_the_last_tile(tmp_path, rng):
    """A NaN in the last of four tiles is the line the whole-file check gave."""
    rows = rng.standard_normal((3 * 2_048 + 5, 128))
    rows[-2, 7] = np.nan
    train = tmp_path / "train.embx"
    # writing_embx writes the rows unchecked, so the file holds the NaN
    with embeddings.writing_embx(train, len(rows), 128) as write:
        write(rows)
    r = run_cli("value", "--matches", "-", "--train", train, stdin=HAND_MATCHES)
    assert_one_error_line(r)
    assert r.stderr == f"genval: error: {train}: non-finite value at row {3 * 2_048 + 3}, column 7\n"


def test_value_needs_a_size():
    r = run_cli("value", "--matches", "-", stdin=HAND_MATCHES)
    assert r.code == 2
    assert "--n or --train" in r.stderr


def test_value_rejects_malformed_stream():
    r = run_cli("value", "--matches", "-", "--n", 4, stdin="not json\n")
    assert r.code == 2
    assert "line 1" in r.stderr


# ------------------------------------------------------------------ compare


def test_compare_identical_files_fails_to_reject(tmp_path):
    csv = make_value_csv(tmp_path / "v.csv", [0.9, 0.5, 0.1, 0.7])
    r = run_cli("compare", "--values-a", csv, "--values-b", csv)
    assert r.code == 0
    assert "t=0 " in r.stdout
    assert "p=0.5" in r.stdout
    assert "FAIL TO REJECT at alpha=0.01" in r.stdout


def test_compare_partition_flow(exp_dir, tmp_path):
    values = tmp_path / "v.csv"
    r = run_cli(
        "value", "--inline", "--train", exp_dir / "x_train.embx",
        "--gen", exp_dir / "x_hat.embx", "--k", 5, "--output", values,
    )
    assert r.code == 0
    r = run_cli("compare", "--values", values, "--partition", exp_dir / "partition.json")
    assert r.code == 0
    assert "group v1:" in r.stdout and "group v2:" in r.stdout
    assert "REJECT H0 at alpha=0.01" in r.stdout
    assert "FAIL TO REJECT" not in r.stdout


def test_compare_group_of_one_is_rejected(tmp_path):
    a = make_value_csv(tmp_path / "a.csv", [1.0])
    b = make_value_csv(tmp_path / "b.csv", [0.1, 0.2, 0.3])
    r = run_cli("compare", "--values-a", a, "--values-b", b)
    assert r.code == 2
    assert "sample too small" in r.stderr


@pytest.mark.parametrize("scale, message", [
    ("e100", "values too large for a float64 variance: the Welch statistics overflow"),
    ("e200", "values too large for a float64 variance: the Welch statistics overflow"),
    ("e-160", "values too small for a float64 variance: the Welch statistics underflow"),
], ids=["1e100", "1e200", "1e-160"])
def test_compare_values_beyond_float64_statistics_are_one_error_line(tmp_path, scale, message):
    """Groups {1, 3} and {1, 5} times 10^100 or 10^200 overflow the Welch
    terms, times 10^-160 underflow them; stderr holds one line, no warning."""
    values = tmp_path / "v.csv"
    values.write_text(f"train_index,value\n0,1{scale}\n1,3{scale}\n2,1{scale}\n3,5{scale}\n")
    partition = tmp_path / "p.json"
    partition.write_text('{"v1": [0, 1], "v2": [2, 3]}')
    r = run_cli_process("compare", "--values", values, "--partition", partition)
    assert (r.code, r.stdout) == (2, "")
    assert r.stderr.splitlines() == [f"genval: error: {message}"]


def test_compare_unknown_group(exp_dir, tmp_path):
    values = make_value_csv(tmp_path / "v.csv", [0.5] * 60)
    r = run_cli(
        "compare", "--values", values, "--partition", exp_dir / "partition.json",
        "--group-a", "v1", "--group-b", "nope",
    )
    assert r.code == 2
    assert "no group 'nope'" in r.stderr


@pytest.mark.parametrize("group", ["5", '["x"]', "[1.7]", "[true]"])
def test_compare_rejects_malformed_partition_groups(tmp_path, group):
    values = make_value_csv(tmp_path / "v.csv", [0.5, 0.2, 0.9, 0.1])
    partition = tmp_path / "p.json"
    partition.write_text('{"v1": %s, "v2": [2, 3]}' % group)
    r = run_cli("compare", "--values", values, "--partition", partition)
    assert r.code == 2
    assert r.stderr == "genval: error: partition group 'v1' must be a list of JSON integers\n"
    assert r.stdout == ""


def test_compare_rejects_a_partition_that_is_not_an_object(tmp_path):
    values = make_value_csv(tmp_path / "v.csv", [0.5, 0.2, 0.9, 0.1])
    partition = tmp_path / "p.json"
    partition.write_text("[[0, 1], [2, 3]]")
    r = run_cli("compare", "--values", values, "--partition", partition)
    assert r.code == 2
    assert r.stderr.startswith("genval: error: ") and r.stderr.count("\n") == 1


def test_compare_alpha_validation(tmp_path):
    csv = make_value_csv(tmp_path / "v.csv", [0.9, 0.5, 0.1])
    r = run_cli("compare", "--values-a", csv, "--values-b", csv, "--alpha", 2.0)
    assert r.code == 2


def test_compare_needs_inputs():
    r = run_cli("compare")
    assert r.code == 2
    assert "values" in r.stderr


@st.composite
def value_csvs(draw) -> tuple[str, list, list]:
    """Value CSV text and two groups: the rows' indices in any order, half
    the time all distinct, a header or none, now and then a malformed
    line; the groups name mostly indices the rows hold."""
    indices = draw(st.lists(st.integers(-3, 12), max_size=12, unique=draw(st.booleans())))
    lines = [f"{i},{draw(st.floats(allow_infinity=False))},{r}" for r, i in enumerate(indices, 1)]
    for _ in range(draw(st.integers(0, 1))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(
            ["", "7", "x,0.5", "3,fish", "4,1e5000", " 5 ,0.25", "1_0,2", "8,1,2,3"])))
    if draw(st.booleans()):
        lines.insert(0, "train_index,value,rank")
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))
    group = st.lists(st.sampled_from(indices + [13, 14]), max_size=8)
    return text, draw(group), draw(group)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(csv_and_groups=value_csvs())
def test_value_csv_reader_agrees_with_a_dict_oracle(tmp_path_factory, csv_and_groups):
    """Arrays and a sorted lookup give compare the dict's values, bit for
    bit and in the same order, and every error message it gave."""
    text, v1, v2 = csv_and_groups
    d = tmp_path_factory.mktemp("csv")
    csv = d / "v.csv"
    csv.write_text(text, encoding="utf-8")
    (d / "p.json").write_text(json.dumps({"v1": v1, "v2": v2}), encoding="utf-8")
    pair = SimpleNamespace(values_a=csv, values_b=csv)
    split = SimpleNamespace(values_a=None, values_b=None, values=csv,
                            partition=d / "p.json", group_a="v1", group_b="v2")
    try:
        table = reference.value_csv_table(text)
    except ValueError as exc:
        for args in (pair, split):
            with pytest.raises(GenvalError, match=f"^{re.escape(f'{csv}: {exc}')}$"):
                cli._compare_groups(args)
        return
    a, b, _, _ = cli._compare_groups(pair)
    assert a.tobytes() == b.tobytes() == np.array(list(table.values())).tobytes()
    try:
        want = [reference.group_values(table, name, group) for name, group in (("v1", v1), ("v2", v2))]
    except ValueError as exc:
        with pytest.raises(GenvalError, match=f"^{re.escape(str(exc))}$"):
            cli._compare_groups(split)
        return
    a, b, _, _ = cli._compare_groups(split)
    assert (a.tobytes(), b.tobytes()) == tuple(np.array(w, dtype=np.float64).tobytes() for w in want)


def test_value_csv_index_beyond_int64(tmp_path):
    values = tmp_path / "v.csv"
    values.write_text(f"0,0.5\n1,0.25\n{2**63},0.75\n3,0.125\n", encoding="utf-8")
    r = run_cli("compare", "--values-a", values, "--values-b", values)
    assert_one_error_line(r, f"{values}: line 3: train_index outside the 64-bit range")
    good = make_value_csv(tmp_path / "w.csv", [0.5, 0.25, 0.75, 0.125])
    partition = tmp_path / "p.json"
    partition.write_text(f'{{"v1": [0, 1], "v2": [2, {2**64}, -{2**70}]}}', encoding="utf-8")
    r = run_cli("compare", "--values", good, "--partition", partition)
    assert_one_error_line(r, f"group 'v2' references train_index {2**64} missing from the value CSV")


def test_value_csv_reader_holds_arrays(tmp_path):
    """Guards peak memory: at 100 000 rows the reader holds the file's
    bytes and text while it decodes them, then four 8-byte arrays per row
    at most, not a string and a dict entry per line."""
    n = 100_000
    values = tmp_path / "v.csv"
    values.write_text("train_index,value,rank\n" + "".join(
        f"{i},{v},{i + 1}\n" for i, v in enumerate(np.random.default_rng(0).random(n).tolist())))
    peak = traced_peak(lambda: cli._read_value_csv(values))
    bound = 2 * values.stat().st_size + 4 * 8 * n
    assert peak < bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"


def test_value_csv_reader_sorts_a_shuffled_file_in_runs(tmp_path):
    """Guards peak memory on a file out of train_index order: at 100 000
    rows the reader's stable sort stays under the bound of the sorted
    file's read, sorting VALUE_ROWS rows at a time and merging them, where
    one list of every row took about 10 MiB. The rows come back in
    train_index order, and the first line that repeats an earlier index
    is named, across runs too."""
    n = 100_000
    rows = np.random.default_rng(0).permutation(n).tolist()
    values = np.random.default_rng(1).random(n).tolist()
    lines = [f"{i},{values[i]},{i + 1}\n" for i in rows]
    shuffled = tmp_path / "v.csv"
    shuffled.write_text("train_index,value,rank\n" + "".join(lines))
    bound = 2 * shuffled.stat().st_size + 4 * 8 * n
    for by_index in (False, True):
        peak = traced_peak(lambda: cli._read_value_csv(shuffled, by_index=by_index))
        assert peak < bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"
    index, value = cli._read_value_csv(shuffled, by_index=True)
    assert list(index) == list(range(n)) and list(value) == values
    # a repeat in a later run than its first line, and an earlier repeat
    # whose first line lies in the same run
    repeated = tmp_path / "r.csv"
    for at in ((5, 9000), (9000, 4100, 4099)):
        body = lines[:]
        for line in at[1:]:
            body[line] = body[at[0]]
        text = "train_index,value,rank\n" + "".join(body)
        repeated.write_text(text)
        with pytest.raises(ValueError) as want:
            reference.value_csv_table(text)
        with pytest.raises(GenvalError, match=f": {want.value}$"):
            cli._read_value_csv(repeated)


def test_value_csv_writer_formats_a_block_of_rows_at_a_time(tmp_path):
    """Guards peak memory: at 100 000 rows the writer formats VALUE_ROWS
    rows at a time, under 2 MiB, where the whole file's fields at once
    take about 17 MiB; the bytes are those of one format of every row."""
    n = 100_000
    values = np.random.default_rng(0).random(n)
    rank = np.random.default_rng(1).permutation(n).astype(np.int64) + 1
    out = tmp_path / "v.csv"
    with open(out, "w", encoding="utf-8", newline="") as fh:
        peak = traced_peak(lambda: cli._write_value_csv(fh, values, rank))
    assert peak < 2 << 20, f"peak {peak / 2**20:.1f} MiB"
    assert out.read_text(encoding="utf-8") == "train_index,value,rank\n" + "".join(
        "{},{:.9g},{}\n".format(i, v, r) for i, (v, r) in enumerate(zip(values.tolist(), rank.tolist())))


# -------------------------------------------------------------- eval-recall


def test_eval_recall_zero_error_codebook(tmp_path, rng):
    train = write_embx(tmp_path / "t.embx", rng.standard_normal((6, 4)))
    gen = write_embx(tmp_path / "g.embx", rng.standard_normal((9, 4)))
    idx = tmp_path / "i.gmvi"
    assert run_cli(
        "build-index", "--train", train, "--output", idx,
        "--num-subspaces", 2, "--codebook-size", 6, "--kmeans-iters", 8,
    ).code == 0
    r = run_cli("eval-recall", "--train", train, "--gen", gen, "--index", idx)
    assert r.code == 0
    assert "recall@1=1.000000\n" in r.stdout
    assert "recall@10=1.000000\n" in r.stdout


def test_eval_recall_reads_every_k_off_one_scan_per_route(exp_dir, tmp_path, monkeypatch):
    idx = tmp_path / "i.gmvi"
    train, gen = exp_dir / "x_train.embx", exp_dir / "x_hat.embx"
    assert run_cli(
        "build-index", "--train", train, "--output", idx,
        "--num-subspaces", 2, "--codebook-size", 8, "--kmeans-iters", 5,
    ).code == 0
    scans = []
    batch_match = search.batch_match
    monkeypatch.setattr(
        search, "batch_match", lambda t, g, k: scans.append(k) or batch_match(t, g, k)
    )
    r = run_cli("eval-recall", "--train", train, "--gen", gen, "--index", idx, "--k", 5)
    assert r.code == 0
    assert scans == [10, 10]
    # each line equals the recall of scans run at its own k
    train_m, gen_m = load_embeddings(train), load_embeddings(gen)
    index = pq.load_index(idx)
    expect = "".join(
        f"recall@{k}={search.recall_at_k(batch_match(index, gen_m, k), batch_match(train_m, gen_m, k)):.6f}\n"
        for k in (1, 5, 10)
    )
    assert r.stdout == expect


def test_eval_recall_mismatched_tables(tmp_path, rng):
    train = write_embx(tmp_path / "t.embx", rng.standard_normal((5, 4)))
    small = write_embx(tmp_path / "s.embx", rng.standard_normal((2, 4)))
    gen = write_embx(tmp_path / "g.embx", rng.standard_normal((3, 4)))
    idx = tmp_path / "i.gmvi"
    assert run_cli(
        "build-index", "--train", small, "--output", idx,
        "--num-subspaces", 2, "--codebook-size", 2, "--kmeans-iters", 4,
    ).code == 0
    # the index covers 2 rows, the exact scan 5, so top-5 tables disagree in shape
    r = run_cli("eval-recall", "--train", train, "--gen", gen, "--index", idx, "--k", 5)
    assert r.code == 2
    assert "shape mismatch" in r.stderr


def test_eval_recall_rejects_an_index_of_another_corpus(tmp_path, rng):
    train = write_embx(tmp_path / "t.embx", rng.standard_normal((6, 4)))
    other = write_embx(tmp_path / "o.embx", rng.standard_normal((10, 4)))
    gen = write_embx(tmp_path / "g.embx", rng.standard_normal((3, 4)))
    idx = tmp_path / "i.gmvi"
    assert run_cli(
        "build-index", "--train", other, "--output", idx,
        "--num-subspaces", 2, "--codebook-size", 2, "--kmeans-iters", 4,
    ).code == 0
    # k is at most both row counts, so the two scans' tables share a shape
    r = run_cli("eval-recall", "--train", train, "--gen", gen, "--index", idx, "--k", 3)
    assert r.code == 2
    assert r.stdout == ""
    assert "shape mismatch" in r.stderr


# -------------------------------------------------------------- wasserstein


def test_wasserstein_identity(tmp_path, rng):
    pts = write_embx(tmp_path / "p.embx", rng.standard_normal((5, 3)))
    r = run_cli("wasserstein", "--source", pts, "--target", pts)
    assert r.code == 0
    assert r.stdout == "cost=0\n"


def test_wasserstein_shifted_pair(tmp_path):
    src = write_embx(tmp_path / "s.embx", [[0.0], [1.0]])
    tgt = write_embx(tmp_path / "t.embx", [[1.0], [2.0]])
    r = run_cli("wasserstein", "--source", src, "--target", tgt, "--p", 1)
    assert r.code == 0
    assert r.stdout == "cost=1\n"


def test_wasserstein_assignment_file(tmp_path):
    src = write_embx(tmp_path / "s.embx", [[0.0], [10.0]])
    tgt = write_embx(tmp_path / "t.embx", [[9.5], [0.5]])
    out = tmp_path / "a.json"
    r = run_cli("wasserstein", "--source", src, "--target", tgt, "--assignment", out)
    assert r.code == 0
    assert out.read_bytes() == b'{"p": 2, "assignment": [1, 0]}\n'


def test_wasserstein_refuses_assignment_on_stdout(tmp_path, monkeypatch):
    """``--assignment -`` would share stdout with the cost line: refused
    before any input is read (--source is missing), and no file named
    ``-`` is written."""
    monkeypatch.chdir(tmp_path)
    r = run_cli("wasserstein", "--target", "missing.embx", "--assignment", "-")
    assert_one_error_line(r, "--assignment -", "stdout")
    assert r.stdout == ""
    assert os.listdir() == []


def test_wasserstein_unbalanced(tmp_path, rng):
    a = write_embx(tmp_path / "a.embx", rng.standard_normal((3, 2)))
    b = write_embx(tmp_path / "b.embx", rng.standard_normal((4, 2)))
    r = run_cli("wasserstein", "--source", a, "--target", b)
    assert r.code == 2
    assert "unbalanced" in r.stderr


# ------------------------------------------------------- config & dispatch


def test_config_file_supplies_defaults(exp_dir, tmp_path):
    cfg = tmp_path / "c.json"
    # seed and alpha belong to other subcommands and are ignored here
    cfg.write_text(json.dumps({"k": 2, "train": str(exp_dir / "x_train.embx"),
                               "gen": str(exp_dir / "x_hat.embx"), "seed": 3, "alpha": 0.5}))
    r = run_cli("match", "--config", cfg)
    assert r.code == 0
    first = json.loads(r.stdout.split("\n")[0])
    assert len(first["matches"]) == 2


def test_flag_beats_config(exp_dir, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"k": 2}))
    r = run_cli("match", "--config", cfg, "--k", 3,
                "--train", exp_dir / "x_train.embx", "--gen", exp_dir / "x_hat.embx")
    assert r.code == 0
    first = json.loads(r.stdout.split("\n")[0])
    assert len(first["matches"]) == 3


def test_config_must_be_valid_json(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text("{nope")
    r = run_cli("synth", "--config", cfg, "--out-dir", tmp_path / "x")
    assert_one_error_line(r, f"{cfg}: config file is not valid JSON")


def test_config_must_be_object(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text("[1, 2]")
    r = run_cli("synth", "--config", cfg, "--out-dir", tmp_path / "x")
    assert_one_error_line(r, f"{cfg}: config file must hold")


def test_unknown_flag_is_usage_error():
    r = run_cli("match", "--frobnicate")
    assert r.code == 2


def test_internal_errors_exit_three(tmp_path, monkeypatch, rng):
    pts = write_embx(tmp_path / "p.embx", rng.standard_normal((2, 2)))

    def boom(*args, **kwargs):
        raise InternalError("invariant violated")

    monkeypatch.setattr(stats, "exact_wasserstein", boom)
    r = run_cli("wasserstein", "--source", pts, "--target", pts)
    assert r.code == 3
    assert "internal error" in r.stderr


def test_seed_is_not_a_flag_where_it_does_nothing(exp_dir):
    r = run_cli("match", "--seed", 3,
                "--train", exp_dir / "x_train.embx", "--gen", exp_dir / "x_hat.embx")
    assert r.code == 2
    assert "--seed" in r.stderr


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("match", {"k": "ten"}, "k"),
        ("match", {"k": 1.9}, "k"),
        ("match", {"k": None}, "k"),
        ("match", {"k": True}, "k"),
        ("match", {"header": "false"}, "header"),
        ("value", {"temperature": "hot"}, "temperature"),
        ("synth", {"seed": "x"}, "seed"),
        ("build-index", {"kmeans_iter": 5}, "kmeans_iter"),
        ("match", {"mode": "fast"}, "mode"),
        ("wasserstein", {"p": 3}, "p"),
        ("match", {"output": 7}, "output"),
    ],
)
def test_bad_config_value_exits_two_naming_the_key(exp_dir, tmp_path, command, config, key):
    train, gen = exp_dir / "x_train.embx", exp_dir / "x_hat.embx"
    # each invocation runs cleanly without the config file
    argv = {
        "synth": ["--out-dir", tmp_path / "s", "--dim", 4, "--n-per-split", 5, "--m", 3],
        "build-index": ["--train", train, "--output", tmp_path / "i.gmvi",
                        "--num-subspaces", 2, "--codebook-size", 4, "--kmeans-iters", 2],
        "match": ["--train", train, "--gen", gen],
        "value": ["--inline", "--train", train, "--gen", gen],
        "wasserstein": ["--source", exp_dir / "x_v1.embx", "--target", exp_dir / "x_v2.embx"],
    }[command]
    assert run_cli(command, *argv).code == 0
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    assert_one_error_line(run_cli(command, "--config", cfg, *argv), f"'{key}'")


def write_csv_with_header(src, path):
    embeddings = load_embeddings(src)
    save_embeddings(embeddings, path, format="csv")
    path.write_text("c" + ",c" * (embeddings.dim - 1) + "\n" + path.read_text())
    return path


@pytest.fixture
def option_scenarios(exp_dir, tmp_path):
    """Invocations that between them give every option of every subcommand
    a value that changes the output (where the option can change it)."""
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    train, gen = exp_dir / "x_train.embx", exp_dir / "x_hat.embx"
    csv = {name: write_csv_with_header(exp_dir / f"{name}.embx", inputs / f"{name}.csv")
           for name in ("x_train", "x_hat", "x_v1", "x_v2")}
    idx = inputs / "i.gmvi"
    assert run_cli("build-index", "--train", train, "--output", idx, "--num-subspaces", 2,
                   "--codebook-size", 8, "--kmeans-iters", 4).code == 0
    matches = inputs / "m.jsonl"
    values, values_b = inputs / "v.csv", inputs / "vb.csv"
    assert run_cli("match", "--train", train, "--gen", gen, "--k", 3, "--output", matches).code == 0
    assert run_cli("value", "--matches", matches, "--n", 60, "--output", values).code == 0
    assert run_cli("value", "--matches", matches, "--n", 60, "--temperature", 3.0,
                   "--output", values_b).code == 0
    embedded_csv = {"format": "csv", "header": True}
    return [
        ("synth", {"out_dir": "s", "dim": 6, "n_per_split": 9, "components": 3, "spread": 5.5,
                   "noise_sigma": 0.25, "m": 7, "seed": 11}),
        ("build-index", {"train": csv["x_train"], **embedded_csv, "output": "i.gmvi",
                         "num_subspaces": 4, "codebook_size": 5, "kmeans_iters": 3, "seed": 4}),
        ("match", {"mode": "pq", "index": idx, "gen": csv["x_hat"], **embedded_csv, "k": 3,
                   "output": "m.jsonl"}),
        ("match", {"train": train, "gen": gen, "k": 4}),
        ("value", {"inline": True, "mode": "exact", "train": csv["x_train"], "gen": csv["x_hat"],
                   **embedded_csv, "k": 3, "temperature": 0.5, "output": "v.csv",
                   "summary": "s.json"}),
        ("value", {"inline": True, "mode": "pq", "index": idx, "gen": gen, "k": 2}),
        ("value", {"matches": matches, "n": 61, "temperature": 2}),
        ("compare", {"values": values, "partition": exp_dir / "partition.json",
                     "group_a": "v2", "group_b": "v1", "alpha": 0.2}),
        ("compare", {"values_a": values, "values_b": values_b}),
        ("eval-recall", {"train": csv["x_train"], "gen": csv["x_hat"], **embedded_csv,
                         "index": idx, "k": 4}),
        ("wasserstein", {"source": csv["x_v1"], "target": csv["x_v2"], **embedded_csv, "p": 1,
                         "assignment": "a.json"}),
    ]


def test_option_scenarios_cover_every_option(option_scenarios):
    given = {(command, name) for command, opts in option_scenarios for name in opts}
    declared = {(command, opt.name) for opt in cli.OPTIONS for command in opt.commands}
    assert given == declared


def test_every_option_reads_the_same_from_flag_and_config(option_scenarios, tmp_path, monkeypatch):
    def run_in_fresh_dir(command, flags, config):
        run_dir = tmp_path / f"run{len(list(tmp_path.glob('run*')))}"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({k: str(v) if isinstance(v, Path) else v
                                   for k, v in config.items()}))
        argv = [command, "--config", cfg]
        for name, value in flags.items():
            argv += [f"--{name.replace('_', '-')}"] + ([] if value is True else [value])
        r = run_cli(*argv)
        files = {p.relative_to(run_dir): p.read_bytes()
                 for p in sorted(run_dir.rglob("*")) if p.is_file()}
        return r.code, r.stdout, files

    for command, opts in option_scenarios:
        by_flag = run_in_fresh_dir(command, opts, {})
        assert by_flag[0] == 0, (command, opts)
        assert run_in_fresh_dir(command, {}, opts) == by_flag, (command, "all in config")
        for name in opts:
            rest = {k: v for k, v in opts.items() if k != name}
            assert run_in_fresh_dir(command, rest, {name: opts[name]}) == by_flag, (command, name)


@pytest.mark.parametrize(
    "argv",
    [
        ["value", "--matches", "{tmp}/missing.jsonl", "--n", 4],
        ["match", "--train", "{exp}/x_train.embx", "--gen", "{exp}/x_hat.embx",
         "--output", "{tmp}/no-such-dir/x.jsonl"],
        ["build-index", "--train", "{exp}/x_train.embx", "--num-subspaces", 2,
         "--codebook-size", 4, "--kmeans-iters", 2, "--output", "{tmp}/no-such-dir/x.gmvi"],
        ["match", "--train", "{tmp}/missing.embx", "--gen", "{exp}/x_hat.embx"],
        ["match", "--format", "csv", "--train", "{tmp}/missing.csv", "--gen", "{tmp}/missing.csv"],
        ["compare", "--values", "{tmp}/missing.csv", "--partition", "{exp}/partition.json"],
        ["compare", "--values-a", "{tmp}/missing.csv", "--values-b", "{tmp}/missing.csv"],
    ],
)
def test_os_errors_exit_two(exp_dir, tmp_path, argv):
    argv = [str(a).format(tmp=tmp_path, exp=exp_dir) for a in argv]
    named = next(a for a in argv if "/missing." in a or "/no-such-dir/" in a)
    assert_one_error_line(run_cli(*argv), "No such file", named)


@pytest.mark.parametrize("argv", [
    ["match", "--mode", "pq", "--gen", "{exp}/x_hat.embx"],
    ["eval-recall", "--train", "{exp}/x_train.embx", "--gen", "{exp}/x_hat.embx"],
])
def test_pq_runs_need_an_index(exp_dir, argv):
    argv = [str(a).format(exp=exp_dir) for a in argv]
    assert_one_error_line(run_cli(*argv), "missing required input: --index")


@pytest.mark.parametrize("mode", ["exact", "pq"])
def test_more_cpus_than_rows_give_one_cpus_bytes(exp_dir, tmp_path, monkeypatch, mode):
    """Workers are capped at the row count: 64 CPUs scan the 40
    generated rows on 40 workers."""
    idx = tmp_path / "i.gmvi"
    assert run_cli(
        "build-index", "--train", exp_dir / "x_train.embx", "--output", idx,
        "--num-subspaces", 2, "--codebook-size", 8, "--kmeans-iters", 5,
    ).code == 0
    args = ("match", "--mode", mode, "--train", exp_dir / "x_train.embx", "--index", idx,
            "--gen", exp_dir / "x_hat.embx", "--k", 5)
    (one, _), (many, forks) = on_cpus(monkeypatch, lambda: run_cli(*args), 1, 64)
    assert one.code == many.code == 0 and forks == 39
    assert one.stdout == many.stdout


@pytest.mark.parametrize("command", ["build-index", "match", "match-pq", "value-inline", "eval-recall"])
def test_an_affinity_of_one_cpu_forks_nothing(exp_dir, tmp_path, monkeypatch, command):
    """The CPUs this process may run on, as taskset sets them, cap every
    command's workers: on a machine of 8 CPUs, an affinity of one forks
    nothing and eight fork, and both write the same bytes."""
    idx = tmp_path / "i.gmvi"
    assert run_cli("build-index", "--train", exp_dir / "x_train.embx", "--output", idx,
                   "--num-subspaces", 4, "--codebook-size", 8, "--kmeans-iters", 3).code == 0
    train, gen = ("--train", exp_dir / "x_train.embx"), ("--gen", exp_dir / "x_hat.embx", "--k", 5)
    argv = {"build-index": ("build-index", *train, "--num-subspaces", 4, "--codebook-size", 8,
                            "--kmeans-iters", 3, "--output", tmp_path / "out"),
            "match": ("match", *train, *gen),
            "match-pq": ("match", "--mode", "pq", "--index", idx, *gen),
            "value-inline": ("value", "--inline", *train, *gen),
            "eval-recall": ("eval-recall", *train, "--index", idx, *gen)}[command]

    def run():
        r = run_cli(*argv)
        assert r.code == 0, r.stderr
        return r.stdout, (tmp_path / "out").read_bytes() if command == "build-index" else None

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    (one, one_forks), (eight, eight_forks) = on_cpus(monkeypatch, run, 1, 8)
    assert one_forks == 0 and eight_forks > 0
    assert one == eight


@pytest.mark.parametrize("command", ["match", "value", "eval-recall"])
def test_threads_is_no_option(exp_dir, tmp_path, command):
    """The scan sizes its own workers: a "threads" config key is unknown
    and --threads is an argparse usage error, both exit 2."""
    argv = (command, "--train", exp_dir / "x_train.embx", "--gen", exp_dir / "x_hat.embx")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"threads": 2}))
    r = run_cli(*argv, "--config", cfg)
    assert (r.code, r.stdout, r.stderr) == (2, "", "genval: error: unknown config key 'threads'\n")
    r = run_cli(*argv, "--threads", 2)
    assert (r.code, r.stdout) == (2, "")
    assert r.stderr.splitlines()[-1] == "genval: error: unrecognized arguments: --threads 2"


@pytest.mark.parametrize("bad", ["code", "empty_gen"])
def test_match_pq_rejects_a_bad_code_and_an_empty_generated_set(exp_dir, tmp_path, bad):
    idx = tmp_path / "i.gmvi"
    assert run_cli(
        "build-index", "--train", exp_dir / "x_train.embx", "--output", idx,
        "--num-subspaces", 2, "--codebook-size", 8, "--kmeans-iters", 5,
    ).code == 0
    gen = exp_dir / "x_hat.embx"
    if bad == "code":
        blob = bytearray(idx.read_bytes())
        blob[-1] = 250  # codebook_size is 8
        idx.write_bytes(bytes(blob))
        message = "codebook_size"
    else:
        gen = write_embx(tmp_path / "empty.embx", np.zeros((0, 8)))
        message = "generated set is empty"
    r = run_cli("match", "--mode", "pq", "--index", idx, "--gen", gen, "--k", 3)
    assert_one_error_line(r, message)


@pytest.mark.parametrize("k", [0, -3])
@pytest.mark.parametrize("by_config", [False, True])
def test_eval_recall_rejects_k_below_one(exp_dir, tmp_path, k, by_config):
    idx = tmp_path / "i.gmvi"
    assert run_cli(
        "build-index", "--train", exp_dir / "x_train.embx", "--output", idx,
        "--num-subspaces", 2, "--codebook-size", 8, "--kmeans-iters", 5,
    ).code == 0
    argv = ["eval-recall", "--train", exp_dir / "x_train.embx",
            "--gen", exp_dir / "x_hat.embx", "--index", idx]
    if by_config:
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"k": k}))
        argv += ["--config", cfg]
    else:
        argv += ["--k", k]
    assert_one_error_line(run_cli(*argv), "k must be >= 1")


@pytest.mark.parametrize(
    "record, message",
    [
        ('{"gen_index": 0, "matches": []}', "line 1: record has no matches"),
        ('{"gen_index": 0, "matches": [{"train_index": 1.7, "distance": 1}]}', "line 1"),
    ],
)
def test_value_rejects_bad_match_records(record, message):
    assert_one_error_line(run_cli("value", "--matches", "-", "--n", 4, stdin=record + "\n"), message)


@pytest.mark.parametrize("command", ["synth", "build-index"])
@pytest.mark.parametrize("by_config", [False, True])
def test_negative_seed_exits_two(exp_dir, tmp_path, command, by_config):
    argv = {
        "synth": ["--out-dir", tmp_path / "s", "--dim", 4, "--n-per-split", 5, "--m", 3],
        "build-index": ["--train", exp_dir / "x_train.embx", "--output", tmp_path / "i.gmvi",
                        "--num-subspaces", 2, "--codebook-size", 4, "--kmeans-iters", 2],
    }[command]
    assert run_cli(command, *argv, "--seed", 0).code == 0
    if by_config:
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": -1}))
        argv += ["--config", cfg]
    else:
        argv += ["--seed", -1]
    assert_one_error_line(run_cli(command, *argv), "seed must be >= 0")


# sizes that fail before anything is allocated: 10**30 is past numpy's
# index range, and an array of 10**14 rows needs far more address space
# than a 64-bit process has, so the request fails at once
@pytest.mark.parametrize(
    "argv, message",
    [
        (["value", "--matches", "-", "--n", 10**30], "exceeds numpy's array size limit"),
        (["value", "--matches", "-", "--n", 10**14], "out of memory"),
        (["synth", "--dim", 10**30], "exceed numpy's array size limit"),
        (["synth", "--n-per-split", 10**30], "exceed numpy's array size limit"),
        (["synth", "--dim", 10**14], "out of memory"),
    ],
)
def test_sizes_no_array_can_hold_exit_two(tmp_path, argv, message):
    if argv[0] == "synth":
        argv = argv + ["--out-dir", tmp_path / "s"]
    record = '{"gen_index": 0, "matches": [{"train_index": 1, "distance": 1}]}\n'
    assert_one_error_line(run_cli(*argv, stdin=record), message)


# ----------------------------------------------------------------- warnings


def test_credit_overflow_is_the_exact_limit(tmp_path):
    """b·d beyond float64's range gives exp(-inf) = 0, the exact limit;
    no warning reaches stderr."""
    matches = tmp_path / "m.jsonl"
    matches.write_text(
        '{"gen_index": 0, "matches": [{"train_index": 0, "distance": 1.0}, '
        '{"train_index": 1, "distance": 1e300}]}\n'
    )
    r = run_cli_process("value", "--matches", matches, "--n", 2, "--temperature", 1e10)
    assert (r.code, r.stderr) == (0, "")
    assert r.stdout == "train_index,value,rank\n0,1,1\n1,0,2\n"


@pytest.mark.parametrize("flags, option", [
    (("--spread", 1e308, "--components", 2), "component_spread"),
    (("--noise-sigma", 1e300), "noise_sigma"),
    (("--noise-sigma", 1e308), "noise_sigma"),
])
def test_synth_out_of_range_names_its_option(tmp_path, flags, option):
    r = run_cli_process("synth", "--out-dir", tmp_path / "exp", "--dim", 8,
                        "--n-per-split", 20, "--m", 10, *flags)
    assert r.code == 2
    assert r.stderr.splitlines() == [
        f"genval: error: {option} {float(flags[1]):g} puts synthetic rows beyond float32 range"
    ]


def test_csv_value_beyond_float32_is_one_error_line(tmp_path):
    big = tmp_path / "big.csv"
    big.write_text("1.0,2.0\n1e39,3.0\n")
    r = run_cli_process("match", "--train", big, "--gen", big, "--format", "csv", "--k", 1)
    assert r.code == 2
    assert r.stderr.splitlines() == [
        f"genval: error: {big}: value 1e+39 at row 1, column 0 is beyond float32 range"
    ]


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
def test_csv_non_finite_value_is_one_error_line(tmp_path, cell):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"1.0,2.0\n3.0,{cell}\n")
    r = run_cli_process("match", "--train", bad, "--gen", bad, "--format", "csv", "--k", 1)
    assert r.code == 2
    assert r.stderr.splitlines() == [f"genval: error: {bad}: non-finite value at row 1, column 1"]


# runs each argv of sys.argv[1] through main and names the first command
# after which numpy.random is loaded
NO_NUMPY_RANDOM_CHILD = """
import json, sys
from genval.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    assert "numpy.random" not in sys.modules, argv[0] + " loads numpy.random"
"""


def test_pq_pipeline_never_loads_numpy_random(exp_dir, tmp_path):
    """Importing numpy.random costs about 5.5 MiB of RSS, and none of
    these commands draws a normal: k-means++ takes its draws from
    genval.philox."""
    train, gen, index = exp_dir / "x_train.embx", exp_dir / "x_hat.embx", tmp_path / "i.gmvi"
    matches, values = tmp_path / "m.jsonl", tmp_path / "v.csv"
    argvs = [
        ["build-index", "--train", train, "--output", index, "--num-subspaces", 2,
         "--codebook-size", 8, "--kmeans-iters", 3],
        ["match", "--mode", "pq", "--index", index, "--gen", gen, "--k", 3, "--output", matches],
        ["eval-recall", "--train", train, "--gen", gen, "--index", index],
        ["value", "--matches", matches, "--train", train, "--output", values],
        ["compare", "--values", values, "--partition", exp_dir / "partition.json"],
    ]
    argv_json = json.dumps([list(map(str, argv)) for argv in argvs])
    done = subprocess.run([sys.executable, "-c", NO_NUMPY_RANDOM_CHILD, argv_json],
                          capture_output=True, text=True, env=child_env(), timeout=120)
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------- exit path
# Child processes run with stdout block-buffered (see child_env), so a
# write can fail as late as the last flush, after the command returned.


@pytest.fixture
def exit_inputs(exp_dir, tmp_path):
    """The argv of each subcommand whose stdout fits one buffer."""
    train, gen = exp_dir / "x_train.embx", exp_dir / "x_hat.embx"
    index, values = tmp_path / "i.gmvi", tmp_path / "v.csv"
    assert run_cli("build-index", "--train", train, "--output", index, "--num-subspaces", 2,
                   "--codebook-size", 8, "--kmeans-iters", 2).code == 0
    assert run_cli("value", "--inline", "--train", train, "--gen", gen, "--output", values).code == 0
    return {
        "synth": ["synth", "--out-dir", tmp_path / "exp2", "--dim", 4, "--n-per-split", 10, "--m", 5],
        "build-index": ["build-index", "--train", train, "--output", tmp_path / "j.gmvi", "--num-subspaces", 2,
                        "--codebook-size", 8, "--kmeans-iters", 2],
        "compare": ["compare", "--values", values, "--partition", exp_dir / "partition.json"],
        "eval-recall": ["eval-recall", "--train", train, "--gen", gen, "--index", index],
        "wasserstein": ["wasserstein", "--source", exp_dir / "x_v1.embx", "--target", exp_dir / "x_v2.embx"],
        "value --summary -": ["value", "--inline", "--train", train, "--gen", gen, "--output", tmp_path / "w.csv",
                              "--summary", "-"],
    }


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("command", ["synth", "build-index", "compare", "eval-recall", "wasserstein",
                                     "value --summary -"])
def test_a_write_that_fails_at_the_last_flush_is_one_error_line(exit_inputs, command):
    """stdout on /dev/full takes the whole output into its buffer, and
    fails only at the flush once the command is done: exit 2 with one
    line, not Python's exit 120 and its two lines."""
    with open("/dev/full", "wb") as full:
        r = run_cli_process(*exit_inputs[command], stdout=full)
    assert_one_error_line(r, f"[Errno {errno.ENOSPC}]")


@pytest.fixture
def big_match(tmp_path, rng):
    """A match argv whose JSONL is several stdout buffers long, and the
    bytes its ``--output`` file holds."""
    train = write_embx(tmp_path / "train.embx", rng.standard_normal((300, 8)))
    gen = write_embx(tmp_path / "gen.embx", rng.standard_normal((400, 8)))
    argv = ["match", "--train", train, "--gen", gen, "--k", 10]
    assert run_cli_process(*argv, "--output", tmp_path / "m.jsonl").code == 0
    data = (tmp_path / "m.jsonl").read_bytes()
    assert len(data) > 16 * io.DEFAULT_BUFFER_SIZE
    return argv, data


def test_match_jsonl_on_stdout_is_its_output_file(big_match):
    argv, data = big_match
    r = run_cli_process(*argv)
    assert (r.code, r.stderr) == (0, "")
    assert r.stdout.encode() == data


# runs cli.entrypoint, as the genval script does, with an exit handler registered
ENTRYPOINT_CHILD = """
import atexit, os, sys
from genval import cli
atexit.register(os.write, 2, b"an exit handler ran\\n")
cli.entrypoint()
"""


def test_entrypoint_leaves_without_exit_handlers_and_with_all_of_stdout(big_match):
    """main flushes stdout and entrypoint leaves by os._exit, so Python's
    teardown and exit handlers never run; a sys.exit would run them."""
    argv, data = big_match
    done = subprocess.run([sys.executable, "-c", ENTRYPOINT_CHILD, *map(str, argv)],
                          capture_output=True, env=child_env(), timeout=120)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == data


def test_help_in_a_child_process_is_its_full_text(monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")  # argparse wraps help to it, here and in the child
    r = run_cli_process("--help")
    assert (r.code, r.stderr) == (0, "")
    assert r.stdout == cli.build_parser().format_help()


def test_usage_error_in_a_child_process_is_the_usage_block(monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    r = run_cli_process("match", "--k", "ten")
    assert (r.code, r.stdout) == (2, "")
    assert r.stderr.startswith("usage: genval match ")
    assert r.stderr.endswith("\ngenval match: error: argument --k: invalid int value: 'ten'\n")
    assert r.stderr == run_cli("match", "--k", "ten").stderr


# cli.entrypoint with a transport solver that prints a line, then breaks an invariant
INTERNAL_ERROR_CHILD = """
from genval import cli, stats
from genval.errors import InternalError

def broken(*args, **kwargs):
    print("partial")
    raise InternalError("invariant violated")

stats.exact_wasserstein = broken
cli.entrypoint()
"""


def test_internal_error_in_a_child_process_is_one_line(exp_dir):
    """Exit 3 with one line, and what went to stdout before it still comes out."""
    done = subprocess.run([sys.executable, "-c", INTERNAL_ERROR_CHILD, "wasserstein",
                           "--source", exp_dir / "x_v1.embx", "--target", exp_dir / "x_v2.embx"],
                          capture_output=True, text=True, env=child_env(), timeout=120)
    assert (done.returncode, done.stdout) == (3, "partial\n")
    assert done.stderr.splitlines() == ["genval: internal error: invariant violated"]


@pytest.mark.parametrize("stream, command", [
    ("0", "value --matches -"),
    *(("1", command) for command in ["synth", "build-index", "compare", "eval-recall", "wasserstein",
                                     "value --summary -", "match", "value --inline", "compare missing"]),
    ("2", "compare missing"),
    ("broken 2", "compare missing"),
])
def test_a_stream_closed_at_start_changes_no_exit_code(exit_inputs, exp_dir, stream, command):
    """With fd 0, 1 or 2 closed before Python starts, its sys.stdin,
    sys.stdout or sys.stderr is None, and a broken stderr (a pipe with no
    reader) fails every write. Either way the run is the one with every
    stream open, less what the closed or broken stream would carry: the
    same exit code, no traceback, and no error text on stdout."""
    train, gen = exp_dir / "x_train.embx", exp_dir / "x_hat.embx"
    argv = {**exit_inputs,
            "value --matches -": ["value", "--matches", "-", "--n", 5],
            "match": ["match", "--train", train, "--gen", gen],
            "value --inline": ["value", "--inline", "--train", train, "--gen", gen],
            "compare missing": [*exit_inputs["compare"][:3], "--partition", exp_dir / "missing.json"]}[command]
    want = run_cli(*argv)
    child = [sys.executable, "-m", "genval.cli", *map(str, argv)]
    if stream == "broken 2":
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(child, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=write_end,
                                  text=True, env=child_env(), timeout=120)
        finally:
            os.close(write_end)
    else:
        done = subprocess.run(["sh", "-c", f'exec "$@" {stream}>&-', "sh", *child], stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, env=child_env(), timeout=120)
    assert done.returncode == want.code
    assert "Traceback" not in done.stdout + (done.stderr or "")
    if stream != "1":
        assert done.stdout == want.stdout
    if stream in ("0", "1"):
        assert done.stderr == want.stderr


# cli.entrypoint with compare stubbed to open a file, then report where fd 2
# leads and the file's descriptor
STAND_IN_CHILD = """
import json, os, sys
from genval import cli

def opens_a_file(args):
    with open(sys.executable, "rb") as fh:
        print(json.dumps([os.readlink("/proc/self/fd/2"), fh.fileno()]))
    return 0

cli.COMMANDS["compare"] = (opens_a_file, "")
cli.entrypoint()
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/fd")
def test_the_stand_in_for_a_closed_stream_keeps_its_descriptor():
    """With fd 2 closed at start, the first file the process opened would
    get descriptor 2, and a C-level write to stderr would land in it; the
    stand-in on os.devnull holds it first."""
    done = subprocess.run(["sh", "-c", 'exec "$@" 2>&-', "sh", sys.executable, "-c", STAND_IN_CHILD, "compare"],
                          stdin=subprocess.DEVNULL, capture_output=True, text=True, env=child_env(), timeout=120)
    assert done.returncode == 0
    fd2, opened = json.loads(done.stdout)
    assert fd2 == os.devnull
    assert opened >= 3
