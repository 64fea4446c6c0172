import json
import os
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genval.cli as cli
import reference
from conftest import (assert_one_error_line, make_value_csv, run_cli, run_cli_process, traced_peak,
                      write_embx)
from genval import embeddings, load_embeddings, pq, save_embeddings, search
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


def test_match_threads_do_not_change_bytes(exp_dir, eight_cpus):
    args = ("match", "--train", exp_dir / "x_train.embx",
            "--gen", exp_dir / "x_hat.embx", "--k", 5)
    one = run_cli(*args, "--threads", 1)
    eight = run_cli(*args, "--threads", 8)
    assert one.code == eight.code == 0
    assert one.stdout == eight.stdout


def test_threads_split_rows_across_scan_blocks(exp_dir, monkeypatch, eight_cpus):
    """60 training rows of dim 8 and 40 queries: 8 tiles of at most 8
    training rows (an eighth of the budget, float32), each against
    blocks of 4 query rows (a quarter: 9 bytes a pair and 4 bytes an
    entry of the query row), put every thread boundary somewhere inside
    or between blocks. The EMBX files, read a tile at a time, and the
    same rows as CSV, parsed whole, give the same bytes."""
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", 8 * 8 * 4 * 8)
    assert embeddings.block_rows(9 * 8 + 4 * 8, embeddings.BLOCK_BYTES // 4) == 4
    for name in ("x_train", "x_hat"):
        save_embeddings(load_embeddings(exp_dir / f"{name}.embx"), exp_dir / f"{name}.csv", format="csv")
    for command in (["match"], ["value", "--inline"]):
        runs = [run_cli(*command, "--train", exp_dir / f"x_train.{ext}", "--gen", exp_dir / f"x_hat.{ext}",
                        "--format", fmt, "--k", 5, "--threads", threads)
                for ext, fmt in (("embx", "binary"), ("csv", "csv")) for threads in (1, 3)]
        assert [r.code for r in runs] == [0] * 4
        assert len({r.stdout for r in runs}) == 1


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
        result = cli.valuation.aggregate_values(search.read_match_jsonl(fh), n)
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


def test_value_sized_by_train_equals_value_sized_by_n(exp_dir, tmp_path):
    matches = tmp_path / "m.jsonl"
    assert run_cli("match", "--train", exp_dir / "x_train.embx", "--gen", exp_dir / "x_hat.embx",
                   "--output", matches).code == 0
    by_n = run_cli("value", "--matches", matches, "--n", 60)
    by_train = run_cli("value", "--matches", matches, "--train", exp_dir / "x_train.embx")
    assert by_n.code == by_train.code == 0
    assert by_train.stdout == by_n.stdout and by_n.stdout.count("\n") == 61


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
        search, "batch_match", lambda t, g, k, threads: scans.append(k) or batch_match(t, g, k, threads)
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
    assert json.loads(out.read_text()) == {"p": 2, "assignment": [1, 0]}


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

    monkeypatch.setattr(cli.stats, "exact_wasserstein", boom)
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
                   "threads": 2, "output": "m.jsonl"}),
        ("match", {"train": train, "gen": gen, "k": 4}),
        ("value", {"inline": True, "mode": "exact", "train": csv["x_train"], "gen": csv["x_hat"],
                   **embedded_csv, "k": 3, "threads": 3, "temperature": 0.5, "output": "v.csv",
                   "summary": "s.json"}),
        ("value", {"inline": True, "mode": "pq", "index": idx, "gen": gen, "k": 2}),
        ("value", {"matches": matches, "n": 61, "temperature": 2}),
        ("compare", {"values": values, "partition": exp_dir / "partition.json",
                     "group_a": "v2", "group_b": "v1", "alpha": 0.2}),
        ("compare", {"values_a": values, "values_b": values_b}),
        ("eval-recall", {"train": csv["x_train"], "gen": csv["x_hat"], **embedded_csv,
                         "index": idx, "k": 4, "threads": 2}),
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


def test_match_rejects_zero_threads(exp_dir):
    r = run_cli("match", "--train", exp_dir / "x_train.embx", "--gen", exp_dir / "x_hat.embx",
                "--threads", 0)
    assert_one_error_line(r, "threads must be >= 1")


@pytest.mark.parametrize("mode", ["exact", "pq"])
def test_huge_thread_count_gives_one_threads_bytes(exp_dir, tmp_path, monkeypatch, mode):
    # workers are capped at the CPU count, here 2, and at the row count
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    idx = tmp_path / "i.gmvi"
    assert run_cli(
        "build-index", "--train", exp_dir / "x_train.embx", "--output", idx,
        "--num-subspaces", 2, "--codebook-size", 8, "--kmeans-iters", 5,
    ).code == 0
    args = ("match", "--mode", mode, "--train", exp_dir / "x_train.embx", "--index", idx,
            "--gen", exp_dir / "x_hat.embx", "--k", 5)
    one = run_cli(*args, "--threads", 1)
    huge = run_cli(*args, "--threads", 10**30)
    assert one.code == huge.code == 0
    assert one.stdout == huge.stdout


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
        "genval: error: value 1e+39 at row 1, column 0 is beyond float32 range"
    ]


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
def test_csv_non_finite_value_is_one_error_line(tmp_path, cell):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"1.0,2.0\n3.0,{cell}\n")
    r = run_cli_process("match", "--train", bad, "--gen", bad, "--format", "csv", "--k", 1)
    assert r.code == 2
    assert r.stderr.splitlines() == ["genval: error: non-finite value at row 1, column 1"]
