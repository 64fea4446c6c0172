"""Text inputs: UTF-8 whatever the locale, one newline rule for every
line input, JSON of any depth, and a mutation suite holding every CLI
run on a damaged text file to exit 0 or 2 with one error line."""
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import assert_one_error_line, child_env, make_value_csv, run_cli, run_cli_process

RECORD = b'{"gen_index": %d, "matches": [{"train_index": %d, "distance": 0.5}]}\n'


def write(path, data: bytes):
    path.write_bytes(data)
    return path


# ------------------------------------------------------------ non-UTF-8 bytes


def test_csv_embeddings_with_a_bad_first_byte(tmp_path):
    bad = write(tmp_path / "bad.csv", b"\xff1,2\n3,4\n")
    r = run_cli_process("match", "--format", "csv", "--train", bad, "--gen", bad, "--k", 1)
    assert_one_error_line(r, str(bad), "not UTF-8")


def test_config_with_a_bad_byte(tmp_path):
    cfg = write(tmp_path / "c.json", b'{"dim": 4, "seed": 1, "x": "\xff"}')
    r = run_cli_process("synth", "--config", cfg, "--out-dir", tmp_path / "o")
    assert_one_error_line(r, str(cfg), "not UTF-8")


def test_value_csvs_with_a_bad_byte(tmp_path):
    good = make_value_csv(tmp_path / "good.csv", [0.5, 0.25])
    bad = write(tmp_path / "bad.csv", good.read_bytes().replace(b"0.25", b"0.\xff25"))
    for a, b in ((bad, good), (good, bad)):
        r = run_cli_process("compare", "--values-a", a, "--values-b", b)
        assert_one_error_line(r, str(bad), "not UTF-8")


def test_partition_with_a_bad_byte(tmp_path):
    values = make_value_csv(tmp_path / "v.csv", [0.5, 0.25, 0.75, 0.125])
    part = write(tmp_path / "p.json", b'{"v1": [0, 1], "v2": [2, 3], "note": "\xff"}')
    r = run_cli_process("compare", "--values", values, "--partition", part)
    assert_one_error_line(r, str(part), "not UTF-8")


def test_match_file_with_a_bad_byte_names_file_and_line(tmp_path):
    # inside a JSON string of an unknown key: only the decoding can tell
    bad = RECORD % (1, 1)
    bad = bad.replace(b'"distance": 0.5', b'"distance": 0.5, "note": "\xff"')
    matches = write(tmp_path / "m.jsonl", RECORD % (0, 0) + bad)
    r = run_cli_process("value", "--matches", matches, "--n", 4)
    assert_one_error_line(r, str(matches), "match stream line 2", "not UTF-8")
    r = run_cli_process("value", "--matches", "-", "--n", 4, stdin=matches.read_bytes())
    assert_one_error_line(r, "match stream line 2: malformed record")


# --------------------------------------------------------------- line inputs

PARTITION = b'{\n "v1": [0, 2],\n "v2": [1, 3]\n}\n'


def compare_beside(f, *argv, stdin=""):
    """``compare`` of a values CSV written beside ``f``, with ``argv``."""
    values = make_value_csv(f.parent / "v.csv", [0.5, 0.25, 0.75, 0.125])
    return run_cli("compare", "--values", values, *argv, stdin=stdin)


# each text input: valid LF data, and the run that reads it from a file
# (None: from stdin, in a child whose stdin is a real byte stream)
LINE_INPUTS = {
    "config": (b'{\n "alpha": 0.05,\n "group_a": "v1"\n}\n',
               lambda f: compare_beside(f, "--partition", write(f.parent / "p.json", PARTITION),
                                        "--config", f)),
    "partition": (PARTITION, lambda f: compare_beside(f, "--partition", f)),
    "embeddings": (b"0.5,1.5\n2.5,3.5\n-1,0.25\n",
                   lambda f: run_cli("match", "--format", "csv", "--train", f, "--gen", f, "--k", 2)),
    "values": (b"train_index,value,rank\n0,0.5,2\n1,0.25,3\n2,0.75,1\n",
               lambda f: run_cli("compare", "--values-a", f, "--values-b", f)),
    "matches": (RECORD % (0, 0) + RECORD % (1, 1) + RECORD % (2, 3),
                lambda f: run_cli("value", "--matches", f, "--n", 4)),
    "stdin": (RECORD % (0, 0) + RECORD % (1, 1) + RECORD % (2, 3), None),
}


def run_line_input(kind, tmp_path, data: bytes):
    """The run of ``kind`` on ``data``, and the file it read (None: stdin)."""
    run = LINE_INPUTS[kind][1]
    if run is None:
        return run_cli_process("value", "--matches", "-", "--n", 4, stdin=data), None
    path = write(tmp_path / f"{kind}.txt", data)
    return run(path), path


@pytest.mark.parametrize("kind", sorted(LINE_INPUTS))
def test_every_line_end_and_a_missing_final_newline_read_alike(tmp_path, kind):
    valid = LINE_INPUTS[kind][0]
    base, _ = run_line_input(kind, tmp_path, valid)
    assert (base.code, base.stderr) == (0, "") and base.stdout
    crlf = valid.replace(b"\n", b"\r\n")
    for data in (crlf, valid.replace(b"\n", b"\r"), valid[:-1], crlf[:-2]):
        r, _ = run_line_input(kind, tmp_path, data)
        assert (r.code, r.stdout, r.stderr) == (0, base.stdout, ""), data


@pytest.mark.parametrize("kind", sorted(LINE_INPUTS))
def test_a_bad_byte_in_a_line_input_names_file_and_line(tmp_path, kind):
    lines = LINE_INPUTS[kind][0].split(b"\n")
    lines[1] = lines[1][:3] + b"\xff" + lines[1][3:]
    r, path = run_line_input(kind, tmp_path, b"\r\n".join(lines))
    where = {"embeddings": f"{path}:", "values": f"{path}:", "config": f"{path}:", "partition": f"{path}:",
             "matches": f"{path}: match stream", "stdin": "match stream"}[kind]
    assert r.code == 2
    assert r.stderr.splitlines() == [
        f"genval: error: {where} line 2: malformed record, byte 0xff is not UTF-8"]


def test_a_line_at_fault_before_a_bad_byte_is_the_one_reported(tmp_path):
    values = write(tmp_path / "v.csv", b"train_index,value\n0,x\n1,\xff\n")
    assert_one_error_line(run_cli("compare", "--values-a", values, "--values-b", values),
                          f"{values}: line 2: unparseable field")


def test_a_config_file_named_dash_is_read_from_that_file(tmp_path, monkeypatch):
    part = write(tmp_path / "p.json", PARTITION)
    want = compare_beside(part, "--partition", part, "--alpha=0.05")
    assert "alpha=0.05" in want.stdout
    write(tmp_path / "-", b'{"alpha": 0.05}\n')
    monkeypatch.chdir(tmp_path)
    r = compare_beside(part, "--partition", part, "--config", "-", stdin='{"alpha": 0.2}')
    assert (r.code, r.stdout, r.stderr) == (0, want.stdout, "")


# ------------------------------------------------------------- deep nesting

DEEP = b"[" * 200_000


def test_deep_config_is_not_valid_json(tmp_path):
    cfg = write(tmp_path / "c.json", DEEP)
    assert_one_error_line(run_cli("synth", "--config", cfg, "--out-dir", tmp_path / "o"),
                          f"{cfg}: config file is not valid JSON: nested too deeply")


def test_deep_partition_is_one_error_line(tmp_path):
    values = make_value_csv(tmp_path / "v.csv", [0.5, 0.25, 0.75, 0.125])
    part = write(tmp_path / "p.json", DEEP)
    assert_one_error_line(run_cli("compare", "--values", values, "--partition", part),
                          f"{part}: partition file is not valid JSON: nested too deeply")


def test_deep_match_record_in_a_file(tmp_path):
    matches = write(tmp_path / "m.jsonl", RECORD % (0, 0) + DEEP + b"\n")
    assert_one_error_line(run_cli("value", "--matches", matches, "--n", 4),
                          str(matches), "match stream line 2: malformed record")


def test_deep_match_record_on_stdin():
    r = run_cli("value", "--matches", "-", "--n", 4, stdin=DEEP.decode())
    assert_one_error_line(r, "match stream line 1: malformed record")


# ------------------------------------------------------ locale-free text I/O

# every text file the CLI reads or writes, each run by main() in one child
# that turns a default-encoding open() into an error
ENCODING_SCRIPT = """
import json, sys
from genval import load_embeddings, save_embeddings
from genval.cli import main

d = sys.argv[1]
exp = d + "/exp"
train, gen = exp + "/x_train.embx", exp + "/x_hat.embx"
with open(d + "/c.json", "w", encoding="utf-8") as fh:
    json.dump({"mode": "pq", "index": d + "/i.gmvi", "train": train, "gen": gen,
               "output": d + "/pq.jsonl"}, fh)
assert main(["synth", "--out-dir", exp, "--dim", "8", "--n-per-split", "30", "--m", "20"]) == 0
save_embeddings(load_embeddings(gen), d + "/g.csv", format="csv")
runs = [
    ["build-index", "--train", train, "--output", d + "/i.gmvi", "--num-subspaces", "2",
     "--codebook-size", "4", "--kmeans-iters", "2"],
    ["match", "--train", train, "--gen", gen, "--output", d + "/m.jsonl"],
    ["value", "--matches", d + "/m.jsonl", "--n", "60", "--output", d + "/v.csv",
     "--summary", d + "/s.json"],
    ["value", "--inline", "--train", train, "--gen", gen, "--output", d + "/v2.csv"],
    ["compare", "--values", d + "/v.csv", "--partition", exp + "/partition.json"],
    ["compare", "--values-a", d + "/v.csv", "--values-b", d + "/v2.csv"],
    ["match", "--config", d + "/c.json"],
    ["wasserstein", "--source", gen, "--target", gen, "--assignment", d + "/a.json"],
    ["match", "--format", "csv", "--train", d + "/g.csv", "--gen", d + "/g.csv",
     "--k", "2", "--output", d + "/csv.jsonl"],
]
for argv in runs:
    assert main(argv) == 0, argv
"""


def test_no_text_io_uses_the_locale_encoding(tmp_path):
    done = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-c", ENCODING_SCRIPT, str(tmp_path)],
        capture_output=True, text=True, encoding="utf-8", env=child_env(), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert (tmp_path / "csv.jsonl").stat().st_size and (tmp_path / "a.json").exists()


# ---------------------------------------------------------- mutation suite


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """One valid file of each text input kind, and the run that reads it."""
    d = tmp_path_factory.mktemp("valid")
    values = make_value_csv(d / "v.csv", [0.5, 0.25, 0.75, 0.125])
    other = make_value_csv(d / "w.csv", [0.5, 1.5, 0.25])
    part = write(d / "p.json", json.dumps({"v1": [0, 2], "v2": [1, 3]}).encode())
    config = {"values": str(values), "partition": str(part), "alpha": 0.05, "group_a": "v1"}
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((6, 3)).astype(np.float32)
    csv = "".join(",".join(str(v) for v in row) + "\n" for row in rows)
    target = d / "target"
    return {
        "config": (json.dumps(config).encode(), ["compare", "--config", target]),
        "partition": (part.read_bytes(), ["compare", "--values", values, "--partition", target]),
        "values": (values.read_bytes(), ["compare", "--values-a", target, "--values-b", other]),
        "matches": (b"".join(RECORD % (j, j % 4) for j in range(3)),
                    ["value", "--matches", target, "--n", 4]),
        "embeddings": (csv.encode(), ["match", "--format", "csv", "--train", target,
                                      "--gen", target, "--k", 2]),
    }, target


@st.composite
def mutations(draw, data: bytes) -> bytes:
    """``data`` after one to three byte flips, insertions (0xff among
    them), deletions, truncations or deep nestings."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "insert", "delete", "truncate", "nest"]))
        at = draw(st.integers(0, len(data)))
        if kind == "flip" and at < len(data):
            data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
        elif kind == "insert":
            byte = draw(st.one_of(st.just(0xFF), st.sampled_from(b'[]{}",:-.e0\n'),
                                  st.integers(0, 255)))
            data = data[:at] + bytes([byte]) + data[at:]
        elif kind == "delete":
            data = data[:at] + data[at + 1:]
        elif kind == "truncate":
            data = data[:at]
        elif kind == "nest":
            data = data[:at] + b"[" * draw(st.sampled_from([2, 1_000, 100_000])) + data[at:]
    return data


@pytest.mark.parametrize("kind", ["config", "partition", "values", "matches", "embeddings"])
@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_text_inputs_exit_zero_or_two_with_one_line(valid_inputs, kind, data):
    inputs, target = valid_inputs
    valid, argv = inputs[kind]
    target.write_bytes(data.draw(mutations(valid)))
    r = run_cli(*argv)
    assert r.code in (0, 2), r.stderr
    if r.code == 2:
        assert_one_error_line(r)
    else:
        assert r.stderr == ""
