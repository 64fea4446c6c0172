"""Every numeric flag at its edge values: 0, -1 and sizes past every
limit for the integer flags; nan, ±inf, 0, 1e-320 and 1e308 for the
float flags, each written as ``--flag=value`` so that argparse hands a
leading ``-`` to genval. Each run, on a tiny seeded experiment, exits 0
with nothing on stderr or 2 with one ``genval: error:`` line.

Bounded by construction: a value is refused before anything is
allocated, capped (``--k`` by the row count, ``--threads`` by the row and
CPU counts) or quick on these inputs. Sizes between 2**31 and the limit
a check refuses would allocate their size, and ``synth --components``
near such a size places each mean against every earlier one, so none is
probed. ``synth`` draws two components, so every ``--spread`` reaches
the placement of a second mean: ``--spread=1e-320``, whose square
underflows, is refused before any is placed.
"""
import pytest

from conftest import assert_one_error_line, run_cli
from genval.cli import OPTIONS, _flag

INTS = (0, -1, 2**63, 10**30)
FLOATS = ("nan", "inf", "-inf", "0", "1e-320", "1e308")

# command: (argv before the probed flag, its integer flags, its float flags)
PROBES = {
    "synth": (["synth", "--out-dir", "{d}/s", "--dim", 4, "--n-per-split", 3, "--m", 2,
               "--components", 2],
              ["--dim", "--n-per-split", "--m", "--components", "--seed"],
              ["--spread", "--noise-sigma"]),
    "build-index": (["build-index", "--train", "{exp}/x_train.embx", "--output", "{d}/i.gmvi",
                     "--num-subspaces", 2, "--codebook-size", 4, "--kmeans-iters", 3],
                    ["--num-subspaces", "--codebook-size", "--kmeans-iters", "--seed"], []),
    "match": (["match", "--train", "{exp}/x_train.embx", "--gen", "{exp}/x_hat.embx",
               "--output", "{d}/m.jsonl"], ["--k", "--threads"], []),
    "match-pq": (["match", "--mode", "pq", "--index", "{d}/index.gmvi", "--gen", "{exp}/x_hat.embx",
                  "--output", "{d}/m.jsonl"], ["--k", "--threads"], []),
    "value-inline": (["value", "--inline", "--train", "{exp}/x_train.embx",
                      "--gen", "{exp}/x_hat.embx", "--output", "{d}/v.csv"],
                     ["--k", "--threads"], ["--temperature"]),
    "value": (["value", "--matches", "{d}/matches.jsonl", "--n", 6, "--output", "{d}/v.csv"],
              ["--n"], ["--temperature"]),
    "eval-recall": (["eval-recall", "--train", "{exp}/x_train.embx", "--gen", "{exp}/x_hat.embx",
                     "--index", "{d}/index.gmvi"], ["--k", "--threads"], []),
    "compare": (["compare", "--values", "{d}/values.csv", "--partition", "{exp}/partition.json"],
                [], ["--alpha"]),
}

CASES = [(name, flag, value)
         for name, (_, ints, floats) in PROBES.items()
         for flags, values in ((ints, INTS), (floats, FLOATS))
         for flag in flags for value in values]


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A seeded 6-row experiment with its index, match file and values."""
    d = tmp_path_factory.mktemp("probe")
    exp = d / "exp"
    for argv in (
        ["synth", "--out-dir", exp, "--dim", 4, "--n-per-split", 3, "--m", 5, "--seed", 3],
        ["build-index", "--train", exp / "x_train.embx", "--output", d / "index.gmvi",
         "--num-subspaces", 2, "--codebook-size", 4, "--kmeans-iters", 3],
        ["match", "--train", exp / "x_train.embx", "--gen", exp / "x_hat.embx", "--k", 3,
         "--output", d / "matches.jsonl"],
        ["value", "--matches", d / "matches.jsonl", "--n", 6, "--output", d / "values.csv"],
    ):
        assert run_cli(*argv).code == 0, argv
    return d, exp


def test_every_numeric_flag_is_probed():
    # --p takes a choice, which argparse checks
    numeric = {(command, _flag(opt.name))
               for opt in OPTIONS if opt.type in (int, float) and not opt.choices
               for command in opt.commands}
    assert {(PROBES[name][0][0], flag) for name, flag, _ in CASES} == numeric


@pytest.mark.parametrize("name, flag, value", CASES)
def test_edge_flag_values_exit_zero_or_two_with_one_line(tiny, name, flag, value):
    d, exp = tiny
    argv = [str(a).format(d=d, exp=exp) for a in PROBES[name][0]]
    r = run_cli(*argv, f"{flag}={value}")
    if r.code == 0:
        assert r.stderr == ""
    else:
        assert_one_error_line(r)


def test_a_flag_value_read_as_a_flag_is_an_argparse_usage_error(tiny):
    """Without ``=``, argparse takes ``-inf`` for a flag: its usage block
    and its own error line, exit 2, before genval sees the value."""
    d, _ = tiny
    r = run_cli("value", "--matches", d / "matches.jsonl", "--n", 6, "--temperature", "-inf")
    assert r.code == 2
    lines = r.stderr.splitlines()
    assert lines[0].startswith("usage: genval value")
    assert lines[-1] == "genval value: error: argument --temperature: expected one argument"
