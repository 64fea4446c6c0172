"""The runtime stays numpy-only: every module of the package imports the
standard library, numpy or its own modules, and nothing else. Each
command loads only the modules it runs, and ``compare`` runs on the
standard library alone; the package resolves each public name from its
module on first use."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import genval
from conftest import child_env, run_cli

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "genval"


def top_level_imports(path: Path) -> set[str]:
    """The top-level names ``path`` imports absolutely, found in its syntax
    tree wherever the import sits; relative imports are left out."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


STREAMS = {"stdin", "stdout", "stderr", "__stdin__", "__stdout__", "__stderr__"}


def stream_uses(path: Path) -> set[tuple[str, str]]:
    """Each (function, use) pair where ``path`` calls ``print`` or names a
    standard stream of ``sys`` (``sys.stdout``, ``from sys import stdin``);
    the function is the innermost def around it, "" at module level."""
    found = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "print":
                found.add((function, "print"))
            elif isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name) \
                    and child.value.id == "sys" and child.attr in STREAMS:
                found.add((function, "sys." + child.attr))
            elif isinstance(child, ast.ImportFrom) and child.module == "sys":
                found.update((function, "sys." + alias.name) for alias in child.names if alias.name in STREAMS)
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "")
    return found


def test_only_the_cli_touches_the_standard_streams():
    """``cli.main`` holds the one rule for a closed or broken standard
    stream, so no other module writes to one, and only
    ``textio.open_text`` reads stdin (for ``-``)."""
    found = {path.name: stream_uses(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {("cmd_compare", "print"), ("_error", "print"), ("_out_stream", "sys.stdout")} <= found.pop("cli.py")
    assert {name: uses for name, uses in found.items() if uses} == {"textio.py": {("open_text", "sys.stdin")}}


def test_the_package_imports_only_the_standard_library_and_numpy():
    found = {path.name: top_level_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert "numpy" in set().union(*found.values())
    outside = {name: sorted(names - {"numpy"} - sys.stdlib_module_names) for name, names in found.items()}
    assert {name: names for name, names in outside.items() if names} == {}


# the names the package exported when it imported every module up front
PUBLIC = {
    "embeddings": ["EmbeddingMatrix", "load_embeddings", "save_embeddings", "validate_pair"],
    "errors": ["ConfigError", "CorruptionError", "FormatError", "GenvalError", "InternalError",
               "ValidationError"],
    "pq": ["Codebook", "PQCodes", "PQConfig", "decode", "encode", "load_index", "quantization_error",
           "save_index", "train_codebooks"],
    "search": ["MatchTables", "batch_match", "read_match_jsonl", "recall_at_k", "write_match_jsonl"],
    "stats": ["TTestResult", "TransportResult", "exact_wasserstein", "welch_t_test"],
    "synth": ["ExperimentSpec", "component_means", "make_ra2_experiment", "sample_mixture",
              "simulate_generated"],
    "valuation": ["ValuationResult", "aggregate_values", "discount_scores"],
    "workers": [],
}


def test_every_public_name_is_its_modules_own():
    names = [name for names in PUBLIC.values() for name in names]
    for module, in_module in PUBLIC.items():
        for name in in_module:
            assert getattr(genval, name) is getattr(importlib.import_module(f"genval.{module}"), name)
    assert sorted(genval.__all__) == sorted([*names, *PUBLIC])
    assert set(names) <= set(dir(genval))
    star = {}
    exec("from genval import *", star)
    assert {name: star[name] for name in names} == {name: getattr(genval, name) for name in names}
    # the star import binds the public modules, as it did before
    assert {module: star[module] for module in PUBLIC} == {
        module: importlib.import_module(f"genval.{module}") for module in PUBLIC}
    with pytest.raises(AttributeError, match="no attribute 'welch'"):
        genval.welch  # noqa: B018
    # a bare import still reaches every public module as an attribute
    child = (f"import genval; assert set({sorted(PUBLIC)}) <= set(dir(genval)); "
             "assert genval.pq.encode is genval.encode and genval.stats.welch_t_test is genval.welch_t_test")
    done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=child_env(),
                          timeout=120)
    assert done.returncode == 0, done.stderr


LOADED_CHILD = """
import contextlib, io, json, sys
from genval.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def loaded(*argv) -> tuple[int, set[str]]:
    """The exit code of ``main(argv)`` in a fresh interpreter, and the
    modules loaded once it returns."""
    done = subprocess.run([sys.executable, "-c", LOADED_CHILD, json.dumps(list(map(str, argv)))],
                          capture_output=True, text=True, env=child_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout)
    return found["code"], set(found["modules"])


def test_each_command_loads_only_what_it_runs(tmp_path):
    exp, values = tmp_path / "exp", tmp_path / "v.csv"
    assert run_cli("synth", "--out-dir", exp, "--dim", 4, "--n-per-split", 20, "--m", 10).code == 0
    assert run_cli("value", "--inline", "--train", exp / "x_train.embx", "--gen", exp / "x_hat.embx",
                   "--output", values).code == 0
    for argv, want in [
        (["--values", values, "--partition", exp / "partition.json"], 0),
        (["--values-a", values, "--values-b", values], 0),
        (["--values", values, "--partition", exp / "x_hat.embx"], 2),
    ]:
        code, modules = loaded("compare", *argv)
        assert code == want
        assert not {m for m in modules if m.split(".")[0] == "numpy"}, argv

    code, modules = loaded("synth", "--out-dir", tmp_path / "again", "--dim", 4, "--n-per-split", 20)
    assert code == 0
    assert not {"genval.pq", "genval.search", "genval.stats", "genval.valuation", "genval.workers"} & modules
    code, modules = loaded("build-index", "--train", exp / "x_train.embx", "--output", tmp_path / "i.gmvi",
                           "--num-subspaces", 2, "--codebook-size", 4, "--kmeans-iters", 2)
    assert code == 0
    assert not {"genval.search", "genval.stats", "genval.synth", "genval.valuation"} & modules
    code, modules = loaded("value", "--inline", "--train", exp / "x_train.embx", "--gen", exp / "x_hat.embx",
                           "--output", tmp_path / "w.csv")
    assert code == 0
    assert not {"genval.pq", "genval.stats", "genval.synth"} & modules
