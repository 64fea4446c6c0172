"""Smoke tests of the benchmark: run with ``python -m pytest bench``."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import WORKLOADS, span_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "value-exact", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_child_spans():
    spans = [
        {"id": "a", "parent": None, "name": "cli.value", "start": 0.0, "end": 10.0, "counts": {}},
        {"id": "b", "parent": "a", "name": "search.exact", "start": 1.0, "end": 7.0,
         "counts": {"pairs": 4, "flops": 12e9}},
        {"id": "c", "parent": "a", "name": "pq.quantization_error", "start": 7.0, "end": 9.0, "counts": {}},
        {"id": "d", "parent": "c", "name": "pq.encode", "start": 7.5, "end": 8.5, "counts": {}},
    ]
    out = span_metrics(spans)
    assert out["cli.self_s"] == pytest.approx(2.0)
    assert out["search.self_s"] == pytest.approx(6.0)
    assert out["pq.self_s"] == pytest.approx(2.0)
    assert out["pq.quantization_error_s"] == pytest.approx(2.0)
    assert out["search.exact_pairs"] == 4
    assert out["search.exact_gflops"] == pytest.approx(2.0)
    assert out["trace.spans"] == 4
