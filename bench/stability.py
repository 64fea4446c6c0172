#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 bench/stability.py --seeds 1-10 --out bench/baseline.json

For every workload and end-to-end metric it prints the median and the
spread, (Q3 - Q1) / median with quartiles from
``statistics.quantiles(values, n=4)``, next to a third of the metric's
bound from BENCHMARK.json. ``--out`` writes the machine record, the
per-run values, the summary and the per-layer metrics of one traced run
per workload (first seed) as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import machine_record

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def bench_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", type=Path, help="write runs and summary here as JSON")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"machine": machine_record(), "seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    worst = 0.0
    for workload in args.workloads:
        runs = [bench_once(workload, seed, args.seconds, 0) for seed in args.seeds]
        summary = {}
        for name, bound in bounds.items():
            values = [run[name] for run in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            flag = "" if spread < bound / 3 else "  <-- above bound/3"
            worst = max(worst, spread / bound)
            print(f"{workload:13s} {name:12s} median={med:10.4f} spread={spread:7.4f} "
                  f"bound/3={bound / 3:.4f}{flag}", flush=True)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        if args.out:
            report["workloads"][workload]["per_layer"] = bench_once(workload, args.seeds[0], args.seconds, 1)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"largest spread as a share of its bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
