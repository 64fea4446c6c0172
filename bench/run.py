#!/usr/bin/env python3
"""Benchmark of the genval command-line pipeline.

Run from the repository root:

    python3 bench/run.py --workload value-exact --seed 1 --seconds 45 --trace 0

One benchmark process runs each CLI step as its own child process, one at a
time (a closed loop with one client), and repeats the workload's steps
until ``--seconds`` have passed. Children import genval from ``src/``
with the BLAS thread count pinned to ``BLAS_THREADS``. Inputs are pure
functions of ``--seed``. Every step's output is checked, and the sha256
of every artifact and of every step's stdout must repeat across
iterations, across runs with the same seed and between traced and
untraced runs. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics under ``--trace 0`` and the per-layer metrics under
``--trace 1``. ``--trace 1`` alternates untraced passes with traced
passes of the same steps (see ``tracer.py``) and adds bare-import
start-up probes. Details of the run
(machine, per-step times, digests, spans) go to ``.bench_out/``.
``--size smoke`` runs the same steps on tiny inputs in seconds.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One BLAS thread keeps the children's times steady on a shared machine;
# it never exceeds nproc.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPEATS = 3  # per round
STARTUP_REPEATS = 5
TRACE_ROUNDS = 2
STEP_TIMEOUT_S = 150.0
SPOT_CHECK_ROWS = 16
MIB = 2.0**20

SIZES = {
    "full": {
        "value-exact": {"dim": 128, "n_per_split": 10000, "m": 500, "k": 10},
        "pq-build": {"dim": 64, "n_per_split": 5000, "m": 1000, "k": 10,
                     "num_subspaces": 8, "codebook_size": 256, "kmeans_iters": 25},
        "value-replay": {"n": 100000, "m": 10000, "k": 50, "points": 256, "point_dim": 64},
    },
    "smoke": {
        "value-exact": {"dim": 16, "n_per_split": 300, "m": 100, "k": 10},
        "pq-build": {"dim": 16, "n_per_split": 300, "m": 50, "k": 10,
                     "num_subspaces": 4, "codebook_size": 16, "kmeans_iters": 5},
        "value-replay": {"n": 2000, "m": 300, "k": 10, "points": 32, "point_dim": 16},
    },
}

COMMANDS = ("synth", "value", "compare", "build-index", "match", "eval-recall", "wasserstein")
LAYERS = ("cli", "embeddings", "synth", "search", "valuation", "pq", "stats")

END_TO_END = {"pipeline_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}

# per-layer metrics read off the traced run: (metric, span, count key, unit);
# a missing count key means the spans' summed duration
SPAN_METRICS = (
    ("search.exact_s", "search.exact", None, "s"),
    ("search.exact_pairs", "search.exact", "pairs", "count"),
    ("search.adc_s", "search.adc", None, "s"),
    ("search.adc_lookups", "search.adc", "lookups", "count"),
    ("search.jsonl_write_s", "search.jsonl_write", None, "s"),
    ("search.jsonl_read_s", "search.jsonl_read", None, "s"),
    ("search.recall_s", "search.recall", None, "s"),
    ("pq.train_s", "pq.train", None, "s"),
    ("pq.encode_s", "pq.encode", None, "s"),
    ("pq.encode_distance_evals", "pq.encode", "distance_evals", "count"),
    ("pq.quantization_error_s", "pq.quantization_error", None, "s"),
    ("pq.save_index_s", "pq.save_index", None, "s"),
    ("pq.load_index_s", "pq.load_index", None, "s"),
    ("valuation.aggregate_s", "valuation.aggregate", None, "s"),
    ("valuation.credit_pairs", "valuation.aggregate", "credit_pairs", "count"),
    ("embeddings.load_s", "embeddings.load", None, "s"),
    ("embeddings.save_s", "embeddings.save", None, "s"),
    ("synth.experiment_s", "synth.experiment", None, "s"),
    ("stats.welch_s", "stats.welch", None, "s"),
    ("stats.wasserstein_s", "stats.wasserstein", None, "s"),
    ("stats.transport_points", "stats.wasserstein", "points", "count"),
)

PER_LAYER = {
    "cli.startup_s": "s",
    **{f"cli.{c}_{suffix}": unit for c in COMMANDS for suffix, unit in (("s", "s"), ("rss_mb", "MiB"))},
    **{metric: unit for metric, _, _, unit in SPAN_METRICS},
    "search.exact_gflops": "GFLOP/s",
    "search.jsonl_mb": "MiB",
    "search.recall_at_10": "ratio",
    "valuation.mass_residual": "ratio",
    "embeddings.load_mb": "MiB",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}


class SetupError(Exception):
    pass


# ----------------------------------------------------------------- children


@dataclass
class Child:
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for var in BLAS_ENV:
        env[var] = str(BLAS_THREADS)
    return env


class Spawner:
    """The launcher process (``spawn.py``) that starts every child of a run.

    It runs in its own process group, so ``close`` stops it together with
    any child it is running.
    """

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawn.py")], env=env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     start_new_session=True)

    def run(self, argv: list[str], cwd: Path, timeout: float = STEP_TIMEOUT_S) -> Child:
        self.proc.stdin.write(json.dumps({"argv": argv, "cwd": str(cwd), "timeout": timeout}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        return Child(**json.loads(line), stdout=(cwd / ".child.stdout").read_bytes(),
                     stderr=(cwd / ".child.stderr").read_bytes())

    def close(self) -> None:
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


# ------------------------------------------------------------------- checks


def values_csv_error(path: Path, n: int, m: int, expected: np.ndarray | None = None) -> str | None:
    """Check a values CSV: n rows, ranks a permutation of 1..n, mass m."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (n, 3):
        return f"values CSV has shape {table.shape}, expected ({n}, 3)"
    if not np.array_equal(table[:, 0], np.arange(n)):
        return "values CSV train_index column is not 0..n-1"
    if not np.array_equal(np.sort(table[:, 2]), np.arange(1, n + 1)):
        return "values CSV ranks are not a permutation of 1..n"
    total = float(table[:, 1].sum())
    if abs(total - m) > 1e-6 * m:
        return f"values sum to {total!r}, expected {m} within 1e-6*m"
    if expected is not None and not np.allclose(table[:, 1], expected, rtol=1e-6, atol=1e-9):
        worst = int(np.argmax(np.abs(table[:, 1] - expected)))
        return f"value of row {worst} is {table[worst, 1]!r}, numpy recompute gives {expected[worst]!r}"
    return None


def key_values(text: str) -> dict[str, str]:
    """Parse whitespace-separated ``key=value`` tokens."""
    return dict(tok.split("=", 1) for tok in text.split() if "=" in tok)


def finite_error(text: str, key: str, lo: float = -math.inf, hi: float = math.inf) -> str | None:
    raw = key_values(text).get(key)
    try:
        val = float(raw)
    except (TypeError, ValueError):
        return f"no parsable {key}= in output"
    if not (math.isfinite(val) and lo <= val <= hi):
        return f"{key}={raw} is not finite within [{lo}, {hi}]"
    return None


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------- workloads


@dataclass
class Step:
    args: list[str]  # genval arguments; args[0] is the subcommand
    outputs: list[str] = field(default_factory=list)  # files the step writes
    check: Callable[[str], str | None] = lambda stdout: None

    @property
    def command(self) -> str:
        return self.args[0]


class Workload:
    """A seeded set of inputs and the CLI steps run on them."""

    def __init__(self, work: Path, seed: int, params: dict):
        self.work, self.seed, self.p = work, seed, params
        self.recall_at_10 = 0.0

    def setup(self, genval: Callable[[list[str]], Child]) -> None:
        """Write the inputs; ``genval`` runs a CLI command as a child."""

    def steps(self) -> list[Step]:
        raise NotImplementedError


def _synth_args(p: dict, seed: int) -> list[str]:
    return ["synth", "--out-dir", "exp", "--dim", str(p["dim"]),
            "--n-per-split", str(p["n_per_split"]), "--m", str(p["m"]), "--seed", str(seed)]


def _synth(genval: Callable[[list[str]], Child], p: dict, seed: int) -> None:
    child = genval(_synth_args(p, seed))
    if child.returncode != 0:
        raise SetupError(f"synth exited {child.returncode}: {child.stderr.decode()[-500:]}")


SYNTH_OUTPUTS = ["exp/x_v1.embx", "exp/x_v2.embx", "exp/x_train.embx", "exp/x_hat.embx",
                 "exp/partition.json", "exp/experiment.json"]


class ValueExact(Workload):
    """synth -> value --inline (exact scan) -> compare: the paper's main pipeline.

    Set-up runs the same synth once more and writes a seeded sample of
    its query rows, for the untimed exact-match check ``check_sample``.
    """

    def setup(self, genval) -> None:
        _synth(genval, self.p, self.seed)
        gen = inputs.read_embx(self.work / "exp/x_hat.embx")
        self.sample = inputs.sample_rows(self.seed, gen.shape[0], SPOT_CHECK_ROWS)
        inputs.write_embx(self.work / "sample.embx", gen[self.sample])

    def steps(self) -> list[Step]:
        p = self.p
        n = 2 * p["n_per_split"]
        return [
            Step(_synth_args(p, self.seed), SYNTH_OUTPUTS, self._check_synth),
            Step(["value", "--inline", "--train", "exp/x_train.embx", "--gen", "exp/x_hat.embx",
                  "--k", str(p["k"]), "--output", "values.csv"], ["values.csv"],
                 lambda out: values_csv_error(self.work / "values.csv", n, p["m"])),
            Step(["compare", "--values", "values.csv", "--partition", "exp/partition.json"], [],
                 lambda out: None if "REJECT H0" in out else "compare did not print REJECT H0"),
        ]

    def _check_synth(self, out: str) -> str | None:
        counts = json.loads(out)["counts"]
        n, m = self.p["n_per_split"], self.p["m"]
        if counts != {"x_v1": n, "x_v2": n, "x_train": 2 * n, "x_hat": m}:
            return f"synth reported counts {counts}"
        return None

    def check_sample(self, genval) -> str | None:
        """The program's exact index rows of the sample equal a direct numpy recompute."""
        child = genval(["match", "--train", "exp/x_train.embx", "--gen", "sample.embx",
                        "--k", str(self.p["k"]), "--output", "sample.jsonl"])
        if child.returncode != 0:
            return f"sample match exited {child.returncode}: {child.stderr.decode(errors='replace')[-500:]}"
        train = inputs.read_embx(self.work / "exp/x_train.embx").astype(np.float64)
        gen = inputs.read_embx(self.work / "sample.embx").astype(np.float64)
        lines = (self.work / "sample.jsonl").read_text().splitlines()
        if len(lines) != len(gen):
            return f"sample match file has {len(lines)} rows, expected {len(gen)}"
        k = self.p["k"]
        for j, (query, line) in enumerate(zip(gen, lines)):
            diff = train - query
            d2 = np.einsum("ij,ij->i", diff, diff)
            want = np.lexsort((np.arange(d2.size), d2))[:k]
            got = [pair["train_index"] for pair in json.loads(line)["matches"]]
            if got != want.tolist():
                return f"exact match of query row {self.sample[j]}: got {got}, numpy gives {want.tolist()}"
        return None


class PQBuild(Workload):
    """build-index -> match --mode pq -> eval-recall on a synth corpus made in setup."""

    def setup(self, genval) -> None:
        _synth(genval, self.p, self.seed)

    def steps(self) -> list[Step]:
        p = self.p
        return [
            Step(["build-index", "--train", "exp/x_train.embx", "--output", "index.gmvi",
                  "--num-subspaces", str(p["num_subspaces"]), "--codebook-size", str(p["codebook_size"]),
                  "--kmeans-iters", str(p["kmeans_iters"]), "--seed", str(self.seed)],
                 ["index.gmvi"], self._check_index),
            Step(["match", "--mode", "pq", "--index", "index.gmvi", "--gen", "exp/x_hat.embx",
                  "--k", str(p["k"]), "--output", "pq.jsonl"], ["pq.jsonl"], self._check_matches),
            Step(["eval-recall", "--train", "exp/x_train.embx", "--gen", "exp/x_hat.embx",
                  "--index", "index.gmvi", "--k", str(p["k"])], [], self._check_recall),
        ]

    def _check_index(self, out: str) -> str | None:
        return finite_error(out, "quantization_error", lo=0.0) or inputs.gmvi_size_error(
            self.work / "index.gmvi", 2 * self.p["n_per_split"])

    def _check_matches(self, out: str) -> str | None:
        n, k = 2 * self.p["n_per_split"], self.p["k"]
        lines = (self.work / "pq.jsonl").read_text().splitlines()
        if len(lines) != self.p["m"]:
            return f"pq match file has {len(lines)} rows, expected {self.p['m']}"
        for j, line in enumerate(lines):
            pairs = json.loads(line)["matches"]
            idx = [pair["train_index"] for pair in pairs]
            dist = [pair["distance"] for pair in pairs]
            if len(pairs) != k or len(set(idx)) != k or not all(0 <= i < n for i in idx) \
                    or dist != sorted(dist):
                return f"pq match row {j} is not {k} distinct in-range rows sorted by distance"
        return None

    def _check_recall(self, out: str) -> str | None:
        for key in ("recall@1", "recall@10"):
            error = finite_error(out, key, 0.0, 1.0)
            if error:
                return error
        self.recall_at_10 = float(key_values(out)["recall@10"])
        return None


class ValueReplay(Workload):
    """value --matches on a large seeded match file -> compare -> wasserstein.

    No scan and no PQ: the time goes to JSONL parsing, credit
    aggregation, the values CSV, the Welch test and the Hungarian solve.
    """

    def setup(self, genval) -> None:
        p, work = self.p, self.work
        indices, distances = inputs.write_replay_matches(
            work / "replay.jsonl", self.seed, p["n"], p["m"], p["k"])
        inputs.write_partition(work / "partition.json", self.seed, p["n"])
        inputs.write_point_sets(work / "source.embx", work / "target.embx",
                                self.seed, p["points"], p["point_dim"])
        credit = np.exp(-(distances - distances[:, :1]))
        credit /= credit.sum(axis=1, keepdims=True)
        self.expected = np.bincount(indices.ravel(), weights=credit.ravel(), minlength=p["n"])

    def steps(self) -> list[Step]:
        p = self.p
        return [
            Step(["value", "--matches", "replay.jsonl", "--n", str(p["n"]), "--output", "values.csv"],
                 ["values.csv"],
                 lambda out: values_csv_error(self.work / "values.csv", p["n"], p["m"], self.expected)),
            Step(["compare", "--values", "values.csv", "--partition", "partition.json"], [],
                 lambda out: finite_error(out, "p", 0.0, 1.0)),
            Step(["wasserstein", "--source", "source.embx", "--target", "target.embx", "--p", "2"], [],
                 lambda out: finite_error(out, "cost", lo=0.0)),
        ]


WORKLOADS = {"value-exact": ValueExact, "pq-build": PQBuild, "value-replay": ValueReplay}


# ------------------------------------------------------------------- runner


@dataclass
class Pass:
    """One pass over a workload's steps."""

    children: list[tuple[str, Child]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for _, c in self.children)

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for _, c in self.children)

    @property
    def rss_mb(self) -> float:
        return max(c.rss_mb for _, c in self.children)


class Bench:
    def __init__(self, args, work: Path, spawner: Spawner):
        self.args = args
        self.work = work
        self.spawner = spawner
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.workload = WORKLOADS[args.workload](work, args.seed, SIZES[args.size][args.workload])
        self.spans_path = work / "spans.jsonl"

    def genval(self, args: list[str]) -> Child:
        return self.spawner.run([sys.executable, "-m", "genval.cli", *args], self.work)

    def traced(self, run_id: str) -> Callable[[list[str]], Child]:
        """A launcher that runs a command under tracer.py, its spans tagged with ``run_id``."""
        def launch(args: list[str]) -> Child:
            return self.spawner.run(
                [sys.executable, str(BENCH / "tracer.py"), str(self.spans_path), run_id, *args], self.work)
        return launch

    def run_pass(self, steps: list[Step], launch: Callable[[list[str]], Child]) -> Pass:
        """Run steps in order; stop at the first one that fails."""
        result = Pass()
        for i, step in enumerate(steps):
            for rel in step.outputs:
                (self.work / rel).unlink(missing_ok=True)
            child = launch(step.args)
            self.attempted += 1
            result.children.append((step.command, child))
            if child.returncode != 0:
                error = f"exited {child.returncode}: {child.stderr.decode(errors='replace')[-500:]}"
            else:
                try:
                    error = step.check(child.stdout.decode())
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    error = f"output check raised {exc!r}"
            if error:
                self.failed += 1
                result.errors.append(f"{step.command}: {error}")
                break
            result.digests[f"{i}.{step.command}.stdout"] = hashlib.sha256(child.stdout).hexdigest()
            for rel in step.outputs:
                result.digests[rel] = sha256_file(self.work / rel)
        return result

    def check_digests(self, got: dict[str, str], want: dict[str, str], what: str) -> None:
        self.attempted += 1
        diff = sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))
        if diff:
            self.failed += 1
            self.notes.append(f"digests differ from {what}: {', '.join(diff)}")

    def setup(self) -> float:
        """Write the workload's inputs; returns the seconds it took."""
        start = time.perf_counter()
        self.workload.setup(self.genval)
        return time.perf_counter() - start

    def run(self) -> dict:
        args = self.args
        # the warm-up child fills the bytecode and page caches; it is not timed
        warm = self.spawner.run([sys.executable, "-c", "import genval.cli"], self.work)
        if warm.returncode != 0:
            raise SetupError(f"cannot import genval.cli: {warm.stderr.decode()[-500:]}")
        steps = self.workload.steps()
        setup_s: list[float] = []
        passes: list[Pass] = []
        traced: list[Pass] = []
        start = time.perf_counter()
        last = 0.0
        # A round is SETUP_REPEATS set-ups, then one untraced pass, plus one traced pass
        # under --trace 1 in alternating order, so that drift in the
        # machine's speed favours neither. Redoing the set-up in every round
        # spreads its times over the run like the passes', rather than
        # taking them all in one window of the machine's speed; repeating it
        # within a round gives a run of few long rounds enough of them. Start
        # another round only if it should end within --seconds, so a run's
        # length does not depend on where the last round happens to end;
        # --trace 1 does at least TRACE_ROUNDS rounds.
        while not passes or time.perf_counter() - start + last <= args.seconds \
                or (args.trace and len(passes) < TRACE_ROUNDS):
            begun = time.perf_counter()
            setup_s.extend(self.setup() for _ in range(SETUP_REPEATS))
            if not passes and isinstance(self.workload, ValueExact):
                self.attempted += 1
                error = self.workload.check_sample(self.genval)
                if error:
                    self.failed += 1
                    self.notes.append(f"match: {error}")
            order = [(passes, self.genval)]
            if args.trace:
                order.append((traced, self.traced(f"{args.workload}:{args.seed}:traced:{len(traced)}")))
                if len(passes) % 2:
                    order.reverse()
            for out, launch in order:
                out.append(self.run_pass(steps, launch))
                if out[-1].errors:
                    break
            last = time.perf_counter() - begun
            if self.failed:
                break
        clean = [p for p in passes if not p.errors]
        for p in clean[1:]:
            self.check_digests(p.digests, clean[0].digests, "the first pass")
        if clean:
            for p in traced:
                if not p.errors:
                    self.check_digests(p.digests, clean[0].digests, "the untraced pass")
        # keyed by the input sizes too, so resizing a workload starts a new record
        sizes = hashlib.sha256(json.dumps(self.workload.p, sort_keys=True).encode()).hexdigest()[:8]
        record_path = OUT / f"digests-{args.workload}-{args.size}-{sizes}-seed{args.seed}.json"
        if clean:
            if record_path.exists():
                self.check_digests(clean[0].digests, json.loads(record_path.read_text()),
                                   "an earlier run with this seed")
            else:
                record_path.write_text(json.dumps(clean[0].digests, indent=1, sort_keys=True) + "\n")

        detail = {"setup_s": setup_s, "passes": [self.describe(p) for p in passes]}
        if args.trace:
            detail["traced_passes"] = [self.describe(p) for p in traced]
            metrics = self.per_layer(clean, list(zip(passes, traced)), detail)
        else:
            metrics = {
                "pipeline_s": statistics.median(p.wall_s for p in passes),
                "cpu_s": statistics.median(p.cpu_s for p in passes),
                "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
                "setup_s": statistics.median(setup_s),
            }
        units = PER_LAYER if args.trace else END_TO_END
        result = {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
        detail["errors"] = [e for p in passes + traced for e in p.errors] + self.notes
        self.save(detail, result)
        return result

    def per_layer(self, clean: list[Pass], rounds: list[tuple[Pass, Pass]], detail: dict) -> dict:
        """Per-layer metrics: medians over the traced passes and the untraced ones."""
        startup = [self.spawner.run([sys.executable, "-c", "import genval.cli"], self.work).wall_s
                   for _ in range(STARTUP_REPEATS)]
        detail["startup_s"] = startup
        spans = [json.loads(line) for line in self.spans_path.read_text().splitlines()] \
            if self.spans_path.exists() else []
        if spans:
            shutil.copyfile(self.spans_path, self.out_stem().with_suffix(".spans.jsonl"))
        by_run: dict[str, list[dict]] = defaultdict(list)
        for span in spans:
            by_run[span["run"]].append(span)

        metrics = dict.fromkeys(PER_LAYER, 0)
        per_pass = [span_metrics(run_spans) for run_spans in by_run.values()]
        if per_pass:
            metrics.update({key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]})
        metrics["cli.startup_s"] = statistics.median(startup)
        for command in COMMANDS:
            runs = [c for p in clean for name, c in p.children if name == command]
            if runs:
                metrics[f"cli.{command}_s"] = statistics.median(c.wall_s for c in runs)
                metrics[f"cli.{command}_rss_mb"] = statistics.median(c.rss_mb for c in runs)
        metrics["search.recall_at_10"] = self.workload.recall_at_10
        ratios = [t.wall_s / u.wall_s - 1.0 for u, t in rounds if not (u.errors or t.errors)]
        detail["overhead_ratios"] = ratios
        if ratios:
            metrics["trace.overhead_ratio"] = statistics.median(ratios)
        return metrics

    @staticmethod
    def describe(p: Pass) -> dict:
        return {
            "steps": [{"command": name, "wall_s": c.wall_s, "cpu_s": c.cpu_s, "rss_mb": c.rss_mb,
                       "returncode": c.returncode} for name, c in p.children],
            "errors": p.errors,
            "digests": p.digests,
        }

    def out_stem(self) -> Path:
        a = self.args
        return OUT / f"{a.workload}-{a.size}-seed{a.seed}-trace{a.trace}"

    def save(self, detail: dict, result: dict) -> None:
        record = {"run": vars(self.args), "machine": machine_record(), **detail, "result": result}
        self.out_stem().with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
        for line in detail["errors"]:
            print(f"bench: {line}", file=sys.stderr)


def span_metrics(spans: list[dict]) -> dict:
    """Per-call totals, work counts and per-layer self times from spans."""
    child_time: dict[str, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    seconds: dict[str, float] = defaultdict(float)
    counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(int))
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s in spans:
        duration = s["end"] - s["start"]
        seconds[s["name"]] += duration
        out[s["name"].split(".")[0] + ".self_s"] += max(0.0, duration - child_time[s["id"]])
        for key, value in s["counts"].items():
            bucket = counts[s["name"]]
            bucket[key] = max(bucket[key], value) if key == "mass_residual" else bucket[key] + value
    for metric, span, key, _ in SPAN_METRICS:
        out[metric] = seconds[span] if key is None else counts[span][key]
    if seconds["search.exact"] > 0:
        out["search.exact_gflops"] = counts["search.exact"]["flops"] / seconds["search.exact"] / 1e9
    out["search.jsonl_mb"] = (counts["search.jsonl_write"]["bytes"] + counts["search.jsonl_read"]["bytes"]) / MIB
    out["valuation.mass_residual"] = counts["valuation.aggregate"]["mass_residual"]
    out["embeddings.load_mb"] = counts["embeddings.load"]["bytes"] / MIB
    out["trace.spans"] = len(spans)
    return out


def machine_record() -> dict:
    """Where and on what the numbers were taken; metadata, not metrics."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                             cpu_model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
        "src_genval_lines": sum(len(p.read_bytes().splitlines()) for p in sorted((SRC / "genval").glob("*.py"))),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to repeat the steps")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "genval" / "cli.py").is_file():
        print(f"bench: no genval sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    work.mkdir(parents=True)
    spawner = Spawner(child_env())
    try:
        result = Bench(args, work, spawner).run()
    except SetupError as exc:
        print(f"bench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
