import contextlib
import io
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

# hypothesis imports this module when a @given test fails; its libcst
# import raises a DeprecationWarning, which pyproject.toml makes an error
# that would abort the whole session, so import it once here, quietly
# (without libcst, hypothesis skips it)
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

import genval
from genval import EmbeddingMatrix, save_embeddings
from genval.cli import main


# verdict lines recorded by the release-gate tests; replayed after the
# run so they survive pytest's fd-level capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance gates")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


class CliRun:
    def __init__(self, code, stdout, stderr):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr


def run_cli(*argv, stdin=""):
    """Drive the CLI in-process, capturing exit code and both streams."""
    out, err = io.StringIO(), io.StringIO()
    stdin_buf = io.StringIO(stdin)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        import sys

        old_stdin = sys.stdin
        sys.stdin = stdin_buf
        try:
            code = main([str(a) for a in argv])
        finally:
            sys.stdin = old_stdin
    return CliRun(code, out.getvalue(), err.getvalue())


# the variables that set the thread count of the common BLAS builds
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def child_env() -> dict:
    """The environment of a child Python that imports this checkout's genval,
    with stdout block-buffered, as a user's is, whatever PYTHONUNBUFFERED
    says here."""
    src = str(Path(genval.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def run_cli_process(*argv, cwd=None, stdin=b"", stdout=subprocess.PIPE):
    """Run the CLI in a child process, so that its stderr holds whatever
    the process prints there, warnings included; ``stdin`` is bytes, and
    ``stdout`` a file to write to in place of the captured pipe."""
    done = subprocess.run(
        [sys.executable, "-m", "genval.cli", *map(str, argv)],
        input=stdin, stdout=stdout, stderr=subprocess.PIPE, env=child_env(), cwd=cwd, timeout=120,
    )
    return CliRun(done.returncode, (done.stdout or b"").decode(errors="replace"),
                  done.stderr.decode(errors="replace"))


def assert_one_error_line(r, *needles):
    assert r.code == 2
    assert "Traceback" not in r.stderr
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("genval: error: "), r.stderr
    for needle in needles:
        assert needle in lines[0]


def make_value_csv(path, values):
    lines = ["train_index,value,rank"]
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    rank_of = {i: r + 1 for r, i in enumerate(order)}
    for i, v in enumerate(values):
        lines.append(f"{i},{v},{rank_of[i]}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def fake_cpus(monkeypatch, count):
    """Make ``workers.worker_count`` see ``count`` CPUs that this process
    may run on, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.fixture
def eight_cpus(monkeypatch):
    """Workers are capped at the CPU count; let a test start up to 8
    whatever the machine has."""
    fake_cpus(monkeypatch, 8)


def fake_os_threads(monkeypatch, count):
    """Make ``/proc/self/task`` list ``count`` OS threads of this process."""
    listdir = os.listdir
    tasks = [str(t) for t in range(count)]
    monkeypatch.setattr(os, "listdir", lambda path=".": tasks if path == "/proc/self/task" else listdir(path))


def unreadable_proc(monkeypatch, tmp_path, entry):
    """Make ``/proc/self/maps`` or ``/proc/self/task`` (``entry``) fail to
    be read, as where no ``/proc`` is mounted."""
    if entry == "maps":
        monkeypatch.setattr("genval.workers._MAPS", str(tmp_path / "no-proc" / "maps"))
        return
    listdir = os.listdir

    def no_tasks(path="."):
        if path == "/proc/self/task":
            raise FileNotFoundError(2, "No such file or directory", path)
        return listdir(path)

    monkeypatch.setattr(os, "listdir", no_tasks)


def forbidden_fork():
    raise AssertionError("a process was forked")


def counted_forks(monkeypatch):
    """A list that gets one entry for each ``os.fork`` of this process."""
    forks, fork = [], os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def on_cpus(monkeypatch, run, *counts) -> list:
    """``(run(), forks)`` for each CPU count of ``counts`` in turn, with
    ``/proc/self/task`` faked to list one OS thread, so that a scan on
    more than one CPU forks, and ``forks`` the ``os.fork`` calls of that
    run."""
    fake_os_threads(monkeypatch, 1)
    forks = counted_forks(monkeypatch)
    runs = []
    for count in counts:
        fake_cpus(monkeypatch, count)
        before = len(forks)
        runs.append((run(), len(forks) - before))
    return runs


def write_embx(path, array):
    save_embeddings(EmbeddingMatrix(np.asarray(array, dtype=np.float32)), path)
    return path


def traced_peak(fn) -> int:
    """Peak bytes that ``fn()`` allocates, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
