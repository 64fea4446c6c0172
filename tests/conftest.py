import contextlib
import io
import os
import tracemalloc

import numpy as np
import pytest

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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def eight_cpus(monkeypatch):
    """Workers are capped at the CPU count; let a test start up to 8
    whatever the machine has."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)


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
