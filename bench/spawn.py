"""Launcher that runs the benchmark's child processes and reports their rusage.

Usage: python3 spawn.py  (reads one JSON request per line on stdin)

Each request ``{"argv", "cwd", "timeout"}`` runs one child with stdout
and stderr in ``cwd/.child.stdout`` and ``cwd/.child.stderr``, and
answers with one JSON line ``{"returncode", "wall_s", "cpu_s",
"rss_mb"}``. On Linux a child's ``ru_maxrss`` starts at its parent's
peak RSS, so the children must not be started by the benchmark process,
whose numpy checks can outgrow them. This process imports nothing but
the standard library, which keeps that floor low.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run_child(argv: list[str], cwd: str, timeout: float) -> dict:
    """Run one child to completion; wall time, CPU time and peak RSS come from wait4."""
    with open(os.path.join(cwd, ".child.stdout"), "wb") as out, \
            open(os.path.join(cwd, ".child.stderr"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
        lock = threading.Lock()
        reaping = False

        def kill_on_timeout():
            with lock:
                if not reaping:
                    proc.kill()

        timer = threading.Timer(timeout, kill_on_timeout)
        timer.start()
        try:
            # wait for the exit without reaping, so the timer never signals a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        except BaseException:
            timer.cancel()
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        with lock:
            reaping = True
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
    return {
        "returncode": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,  # KiB on Linux
    }


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        result = run_child(request["argv"], request["cwd"], request["timeout"])
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
