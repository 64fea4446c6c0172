"""Independent work items spread over workers: the caller plus, on
Linux, child processes forked for the call (``map_processes``).

The caller takes items too, rather than waiting on its children, so one
worker forks no process at all. ``map_processes`` forks only where
forking is safe: on Linux, from the process's only Python thread, and
on Python >= 3.12 only while the process has no other OS thread either
(``lone_os_thread``), as ``os.fork`` then warns (a
``DeprecationWarning``) that the child may deadlock on a lock another
thread held; a BLAS thread pool counts. Elsewhere the items run in turn
on the caller. A child's memory is a copy-on-write image of the
caller's, so the peak RSS that ``getrusage`` reports for the run
(``ru_maxrss``) is that of the larger process, not the sum of both.
"""
from __future__ import annotations

import os
import pickle
import signal
import sys
import threading

from .errors import InternalError


def worker_count(items: int) -> int:
    """Workers for ``items`` independent items: never more than the items
    or the CPUs this process may run on (one when their count is unknown)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(items, cpus))


def lone_os_thread() -> bool:
    """Whether the process runs no OS thread but the caller's, as
    ``/proc/self/task`` lists them; False off Linux, which reads nothing."""
    return sys.platform == "linux" and len(os.listdir("/proc/self/task")) == 1


def _fork_is_safe() -> bool:
    """Whether ``map_processes`` may fork (see the module docstring)."""
    if sys.platform != "linux" or not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    return sys.version_info < (3, 12) or lone_os_thread()


def _share(fn, items: list, w: int, workers: int, catch) -> tuple[list, tuple | None]:
    """Run items w, w + workers, ... in turn until one raises ``catch``;
    returns their results and ``(index, exception)`` of the failed one."""
    results = []
    for i in range(w, len(items), workers):
        try:
            results.append(fn(items[i]))
        except catch as exc:
            return results, (i, exc)
    return results, None


def _child(fn, items: list, w: int, workers: int, pipe: int):
    """A forked worker: run its share, send it back pickled and leave by
    ``os._exit``, which runs no exit handler of the caller and flushes no
    stream buffer it inherited."""
    code = 1
    try:
        results, failure = _share(fn, items, w, workers, BaseException)
        if failure is not None:
            i, exc = failure
            try:
                pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
            except Exception:
                failure = (i, InternalError(f"item {i} raised {exc!r}, which its worker process cannot send"))
        data = memoryview(pickle.dumps((results, failure), pickle.HIGHEST_PROTOCOL))
        while data:
            data = data[os.write(pipe, data):]
        code = 0
    finally:
        os._exit(code)


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 20):
        chunks.append(chunk)
    return b"".join(chunks)


def _ended(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    return f"killed by {signal.Signals(-code).name}" if code < 0 else f"exit status {code}"


def map_processes(fn, items, workers: int) -> list:
    """``[fn(item) for item in items]``, spread over the caller and
    ``workers - 1`` forked child processes where forking is safe, and run
    in turn on the caller otherwise: either way, results come in item
    order, the exception of the lowest-index failed item is raised, and
    no item starts after a failure on its worker.

    Worker w runs items i ≡ w (mod workers) in index order, stopping at
    its first failure, and the caller is worker 0; so the lowest-index
    failure among the workers is the lowest-index item that fails at all.
    A child sends its results, or its exception, pickled through a pipe;
    an exception that cannot be pickled arrives as an ``InternalError``
    holding its repr. A child that ends without sending its share counts
    as its lowest item's failure, an ``InternalError`` that names its
    items. A ``KeyboardInterrupt`` or other ``BaseException`` of the
    caller's own item kills the children at once; every child is reaped
    before this returns or raises.
    """
    items = list(items)
    workers = min(workers, len(items))
    if workers < 2 or not _fork_is_safe():
        return [fn(item) for item in items]
    children: list[tuple[int, int, int]] = []  # (worker, pid, read end)
    shares = {}
    statuses = {}
    try:
        for w in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child(fn, items, w, workers, write)
            children.append((w, pid, read))
            os.close(write)  # so that the read end sees EOF when the child leaves
        shares[0] = _share(fn, items, 0, workers, Exception)
        for w, _, read in children:
            shares[w] = _read_all(read)
    finally:
        for w, pid, read in children:
            os.close(read)
            if w not in shares:
                os.kill(pid, signal.SIGKILL)
            statuses[w] = os.waitpid(pid, 0)[1]
    results = [None] * len(items)
    failed: dict[int, BaseException] = {}
    for w in range(workers):
        try:
            share, failure = shares[w] if w == 0 else pickle.loads(shares[w])
        except Exception:
            ran = ", ".join(map(str, range(w, len(items), workers)))
            failed[w] = InternalError(
                f"the worker process running items {ran} ended without a result ({_ended(statuses[w])})")
            continue
        results[w : w + len(share) * workers : workers] = share
        if failure is not None:
            failed[failure[0]] = failure[1]
    if failed:
        raise failed[min(failed)]
    return results
