"""Independent work items spread over the caller and, on Linux, child
processes forked for the call (``map_processes``); one worker forks none.

Every forked section holds the OpenBLAS this process loaded (``openblas``)
at one thread, its pool shut down, and gives the caller its thread count
back however it ends. It forks only from the only Python thread while,
BLAS held so, no other OS thread runs (``lone_os_thread``): a child then
copies no lock another thread holds, nor a BLAS pool out of reach.
Where ``/proc`` cannot tell (``openblas`` or ``lone_os_thread`` raises
``OSError``), the items run in turn, BLAS untouched.
"""
from __future__ import annotations

import contextlib
import ctypes
import itertools
import os
import pickle
import signal
import sys
import threading

from .errors import InternalError

_MAPS = "/proc/self/maps"
# OpenBLAS's thread-count calls in numpy's scipy-openblas build, then a plain one's
_THREAD_CALLS = ("scipy_openblas_%s_num_threads64_", "openblas_%s_num_threads")
_INT_CALL = ctypes.CFUNCTYPE(ctypes.c_int)  # get_num_threads, blas_thread_shutdown_
_SET_CALL = ctypes.CFUNCTYPE(None, ctypes.c_int)


def worker_count(items: int) -> int:
    """Workers for ``items`` independent items: never more than the items
    or the CPUs this process may run on (one when their count is unknown)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(items, cpus))


def lone_os_thread() -> bool:
    """Whether the process runs no OS thread but the caller's, as
    ``/proc/self/task`` lists them; False off Linux, which reads nothing."""
    return sys.platform == "linux" and len(os.listdir("/proc/self/task")) == 1


def openblas() -> tuple | None:
    """``(get_num_threads, set_num_threads, thread_shutdown)`` of the
    OpenBLAS this process has loaded, found by its path in ``_MAPS``; None
    where none is, and off Linux, which reads nothing."""
    if sys.platform != "linux":
        return None
    with open(_MAPS, encoding="utf-8", errors="surrogateescape") as maps:
        paths = dict.fromkeys(line.split(maxsplit=5)[5].rstrip("\n") for line in maps
                              if "openblas" in line.rpartition("/")[2])
    for path, call in itertools.product(paths, _THREAD_CALLS):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            return (_INT_CALL((call % "get", lib)), _SET_CALL((call % "set", lib)),
                    _INT_CALL(("blas_thread_shutdown_", lib)))
        except (OSError, AttributeError):  # not loaded, or a call missing
            continue
    return None


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
    ``workers - 1`` forked children where the module's rule lets it fork,
    else run in turn on the caller: either way, results come in item
    order, the lowest-index failed item's exception is raised, and no
    item starts after a failure on its worker. ``items`` may be a function
    of the worker count the run takes instead (1 where it does not fork).

    Worker w runs items i ≡ w (mod workers) in index order, stopping at
    its first failure, and the caller is worker 0; so the lowest-index
    failure among the workers is the lowest-index item that fails at all.
    A child sends its results, or its exception, pickled through a pipe;
    an exception that cannot be pickled arrives as an ``InternalError``
    holding its repr. A child that ends without sending its share counts
    as its lowest item's failure, an ``InternalError`` that names its
    items. A ``KeyboardInterrupt`` or other ``BaseException`` of the
    caller's own item kills the children at once; every child is reaped
    before this returns or raises. A child's memory is a copy-on-write
    image of the caller's, so the peak RSS is the larger process's.
    """
    if not callable(items):
        items = list(items)
        workers = min(workers, len(items))
    if workers > 1 and hasattr(os, "fork") and threading.active_count() == 1:
        with contextlib.ExitStack() as section:
            fork = False
            with contextlib.suppress(OSError):  # no /proc to read
                if blas := openblas():
                    get_num_threads, set_num_threads, thread_shutdown = blas
                    section.callback(set_num_threads, get_num_threads())
                    set_num_threads(1)  # first: pinning a stopped pool starts it again
                    thread_shutdown()
                fork = lone_os_thread()
            if fork:
                return _forked(fn, items(workers) if callable(items) else items, workers)
    return [fn(item) for item in (items(1) if callable(items) else items)]


def _forked(fn, items: list, workers: int) -> list:
    """``map_processes``' forked section, for ``workers`` >= 2."""
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
