"""Independent work items spread over the calling thread and started threads.

The calling thread takes items too, rather than waiting on a pool: glibc
gives every thread that allocates its own malloc arena, so a waiting
caller would cost one arena more than the work needs. One worker starts
no thread at all.
"""
from __future__ import annotations

import os
import threading


def worker_count(items: int, limit: int | None = None) -> int:
    """Workers for ``items`` independent items: never more than the items,
    the CPUs (one when their count is unknown) or ``limit``."""
    return max(1, min(items, os.cpu_count() or 1, items if limit is None else limit))


def map_items(fn, items, workers: int) -> list:
    """``[fn(item) for item in items]``, run on the calling thread plus up
    to ``workers - 1`` started threads, each taking the next item in turn.

    Every started thread is joined before this returns. If items raise,
    no further item starts, and the exception of the lowest-index failed
    item is raised here: items start in index order, so that is the
    lowest-index item that fails at all.
    """
    items = list(items)
    results = [None] * len(items)
    failed: dict[int, BaseException] = {}
    lock = threading.Lock()
    todo = iter(range(len(items)))

    def work():
        while True:
            with lock:
                i = None if failed else next(todo, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                with lock:
                    failed[i] = exc

    started = []
    try:
        for _ in range(min(workers, len(items)) - 1):
            thread = threading.Thread(target=work)
            thread.start()
            started.append(thread)
        work()
    finally:
        with lock:
            for _ in todo:  # a caller that stops early starts no further item
                pass
        for thread in started:
            thread.join()
    if failed:
        raise failed[min(failed)]
    return results
