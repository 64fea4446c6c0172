import os
import sys
import threading
import time

import pytest

from genval.workers import map_items, worker_count


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_results_come_back_in_item_order(workers):
    # later items finish first
    def square(i):
        time.sleep((6 - i) * 0.002)
        return i * i

    assert map_items(square, range(6), workers) == [i * i for i in range(6)]


def test_the_lowest_failing_item_wins():
    def fail(i):
        if i == 2:
            time.sleep(0.1)  # item 4 fails first
        if i in (2, 4):
            raise ValueError(i)
        return i

    threads = threading.active_count()
    with pytest.raises(ValueError, match="^2$"):
        map_items(fail, range(6), 2)
    assert threading.active_count() == threads


def test_a_started_threads_failure_reaches_the_caller():
    both_running = threading.Barrier(2, timeout=10)

    def fail_off_the_calling_thread(i):
        both_running.wait()
        if threading.current_thread() is not threading.main_thread():
            raise KeyError(i)
        return i

    threads = threading.active_count()
    with pytest.raises(KeyError):
        map_items(fail_off_the_calling_thread, range(2), 2)
    assert threading.active_count() == threads


def test_no_item_starts_after_a_failure():
    ran = []

    def fail_on_one(i):
        ran.append(i)
        if i == 1:
            raise ValueError(i)

    with pytest.raises(ValueError):
        map_items(fail_on_one, range(5), 1)
    assert ran == [0, 1]


def test_one_worker_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", no_thread)
    ran_on = map_items(lambda i: threading.current_thread(), range(4), 1)
    assert ran_on == [threading.main_thread()] * 4


def test_no_items():
    assert map_items(lambda i: i, [], 4) == []


@pytest.mark.parametrize("items, limit, cpus, workers", [
    (8, None, 2, 2),  # capped at the CPU count
    (1, None, 2, 1),  # capped at the items
    (8, None, None, 1),  # CPU count unknown: one worker
    (8, 3, 64, 3),  # capped at the limit
    (0, None, 4, 1),  # no items still take one worker
])
def test_worker_count(monkeypatch, items, limit, cpus, workers):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert worker_count(items, limit) == workers


def test_every_item_runs_once_under_forced_switching():
    """More workers than cores, switching threads as often as the
    interpreter allows: no item is lost or taken twice."""
    runs = [0] * 2000

    def count(i):
        runs[i] += 1  # each item is one thread's alone
        return i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert map_items(count, range(len(runs)), 8) == list(range(len(runs)))
    finally:
        sys.setswitchinterval(interval)
    assert runs == [1] * len(runs)
