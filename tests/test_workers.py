import builtins
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from conftest import fake_cpus, fake_os_threads, forbidden_fork, unreadable_proc
from genval import workers
from genval.errors import InternalError
from genval.workers import lone_os_thread, map_processes, openblas, worker_count


@pytest.fixture
def no_fork(monkeypatch):
    """``map_processes`` as it runs where it may not fork: each item in
    turn on the caller."""
    monkeypatch.delattr(os, "fork")


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_results_come_back_in_item_order(no_fork, workers):
    assert map_processes(lambda i: i * i, range(6), workers) == [i * i for i in range(6)]


def test_the_lowest_failing_item_wins(no_fork):
    def fail(i):
        if i in (2, 4):
            raise ValueError(i)
        return i

    with pytest.raises(ValueError, match="^2$"):
        map_processes(fail, range(6), 2)


def test_no_item_starts_after_a_failure(no_fork):
    ran = []

    def fail_on_one(i):
        ran.append(i)
        if i == 1:
            raise ValueError(i)

    with pytest.raises(ValueError):
        map_processes(fail_on_one, range(5), 2)
    assert ran == [0, 1]


def test_no_items(no_fork):
    assert map_processes(lambda i: i, [], 4) == []


@pytest.mark.parametrize("items, affinity, cpus, workers", [
    (8, 2, 2, 2),  # capped at the CPUs
    (1, 2, 2, 1),  # capped at the items
    (8, 1, 2, 1),  # capped at the CPUs this process may run on
    (8, 3, 64, 3),  # so, on a machine of many more
    (8, None, 2, 2),  # no affinity to read: the CPU count
    (8, None, None, 1),  # neither known: one worker
    (0, 4, 4, 1),  # no items still take one worker
])
def test_worker_count(monkeypatch, items, affinity, cpus, workers):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        fake_cpus(monkeypatch, affinity)
    assert worker_count(items) == workers


@pytest.mark.parametrize("workers", [2, 3])
def test_processes_return_results_in_item_order(workers):
    # later items finish first; each further worker is its own process
    def square(i):
        time.sleep((6 - i) * 0.002)
        return i * i, os.getpid()

    got = map_processes(square, range(7), workers)
    assert [r for r, _ in got] == [i * i for i in range(7)]
    assert got[0][1] == os.getpid()
    assert len({pid for _, pid in got}) == workers
    assert all(pid == got[i % workers][1] for i, (_, pid) in enumerate(got))


@pytest.mark.parametrize("failing, raised", [
    ((2, 5), 2),  # the caller's item is the lower
    ((3, 4), 3),  # the child's item is the lower
])
def test_the_lowest_failing_item_wins_across_processes(failing, raised):
    def fail(i):
        if i == max(failing):
            time.sleep(0.05)
        if i in failing:
            raise ValueError(i)
        return i

    with pytest.raises(ValueError, match=f"^{raised}$"):
        map_processes(fail, range(8), 2)
    assert_no_child()


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_killed_child_is_an_internal_error():
    caller = os.getpid()

    def die_off_the_caller(i):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return i

    with pytest.raises(InternalError, match="^the worker process running items 1, 3, 5 ended "
                                            "without a result [(]killed by SIGKILL[)]$"):
        map_processes(die_off_the_caller, range(6), 2)
    assert_no_child()


def test_an_exception_that_cannot_be_pickled_arrives_as_its_repr():
    class Local(Exception):  # pickle finds no class by this name
        pass

    def fail(i):
        if i == 1:
            raise Local("spilled")
        return i

    with pytest.raises(InternalError, match=r"^item 1 raised .*Local\('spilled'\)"):
        map_processes(fail, range(4), 2)
    assert_no_child()


@pytest.mark.parametrize("raised", [None, ValueError, KeyboardInterrupt])
def test_every_child_is_reaped(raised):
    """After a success, a failure and an interrupt of the caller's own
    item, the caller has no child left, running or exited, and no pipe."""
    def work(i):
        if i == 0 and raised is not None:
            raise raised
        time.sleep(0.01)
        return i

    fds = sorted(os.listdir("/proc/self/fd"))
    if raised is None:
        assert map_processes(work, range(6), 3) == list(range(6))
    else:
        with pytest.raises(raised):
            map_processes(work, range(6), 3)
    assert_no_child()
    assert sorted(os.listdir("/proc/self/fd")) == fds


def test_an_interrupt_of_the_callers_item_stops_the_children():
    def work(i):
        if i == 0:
            raise KeyboardInterrupt
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        map_processes(work, range(2), 2)
    assert time.monotonic() - start < 30
    assert_no_child()


def test_without_fork_the_items_run_in_turn_on_the_caller(no_fork):
    ran = []

    def work(i):
        ran.append(i)
        return i, os.getpid()

    assert map_processes(work, range(4), 2) == [(i, os.getpid()) for i in range(4)]
    assert ran == [0, 1, 2, 3]


def test_another_python_thread_keeps_the_work_in_process():
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        got = map_processes(lambda i: os.getpid(), range(4), 2)
    finally:
        release.set()
        other.join()
    assert got == [os.getpid()] * 4


def test_one_worker_forks_no_child(monkeypatch):
    def no_fork():
        raise AssertionError("a process was forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert map_processes(lambda i: os.getpid(), range(3), 1) == [os.getpid()] * 3


def test_another_os_thread_keeps_the_work_in_process(monkeypatch):
    """A child would copy a lock another OS thread may hold, or a BLAS
    pool this module cannot reach: /proc/self/task lists them."""
    listdir = os.listdir
    monkeypatch.setattr(os, "listdir", lambda path: ["1", "2"] if path == "/proc/self/task" else listdir(path))
    assert map_processes(lambda i: os.getpid(), range(4), 2) == [os.getpid()] * 4
    monkeypatch.setattr(os, "listdir", lambda path: ["1"] if path == "/proc/self/task" else listdir(path))
    assert os.getpid() not in map_processes(lambda i: os.getpid(), range(4), 2)[1::2]


def test_lone_os_thread_counts_the_tasks_of_the_process(monkeypatch):
    listdir = os.listdir
    for tasks, lone in ((["1"], True), (["1", "2"], False)):
        monkeypatch.setattr(os, "listdir", lambda path: tasks if path == "/proc/self/task" else listdir(path))
        assert lone_os_thread() is lone


def test_off_linux_lone_os_thread_reads_nothing(monkeypatch):
    def no_proc(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(sys, "platform", "darwin")
    monkeypatch.setattr(os, "listdir", no_proc)
    assert lone_os_thread() is False


def test_a_function_of_the_worker_count_gives_the_items(monkeypatch):
    """Called with the workers the run takes: two where it forks, one
    where it runs in turn."""
    def split(workers):
        return [(workers, part) for part in range(workers)]

    fake_os_threads(monkeypatch, 1)
    assert map_processes(lambda item: item, split, 2) == [(2, 0), (2, 1)]
    fake_os_threads(monkeypatch, 2)
    assert map_processes(lambda item: item, split, 2) == [(1, 0)]


def numpy_blas_is_openblas() -> bool:
    return "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]


@pytest.fixture
def blas():
    """The handle on this process's OpenBLAS, at 2 threads for the test
    and at its own count again after it; skips where none is found."""
    found = openblas()
    if found is None:
        pytest.skip("no OpenBLAS is loaded")
    get_num_threads, set_num_threads, _ = found
    threads = get_num_threads()
    set_num_threads(2)
    yield found
    set_num_threads(threads)


def test_the_loaded_openblas_is_found_in_the_memory_map():
    if sys.platform != "linux" or not numpy_blas_is_openblas():
        pytest.skip("numpy runs another BLAS, or not on Linux")
    get_num_threads, set_num_threads, _ = openblas()
    threads = get_num_threads()
    try:
        for count in (2, 1):
            set_num_threads(count)
            assert get_num_threads() == count
    finally:
        set_num_threads(threads)
    assert get_num_threads() == threads


def test_a_map_without_openblas_gives_no_handle_and_the_os_threads_decide(tmp_path, monkeypatch):
    maps = tmp_path / "maps"
    with open("/proc/self/maps") as real:
        maps.write_text("".join(line for line in real if "openblas" not in line))
    monkeypatch.setattr(workers, "_MAPS", str(maps))
    assert openblas() is None
    fake_os_threads(monkeypatch, 2)
    assert map_processes(lambda i: os.getpid(), range(4), 2) == [os.getpid()] * 4
    fake_os_threads(monkeypatch, 1)
    assert os.getpid() not in map_processes(lambda i: os.getpid(), range(4), 2)[1::2]


@pytest.mark.parametrize("entry", ["maps", "task"])
def test_a_proc_that_cannot_be_read_runs_the_items_in_turn(blas, tmp_path, monkeypatch, entry):
    """Where it cannot tell whether a BLAS pool or another OS thread runs,
    a section forks nothing and runs every item on the caller, at the
    caller's BLAS thread count."""
    fake_os_threads(monkeypatch, 1)
    unreadable_proc(monkeypatch, tmp_path, entry)
    monkeypatch.setattr(os, "fork", forbidden_fork)
    get_num_threads = blas[0]
    assert map_processes(lambda i: (get_num_threads(), os.getpid()), range(4), 2) == [(2, os.getpid())] * 4
    assert get_num_threads() == 2


def test_off_linux_a_section_reads_nothing_under_proc(monkeypatch):
    def no_proc(read):
        def guarded(path, *args, **kwargs):
            if str(path).startswith("/proc"):
                raise AssertionError(f"{path} was read")
            return read(path, *args, **kwargs)

        return guarded

    monkeypatch.setattr(sys, "platform", "darwin")
    monkeypatch.setattr(os, "listdir", no_proc(os.listdir))
    monkeypatch.setattr(builtins, "open", no_proc(builtins.open))
    assert openblas() is None
    assert map_processes(lambda i: os.getpid(), range(4), 2) == [os.getpid()] * 4


@pytest.mark.parametrize("raised", [None, ValueError, KeyboardInterrupt])
def test_the_callers_blas_threads_come_back_however_the_section_ends(blas, monkeypatch, raised):
    """Every worker, the caller too, runs BLAS on one thread in a forked
    section; the caller's count is back after a plain section, a failing
    item (a child's) and an interrupt of the caller's own item."""
    get_num_threads = blas[0]
    fake_os_threads(monkeypatch, 1)

    def work(i):
        if (raised, i) in ((ValueError, 3), (KeyboardInterrupt, 0)):
            raise raised
        return get_num_threads(), os.getpid()

    if raised is None:
        got = map_processes(work, range(4), 2)
        assert [threads for threads, _ in got] == [1] * 4 and got[1][1] != os.getpid()
    else:
        with pytest.raises(raised):
            map_processes(work, range(4), 2)
    assert get_num_threads() == 2
