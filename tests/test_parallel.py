"""The process pool of independent calls, and the CPU count it shares with
the jet sweeps."""
import os
import signal
import threading
import time

import pytest

from deepuzawa.parallel import in_processes, sigterm_exits, usable_cpus
from reference_checks import assert_no_child_left


@pytest.fixture
def two_cpus(monkeypatch):
    # the pool runs, however many CPUs the test machine has
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _where(i):
    return i, os.getpid()


def _fails_at_one(i):
    if i == 1:
        raise ValueError(f"call {i} failed")
    return i


def _dies_at_one(i):
    if i == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return i


def _sleeps_after_zero(i):
    if i:
        time.sleep(60)
    return i


def test_usable_cpus_is_the_affinity_mask_else_the_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    assert usable_cpus() == 7
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable_cpus() == 1


def test_pooled_results_come_in_call_order_from_workers(two_cpus):
    results = list(in_processes(_where, [(i,) for i in range(5)]))
    assert [i for i, _ in results] == list(range(5))
    pids = {pid for _, pid in results}
    assert os.getpid() not in pids and 1 <= len(pids) <= 2
    assert_no_child_left()


@pytest.mark.parametrize("cpus, calls", [({0}, 3), ({0, 1}, 1)], ids=["one_cpu", "one_call"])
def test_one_cpu_or_one_call_runs_inline_and_lazily(monkeypatch, cpus, calls):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    started = []

    def record(i):  # a closure: no worker could run it from a pickle
        started.append(i)
        return _where(i)

    results = in_processes(record, [(i,) for i in range(calls)])
    assert started == []
    assert next(results) == (0, os.getpid())
    assert started == [0]
    assert list(results) == [(i, os.getpid()) for i in range(1, calls)]


def test_workers_take_closures_and_the_callers_state(two_cpus):
    # fork hands the workers fn and its calls: neither is pickled
    offset = 10
    assert list(in_processes(lambda i: i + offset, [(1,), (2,)])) == [11, 12]


def test_an_exception_in_a_worker_reaches_the_caller_and_stops_the_pool(two_cpus):
    with pytest.raises(ValueError, match="call 1 failed"):
        list(in_processes(_fails_at_one, [(i,) for i in range(4)]))
    assert_no_child_left()


def test_a_worker_that_dies_is_a_child_process_error(two_cpus):
    with pytest.raises(ChildProcessError, match="worker process died"):
        list(in_processes(_dies_at_one, [(0,), (1,)]))
    assert_no_child_left()


def test_an_abandoned_iterator_stops_its_workers(two_cpus):
    results = in_processes(_where, [(i,) for i in range(4)])
    assert next(results)[0] == 0
    results.close()
    assert_no_child_left()


def test_sigterm_exits_the_caller_while_workers_run_and_ends_a_worker(two_cpus):
    # SIGTERM's default action would skip the generator's cleanup and leave
    # the workers running: it raises SystemExit(143) instead, and closing the
    # generator stops the worker still in its call and restores the caller's
    # handler and signal mask
    previous = signal.getsignal(signal.SIGTERM)
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, set())
    results = in_processes(_sleeps_after_zero, [(0,), (1,)])
    with pytest.raises(SystemExit) as stop:
        assert next(results) == 0
        os.kill(os.getpid(), signal.SIGTERM)
        time.sleep(10)  # the handler interrupts it
    assert stop.value.code == 143
    start = time.monotonic()
    results.close()
    assert time.monotonic() - start < 30  # it did not wait out the 60 s call
    assert_no_child_left()
    assert signal.getsignal(signal.SIGTERM) is previous
    assert signal.pthread_sigmask(signal.SIG_BLOCK, set()) == mask


def test_sigterm_exits_nests_and_restores_each_outer_handler():
    previous = signal.getsignal(signal.SIGTERM)
    with sigterm_exits():
        outer = signal.getsignal(signal.SIGTERM)
        assert outer is not previous
        with sigterm_exits():
            with pytest.raises(SystemExit) as stop:
                os.kill(os.getpid(), signal.SIGTERM)
                time.sleep(10)  # the handler interrupts it
            assert stop.value.code == 143
        assert signal.getsignal(signal.SIGTERM) is outer
    assert signal.getsignal(signal.SIGTERM) is previous


def test_sigterm_exits_changes_nothing_off_the_main_thread():
    # only the main thread may set a signal handler
    previous, seen = signal.getsignal(signal.SIGTERM), []

    def body():
        with sigterm_exits():
            seen.append(signal.getsignal(signal.SIGTERM))

    thread = threading.Thread(target=body)
    thread.start()
    thread.join()
    assert seen == [previous]
