"""Independent calls in forked worker processes.

:func:`in_processes` yields ``fn(*args)`` for each ``args`` of ``calls``,
in call order, computed in up to min(len(calls), usable CPUs) worker
processes started by ``fork``.  Each worker inherits ``fn``, the calls, the
caller's numpy error state and warning filters and every module's state
through fork; only the call's index and its result are pickled.  Each call
does in a worker exactly what it does inline, so results keep their bits.
With one usable CPU, or one call, the calls run inline, one as each result
is taken.

Workers ignore SIGINT, so a Ctrl-C interrupts only the caller.  On that
interrupt, on any exception, and when the iterator is closed before its
last result, the caller terminates the workers still running and joins
them: no worker outlives the iteration.  A worker that dies without
returning, for example at the hands of the out-of-memory killer, raises
:class:`ChildProcessError`, an ``OSError``.  The pool's modules are imported
on first use: a command that never pools never loads them.
"""
from __future__ import annotations

import os

_work = None  # (fn, calls) in a worker, set by the initializer


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _adopt(fn, calls):
    """Worker initializer: ignore Ctrl-C, keep the inherited calls."""
    import signal

    global _work
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _work = fn, calls


def _call(i: int):
    fn, calls = _work
    return fn(*calls[i])


def in_processes(fn, calls):
    """Yield ``fn(*args)`` for each ``args`` in ``calls``, in order (module
    docstring); pooled calls all start at once."""
    calls = list(calls)
    workers = min(len(calls), usable_cpus())
    if workers <= 1:
        for args in calls:
            yield fn(*args)
        return

    import multiprocessing
    import signal
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork passes the initializer's arguments by copying memory, not pickling
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               initializer=_adopt, initargs=(fn, calls))
    taken = 0
    try:
        # the workers fork at the first submit: a Ctrl-C before their
        # initializer ignores it waits, and reaches this process afterwards
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            futures = [pool.submit(_call, i) for i in range(len(calls))]
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for future in futures:
            result = future.result()
            taken += 1
            yield result
    except BrokenProcessPool:
        raise ChildProcessError("a worker process died before returning its result") from None
    finally:
        if taken < len(calls):  # interrupted, failed or abandoned: stop every worker
            # the executor has no public way to stop a running call before Python 3.14
            for process in list((pool._processes or {}).values()):
                process.terminate()
        pool.shutdown(cancel_futures=True)
