"""Independent calls in forked worker processes, and the SIGTERM rule of a command.

:func:`in_processes` yields ``fn(*args)`` for each ``args`` of ``calls``, in
call order, from W = min(len(calls), usable CPUs) workers started by
``os.fork``: worker w runs calls w, w + W, ... and pickles each result, or the
exception it raised, to its own pipe.  Inheriting ``fn``, the calls, numpy's
error state, the warning filters and every module's state, a call does in a
worker exactly what it does inline.  With one usable CPU, or one call, the
calls run inline, one as each result is taken.

Workers ignore SIGINT, so a Ctrl-C interrupts only the caller.  While they
run, a SIGTERM to a caller on the main thread raises ``SystemExit(143)`` there
(:func:`sigterm_exits`).  On either, on an exception and on an early close of
the iterator, the caller sends SIGTERM to the workers, and it always closes
every pipe and waits for every worker.  A worker that dies without a result
(the out-of-memory killer) raises ChildProcessError.
"""
from __future__ import annotations

import contextlib
import os
import pickle
import signal
import sys
import threading


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _serve(fn, calls, out):
    """A worker: pickles each call's (ok, result or exception) to the pipe
    ``out``, then ends its process."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)  # the caller's stop ends this process
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
        with os.fdopen(out, "wb") as pipe:
            for args in calls:
                try:
                    record = pickle.dumps((True, fn(*args)))
                except Exception as exc:  # the call's, or its result's pickling
                    record = pickle.dumps((False, exc))
                pipe.write(record)
                pipe.flush()
    finally:  # no cleanup of the caller's runs here; a record not written reads as EOF
        os._exit(0)


@contextlib.contextmanager
def sigterm_exits():
    """On the main thread, a SIGTERM within it raises ``SystemExit(143)``, the exit
    status SIGTERM gives, so every ``finally`` runs; leaving restores the old handler."""
    on_main = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, lambda *_: sys.exit(143)) if on_main else None
    try:
        yield
    finally:
        if on_main:
            signal.signal(signal.SIGTERM, previous)


def in_processes(fn, calls):
    """Yield ``fn(*args)`` for each ``args`` in ``calls``, in order (module
    docstring); every worker starts at the first result asked for."""
    calls = list(calls)
    workers = min(len(calls), usable_cpus())
    if workers <= 1:
        yield from (fn(*args) for args in calls)
        return
    pids, pipes, taken = [], [], 0
    stops = {signal.SIGINT, signal.SIGTERM}
    with sigterm_exits():
        try:
            # a Ctrl-C or SIGTERM before a worker has set its handler waits, and
            # reaches this process afterwards
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, stops)
            try:
                for w in range(workers):
                    read, write = os.pipe()
                    if (pid := os.fork()) == 0:
                        _serve(fn, calls[w::workers], write)
                    os.close(write)  # no later worker holds it: EOF means this one ended
                    pids.append(pid)
                    pipes.append(os.fdopen(read, "rb"))
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            for i in range(len(calls)):
                try:
                    ok, result = pickle.load(pipes[i % workers])
                except (EOFError, pickle.UnpicklingError):  # nothing, or a record cut short
                    raise ChildProcessError("a worker process died before returning its "
                                            "result") from None
                if not ok:
                    raise result
                taken += 1
                yield result
        finally:
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, stops)  # no second stop cuts it short
            for pid, pipe in zip(pids, pipes):
                pipe.close()
                if taken < len(calls):  # interrupted, failed or abandoned: stop every worker
                    os.kill(pid, signal.SIGTERM)  # one that has ended is a zombie until waited for
                os.waitpid(pid, 0)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
