"""Machine-speed calibration for the benchmark's times.

A shared machine's speed drifts.  On the reference box below, a fixed loop
of ``loss_and_gradient`` calls timed in windows of 5 to 60 s over ten
minutes has a quartile spread of 15-20% at every window length, so a longer
run does not steady a wall time; between two sets of runs ten minutes apart,
the raw median time of the float64 oracle moved by 29% and then by 39%.
Much of the drift is common to code of the same character, and it changes
within seconds, so a repetition times a kernel of its workload's character
every ``PERIOD_S`` seconds *during* its timed calls (``Interleaved``).  Its
``run_s`` is its wall time, less the kernel's, rescaled to the reference
box's speed: seconds times (reference kernel time / mean kernel time now).
``setup_s`` is rescaled by the run's median speed on the Python kernel,
timed once a worker is done (``speed``).  The kernels use numpy and Python
only, never ``deepuzawa``, so a change to the program cannot move them.
"""
from __future__ import annotations

import signal
import time

PERIOD_S = 0.25   # wall time between two kernel samples during timed calls
MIN_SAMPLES = 5   # samples taken after a timed block too short to hold them


def _numpy_kernel(rows: int = 603):
    """Forward and backward through a 3 x 64 tanh stack on ``rows`` rows,
    the shape of a training step's stacked jet rows (603 in 1d).  It writes
    into buffers made here, so calling it allocates nothing and cannot raise
    the worker's peak RSS at a random moment."""
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.normal(size=(rows, 64))
    weights = [rng.normal(size=(64, 64)) / 8 for _ in range(3)]
    acts = [np.zeros((rows, 64)) for _ in weights]
    grad, work = np.zeros((rows, 64)), np.zeros((rows, 64))

    def kernel():
        h = x
        for w, a in zip(weights, acts):
            np.matmul(h, w, out=a)
            np.tanh(a, out=a)
            h = a
        grad.fill(1.0)
        for w, a in zip(reversed(weights), reversed(acts)):
            np.multiply(a, a, out=work)
            np.subtract(1.0, work, out=work)
            np.multiply(grad, work, out=work)
            np.matmul(work, w.T, out=grad)

    return kernel


def _python_kernel(n: int = 10000):
    """Forward and backward bidiagonal sweeps over a list of ``n`` Python
    floats, the shape of the oracle's banded loops (mpmath's arithmetic is
    interpreted Python too)."""
    values = [float(i % 7) for i in range(n)]
    coef = [0.25] * n

    def kernel():
        w = list(values)
        for i in range(1, n):
            w[i] = w[i] - coef[i - 1] * w[i - 1]
        for i in range(n - 2, -1, -1):
            w[i] = w[i] - coef[i] * w[i + 1]

    return kernel


# name -> (build function, calls per sample, typical seconds per call on the
# reference box: a 2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11.7, numpy
# 2.4.6 with scipy-openblas 0.3.31, one BLAS thread).  The reference only
# sets the scale of the rescaled times; comparisons between commits do not
# depend on it.
KERNELS = {
    "numpy": (_numpy_kernel, 3, 1.3e-3),
    "python": (_python_kernel, 2, 2.3e-3),
}


def _time_calls(kernel, calls: int) -> float:
    t0 = time.perf_counter()
    for _ in range(calls):
        kernel()
    return time.perf_counter() - t0


def speed(name: str, samples: int = 15) -> float:
    """Speed of this machine now relative to the reference box, from kernel
    ``name``: the reference time over the median time per call.  Every
    sample builds the kernel afresh, so that one unlucky placement of its
    data in memory moves one sample rather than the median."""
    build, calls, reference = KERNELS[name]
    times = []
    for _ in range(samples):
        kernel = build()
        kernel()
        times.append(_time_calls(kernel, calls) / calls)
    times.sort()
    return reference / times[len(times) // 2]


class Interleaved:
    """Times kernel ``name`` every ``PERIOD_S`` of wall time while the
    ``with`` block runs, from a ``SIGALRM`` handler, so that its samples
    spread over the block the way the machine's drift does.

    ``clock`` reads wall time less the samples taken so far; a traced
    repetition's spans use it, so that none holds kernel time.  Afterwards
    ``work_s`` is the block's time on that clock and ``speed`` the reference
    time over the mean time per kernel call.  The handler re-arms the
    one-shot timer only after its sample, so samples never overlap.  Must
    run in the main thread.
    """

    def __init__(self, name: str):
        self._build, self._calls, self._reference = KERNELS[name]
        self.samples: list[float] = []
        self.work_s = 0.0
        self._spent = 0.0
        self._running = False

    def clock(self) -> float:
        while True:
            spent = self._spent
            now = time.perf_counter()
            if spent == self._spent:  # no sample ran in between
                return now - spent

    def _sample(self, *_):
        seconds = _time_calls(self._kernel, self._calls)
        self.samples.append(seconds)
        self._spent += seconds
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def __enter__(self):
        self._kernel = self._build()
        self._kernel()
        self._running = True
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        self._start = self.clock()
        return self

    def __exit__(self, *exc):
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.work_s = self.clock() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.samples) < MIN_SAMPLES:
            self.samples.append(_time_calls(self._kernel, self._calls))
        return False

    @property
    def speed(self) -> float:
        return self._reference * self._calls * len(self.samples) / sum(self.samples)
