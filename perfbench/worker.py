"""One benchmark repetition in a fresh interpreter.

Usage: ``python3 perfbench/worker.py '<json>'`` with the keys ``workload``
(the fields of a ``workloads.Workload``), ``seed``, ``mode`` and ``out``.
``run.py`` starts it with ``src`` on ``PYTHONPATH``.

Modes: ``probe`` only sets up and reports its wall time ``setup_s``;
``plain`` also runs the timed calls and checks them; ``traced`` does the same
under ``spans.Tracer`` and writes the spans to ``<out>/spans.json``.  The
last line of standard output is one JSON report.
"""
import time

_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parents[1]


def machine_facts() -> dict:
    """The hardware and software a measurement was taken on."""
    import mpmath
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_rep(spec, seed: int, mode: str, out: Path, start: float) -> dict:
    """Set up, and unless probing, time and check one repetition.  ``start``
    is when the interpreter began running this program.

    A worker also reports this machine's speed against the reference box
    (``calibrate.py``): ``run_speed`` from the workload's kernel, timed at
    intervals during the timed calls, and ``setup_speed`` from the Python
    kernel, timed once the worker's own work is done.  Spans are timed on
    the calibration's clock, which leaves the kernel's time out.
    """
    import calibrate
    import spans
    import workloads

    import deepuzawa.cli  # noqa: F401  (loads every module the workloads call)

    out.mkdir(parents=True, exist_ok=True)
    calibration = calibrate.Interleaved(spec.kernel)
    tracer = spans.Tracer(calibration.clock) if mode == "traced" else None
    with tracer or nullcontext():
        state = workloads.setup(spec, ROOT, seed, out)
        report = {"setup_s": time.perf_counter() - start}
        if mode != "probe":
            with calibration:
                result = workloads.timed(spec, state)
            report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["setup_speed"] = calibrate.speed("python")
    if mode == "probe":
        return report
    report["wall_run_s"] = calibration.work_s
    report["run_speed"] = calibration.speed
    report["run_s"] = report["wall_run_s"] * report["run_speed"]
    report["observed"], failures = workloads.check(spec, state, result)
    report["ok"] = not failures
    report["failures"] = failures
    report["machine"] = machine_facts()
    if tracer is not None:
        (out / "spans.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
        report["trace"] = spans.rep_summary(tracer.spans)
        report["absent"] = tracer.absent
    return report


def main() -> int:
    for var in THREAD_VARS:
        if os.environ.get(var) != "1":
            print(json.dumps({"ok": False, "failures": [f"{var} must be 1 before numpy loads"]}))
            return 1
    args = json.loads(sys.argv[1])
    import workloads

    spec = workloads.Workload(**args["workload"])
    try:
        report = run_rep(spec, args["seed"], args["mode"], Path(args["out"]), _START)
    except Exception:  # a crashed repetition is reported as failed, not lost
        report = {"ok": False, "failures": [traceback.format_exc(limit=-3).strip()]}
    report.setdefault("ok", True)
    print(json.dumps(report))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
