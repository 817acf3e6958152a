"""deepuzawa benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload train_1d --seed 0 --seconds 15 --trace 0

Run from anywhere; it measures the sources in ``src/`` next to this
directory.  A run is a closed loop of repetitions, one at a time, each in a
fresh worker process with one BLAS thread (``worker.py``).  With
``--trace 0`` it prints the end-to-end metrics ``run_s``, ``setup_s`` and
``peak_rss_mb``; with ``--trace 1`` every other repetition runs under
``spans.Tracer`` and it prints the per-layer metrics.  Every repetition's
outputs are checked; one that fails its check counts as failed.  The last
line of standard output is the JSON result; the exit code is 0 only when
every check passed.  Outputs of the latest run of each workload stay in
``.perfbench_out/<workload>/``.  See ``README.md`` for the metrics and
workloads.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import spans
from spans import median
from worker import THREAD_VARS
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 4      # set-up-only workers per untraced run, after one warm-up
DEADLINE_S = 170.0    # a run starts no worker after this and kills a late one
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
_PER_WORKER = ("setup_s", "setup_speed", "run_s", "wall_run_s", "run_speed", "peak_rss_mb",
               "observed")


def _worker(spec: Workload, seed: int, mode: str, out: Path, timeout: float) -> dict:
    """Run one worker to completion and return its report."""
    if timeout <= 0:
        return {"ok": False, "failures": ["no time left in the run"]}
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    args = json.dumps({"workload": asdict(spec), "seed": seed, "mode": mode, "out": str(out)})
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "failures": [f"worker killed after {timeout:.0f} s"]}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"ok": False, "failures": [f"worker exited with {proc.returncode}: "
                                          f"{proc.stderr.strip()[-500:]}"]}


def run_workload(spec: Workload, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns the result object and the details behind it
    (per-worker reports, machine facts, trace summary)."""
    deadline = time.monotonic() + DEADLINE_S
    out = OUT / spec.name
    shutil.rmtree(out, ignore_errors=True)
    reps = max(2, round(seconds / spec.rep_seconds))
    modes = ["traced" if k % 2 else "plain" for k in range(reps)] if trace else ["plain"] * reps
    probes = ["probe"] * (1 + (0 if trace else SETUP_PROBES))
    reports = [(mode, _worker(spec, seed, mode, out / f"{k:02d}-{mode}",
                              deadline - time.monotonic()))
               for k, mode in enumerate(probes + modes)]
    setups = [r for _, r in reports[1:len(probes)]]
    runs = reports[len(probes):]
    problems = [f"{mode} worker {k}: {failure}" for k, (mode, r) in enumerate(reports)
                if not r.get("ok") for failure in r.get("failures", ["no report"])]

    if trace:
        plain = median(r["run_s"] for m, r in runs if m == "plain" and "run_s" in r)
        traced = [r for m, r in runs if m == "traced" and "trace" in r]
        overhead = 100.0 * (median(r["run_s"] for r in traced) / plain - 1.0) \
            if plain else 0.0
        diverged = sum(r.get("observed", {}).get("diverged_at") is not None for _, r in runs)
        values = spans.layer_metrics([r["trace"] for r in traced], diverged, overhead)
        units = spans.metric_units()
        if not traced:
            problems.append("no traced repetition completed")
    else:
        timed = [r for _, r in runs if "run_s" in r]
        # set-up is too short for a kernel timed next to it to track it, but
        # the run's median speed still cancels the drift between runs
        setup_speed = median(r["setup_speed"] for _, r in reports if "setup_speed" in r)
        values = {"run_s": median(r["run_s"] for r in timed),
                  "setup_s": median(r["setup_s"] for r in setups + timed if "setup_s" in r)
                  * setup_speed,
                  "peak_rss_mb": median(r["peak_rss_mb"] for r in timed)}
        units = END_TO_END
        if not timed:
            problems.append("no repetition completed")

    failed = sum(not r.get("ok") for _, r in runs)
    result = {
        "correct": not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    details = {
        "workload": spec.name, "seed": seed, "seconds": seconds, "trace": trace,
        "modes": modes, "settings": spec.settings, "problems": problems,
        "machine": next((r["machine"] for _, r in runs if "machine" in r), None),
        "workers": [{"mode": mode, **{key: r[key] for key in _PER_WORKER if key in r}}
                    for mode, r in reports],
    }
    if trace:
        details["absent"] = sorted({a for r in traced for a in r.get("absent", [])})
        reference = median(r["wall_run_s"] for r in traced)
        details["share_of_traced_run_s"] = {
            name: median(r["trace"]["functions"][name]["total_s"] for r in traced) / reference
            for name in spans.NAMES} if reference else {}
        details["samples"] = {
            name: sum(len(r["trace"]["functions"][name]["ms"]) for r in traced)
            for name in spans.PER_STEP}
        out.mkdir(parents=True, exist_ok=True)
        (out / "trace_summary.json").write_text(json.dumps(details, indent=1), encoding="utf-8")
    return result, details


def report_lines(result: dict, details: dict) -> list[str]:
    """Human-readable lines printed ahead of the JSON result."""
    lines = [f"perfbench {details['workload']}: seed {details['seed']}, {details['seconds']} s, "
             f"trace {int(details['trace'])}; repetitions {' '.join(details['modes'])} of "
             f"{json.dumps(details['settings'])}; {result['failed']}/{result['attempted']} failed"]
    lines += [f"  {name:<46} {m['value']:>12.6g} {m['unit']}"
              for name, m in result["metrics"].items()]
    for key in ("run_s", "wall_run_s", "run_speed", "setup_s", "setup_speed"):
        values = [w[key] for w in details["workers"] if key in w]
        if values:
            lines.append(f"  {key:<12} per worker: " + " ".join(f"{v:.4g}" for v in values))
    lines += [f"  checked, worker {k}: " + ", ".join(
        f"{key}={value:.3g}" if isinstance(value, float) else f"{key}={value}"
        for key, value in w["observed"].items())
        for k, w in enumerate(details["workers"]) if "observed" in w]
    shares = details.get("share_of_traced_run_s", {})
    lines += [f"  share of traced run_s  {name:<40} {share:7.1%}"
              for name, share in sorted(shares.items(), key=lambda kv: -kv[1]) if share >= 0.01]
    if details.get("absent"):
        lines.append("  absent (not traced): " + ", ".join(details["absent"]))
    lines += [f"  FAILED {problem}" for problem in details["problems"]]
    lines.append("machine " + json.dumps(details["machine"]))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wrong = [f"{var}={os.environ[var]}" for var in THREAD_VARS if os.environ.get(var, "1") != "1"]
    if wrong:
        print("refusing to run with more than one BLAS thread: " + ", ".join(wrong),
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "deepuzawa" / "__init__.py").is_file():
        print(f"no deepuzawa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    result, details = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                   bool(args.trace))
    print("\n".join(report_lines(result, details)))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
