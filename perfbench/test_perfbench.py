"""Tests of the benchmark itself, on tiny budgets.

    python3 -m pytest perfbench
"""
import dataclasses
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import calibrate
import run
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# two repetitions per workload, seconds rather than minutes; a tiny training
# budget does not converge, so its state error bound is loosened
TINY = {
    "train_1d": ({"n_uzawa": 1, "n_sgd": 2}, {"state_rel": 10.0}),
    "train_2d": ({"n_uzawa": 1, "n_sgd": 2, "n_points": 8}, {"state_rel": 10.0}),
    "oracle_mp": ({"n_points": 21, "oracle_iters": 20, "precision_dps": 40}, {}),
    "oracle_f64": ({"n_points": 41, "oracle_iters": 40}, {}),
}


def tiny(name, **tolerances):
    spec = WORKLOADS[name]
    settings, loose = TINY[name]
    return dataclasses.replace(spec, settings={**spec.settings, **settings},
                               tolerances={**spec.tolerances, **loose, **tolerances},
                               rep_seconds=1.0)


@pytest.fixture(autouse=True)
def few_probes(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert BENCHMARK["paths"] == ["perfbench"]
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_printed_metrics_match_benchmark_json(name, trace):
    result, _ = run.run_workload(tiny(name), seed=3, seconds=1, trace=trace)
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    assert list(result["metrics"]) == [m["name"] for m in listed]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_command_line_prints_result_last():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle_f64",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_command_line_refuses_more_blas_threads():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train_1d",
                           "--seed", "0", "--seconds", "1"], cwd=ROOT, capture_output=True,
                          text=True, timeout=60, env={"OPENBLAS_NUM_THREADS": "2"})
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_repetition_restores_every_wrapped_name(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import deepuzawa.cli  # noqa: F401
        import worker

        def bindings():
            return {(key, attr): value for key, module in sys.modules.items()
                    if key == "deepuzawa" or key.startswith("deepuzawa.")
                    for attr, value in vars(module).items() if callable(value)}

        from deepuzawa.network import NetworkParameters

        before = bindings()
        with_flat = NetworkParameters.__dict__["with_flat"]
        with spans.Tracer() as tracer:
            assert deepuzawa.cli.main is not before[("deepuzawa.cli", "main")]
            assert NetworkParameters.__dict__["with_flat"] is not with_flat
        assert tracer.absent == []
        report = worker.run_rep(tiny("train_1d"), 0, "traced", tmp_path, 0.0)
        assert report["trace"]["functions"]["network.loss_and_gradient"]["calls"] == 2
        after = bindings()
        assert after.keys() == before.keys()
        changed = [k for k in before if after[k] is not before[k]]
        assert changed == []
        assert NetworkParameters.__dict__["with_flat"] is with_flat
    finally:
        sys.path.remove(str(ROOT / "src"))


def test_renamed_helper_is_reported_absent(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (("fd_oracle", "_gone"),))
    monkeypatch.setattr(spans, "NAMES", spans.NAMES + ("fd_oracle._gone",))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        with spans.Tracer() as tracer:
            pass
    finally:
        sys.path.remove(str(ROOT / "src"))
    assert tracer.absent == ["fd_oracle._gone"]


@pytest.mark.parametrize("name, tolerance", [("train_1d", "state_rel"),
                                             ("oracle_mp", "projected_rel"),
                                             ("oracle_f64", "backward")])
def test_failed_check_is_counted_not_dropped(name, tolerance):
    result, details = run.run_workload(tiny(name, **{tolerance: -1.0}), seed=0, seconds=1,
                                       trace=False)
    assert result["correct"] is False
    assert result["attempted"] == 2 and result["failed"] == 2
    assert result["metrics"]["run_s"]["value"] > 0
    assert details["problems"]


def test_interleaved_calibration_samples_inside_the_block_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with calibrate.Interleaved("python") as calibration:
        end = time.perf_counter() + 1.0
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(calibration.samples) >= 3
    assert calibration.work_s + sum(calibration.samples) == pytest.approx(1.0, abs=0.05)
    assert calibration.speed > 0
