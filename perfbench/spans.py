"""Spans at ``deepuzawa``'s module boundaries, for the traced benchmark run.

``Tracer`` replaces each function in ``TARGETS`` by a wrapper that records a
span (name, start, end, index of the enclosing span) in memory.  The wrapper
goes in every loaded ``deepuzawa`` module that binds the function, since a
module calls what it imported under its own name; a method is replaced on its
class.  Leaving the ``with`` block puts every original object back.  A target
that no longer exists (a later change may rename a private helper) is listed
in ``Tracer.absent`` instead of failing the run.

``layer_metrics`` reduces the spans of the traced repetitions to the
per-layer metrics; a span's self time is its duration minus that of the
spans it directly encloses.
"""
from __future__ import annotations

import importlib
import statistics
import sys
import time

# (module, function) traced, grouped by layer
TARGETS = (
    ("network", "loss_and_gradient"),
    ("network", "_forward"),
    ("network", "batch_jets"),
    ("network", "evaluate"),
    ("network", "NetworkParameters.with_flat"),
    ("network", "init_network"),
    ("network", "save_checkpoint"),
    ("lagrangian", "pointwise_gradients"),
    ("lagrangian", "loss_parts"),
    ("lagrangian", "residual_values"),
    ("lagrangian", "multiplier_update"),
    ("lagrangian", "target_values"),
    ("optim", "adam_step"),
    ("geometry", "build_grid"),
    ("geometry", "cutoff_jet"),
    ("geometry", "l2_norm"),
    ("driver", "run_deep_uzawa"),
    ("config", "parse_config"),
    ("config", "emit_csv"),
    ("cli", "main"),
    ("fd_oracle", "sine_target"),
    ("fd_oracle", "fd_direct_kkt_solve"),
    ("fd_oracle", "fd_uzawa_run"),
    ("fd_oracle", "fd_projected_uzawa_run"),
    ("fd_oracle", "gauss_seidel_adjoint_run"),
    ("fd_oracle", "_ldlt_factor"),
    ("fd_oracle", "_ldlt_solve"),
    ("fd_oracle", "_laplacian_apply"),
    ("fd_oracle", "_solve_nonneg"),
    ("fd_oracle", "_loss_row"),
    ("fd_oracle", "_norm"),
)
NAMES = tuple(f"{module}.{function}" for module, function in TARGETS)

# called once or a few times per inner step, outer update or oracle
# iteration: these also report the median and 90th percentile of one call
PER_STEP = (
    "network.loss_and_gradient", "network._forward", "network.batch_jets",
    "network.NetworkParameters.with_flat", "lagrangian.pointwise_gradients",
    "lagrangian.loss_parts", "lagrangian.residual_values", "lagrangian.multiplier_update",
    "optim.adam_step", "geometry.l2_norm", "fd_oracle._ldlt_factor", "fd_oracle._ldlt_solve",
    "fd_oracle._laplacian_apply", "fd_oracle._solve_nonneg", "fd_oracle._loss_row",
    "fd_oracle._norm",
)

# oracle iterations are timed between consecutive loss rows, one per iteration
ORACLE_RUNS = ("fd_uzawa_run", "fd_projected_uzawa_run", "gauss_seidel_adjoint_run")
_ITERATION_MARK = "fd_oracle._loss_row"
# outer updates are timed between consecutive full-grid jet evaluations
_UPDATE_MARK = "network.batch_jets"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in reporting order."""
    units = {}
    for name in NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in PER_STEP:
            units[f"{name}.p50_ms"] = "ms"
            units[f"{name}.p90_ms"] = "ms"
    units["driver.update_ms.p50"] = "ms"
    units["driver.update_ms.p90"] = "ms"
    units["driver.diverged"] = "count"
    for run in ORACLE_RUNS:
        units[f"fd_oracle.{run}.iter_ms.p50"] = "ms"
        units[f"fd_oracle.{run}.iter_ms.p90"] = "ms"
    units["fd_oracle.active_set.passes_per_solve"] = "ratio"
    units["trace_overhead_pct"] = "%"
    return units


class Tracer:
    """Records a span per call of each target while installed, timed by
    ``clock`` (seconds)."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.absent: list[str] = []
        self._open: list[int] = []
        self._patched: list[tuple] = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, open_spans, clock = self.spans, self._open, self._clock

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_spans.pop()

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attribute, value):
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def __enter__(self):
        found = []
        for (module, function), name in zip(TARGETS, NAMES):
            try:
                owner = importlib.import_module(f"deepuzawa.{module}")
                *classes, attribute = function.split(".")
                for cls in classes:
                    owner = getattr(owner, cls)
                found.append((name, owner, attribute, getattr(owner, attribute), bool(classes)))
            except (ImportError, AttributeError):
                self.absent.append(name)
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "deepuzawa" or key.startswith("deepuzawa.")]
        for name, owner, attribute, original, is_method in found:
            wrapper = self._wrap(name, original)
            if is_method:
                self._patch(owner, attribute, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)
        return False


def median(values) -> float:
    """Median, or 0 when there is nothing to take it of."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def _percentile(values, q):
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _gaps_ms(spans, mark):
    """Start-to-start gaps between consecutive ``mark`` spans that share a
    parent, in ms, keyed by the parent's name."""
    last, gaps = {}, {}
    for name, start, _, parent in spans:
        if name != mark:
            continue
        if parent in last:
            owner = spans[parent][0] if parent >= 0 else ""
            gaps.setdefault(owner, []).append(1e3 * (start - last[parent]))
        last[parent] = start
    return gaps


def rep_summary(spans) -> dict:
    """Calls, self and total seconds, call durations (ms), update and
    iteration gaps (ms) and active-set counts of one traced repetition."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "ms": []} for name in NAMES}
    for (name, start, end, _), inner in zip(spans, covered):
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += end - start - inner
        entry["total_s"] += end - start
        if name in PER_STEP:
            entry["ms"].append(1e3 * (end - start))
    updates = _gaps_ms(spans, _UPDATE_MARK)
    iterations = _gaps_ms(spans, _ITERATION_MARK)
    factorisations = sum(1 for name, _, _, parent in spans if name == "fd_oracle._ldlt_factor"
                         and parent >= 0 and spans[parent][0] == "fd_oracle._solve_nonneg")
    return {
        "functions": out,
        "update_ms": updates.get("driver.run_deep_uzawa", []),
        "iter_ms": {run: iterations.get(f"fd_oracle.{run}", []) for run in ORACLE_RUNS},
        "active_set": (factorisations, out["fd_oracle._solve_nonneg"]["calls"]),
    }


def layer_metrics(summaries: list[dict], diverged: int, overhead_pct: float) -> dict:
    """Per-layer metric values over the traced repetitions: calls and self
    seconds as medians per repetition, percentiles over all calls pooled."""
    values = {}
    for name in NAMES:
        entries = [s["functions"][name] for s in summaries]
        values[f"{name}.calls"] = median(e["calls"] for e in entries)
        values[f"{name}.self_s"] = median(e["self_s"] for e in entries)
        if name in PER_STEP:
            pooled = [ms for e in entries for ms in e["ms"]]
            values[f"{name}.p50_ms"] = _percentile(pooled, 50)
            values[f"{name}.p90_ms"] = _percentile(pooled, 90)
    updates = [ms for s in summaries for ms in s["update_ms"]]
    values["driver.update_ms.p50"] = _percentile(updates, 50)
    values["driver.update_ms.p90"] = _percentile(updates, 90)
    values["driver.diverged"] = diverged
    for run in ORACLE_RUNS:
        pooled = [ms for s in summaries for ms in s["iter_ms"][run]]
        values[f"fd_oracle.{run}.iter_ms.p50"] = _percentile(pooled, 50)
        values[f"fd_oracle.{run}.iter_ms.p90"] = _percentile(pooled, 90)
    factorisations = sum(s["active_set"][0] for s in summaries)
    solves = sum(s["active_set"][1] for s in summaries)
    values["fd_oracle.active_set.passes_per_solve"] = factorisations / solves if solves else 0.0
    values["trace_overhead_pct"] = overhead_pct
    return values
