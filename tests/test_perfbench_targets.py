"""Every function the benchmark traces still exists in ``deepuzawa``, and
none runs on the jet sweeps' helper thread.

The tracer in ``perfbench/spans.py`` lists a vanished target as absent
instead of failing, so a deletion or rename here would silently drop a
per-layer span.  It also keeps one stack of open spans for the process, so a
traced call on a second thread would corrupt the nesting.  The target list
is read from the file's source, without importing or executing it.
"""
import ast
import importlib
import os
import sys
from pathlib import Path

import numpy as np

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_targets():
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {SPANS}")


def test_every_traced_target_resolves():
    targets = traced_targets()
    assert len(targets) > 20
    missing = []
    for module, name in targets:
        obj = importlib.import_module(f"deepuzawa.{module}")
        for attr in name.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(f"{module}.{name}")
    assert missing == []


def test_no_traced_target_runs_on_the_helper_thread(monkeypatch):
    from deepuzawa import network
    from deepuzawa.geometry import Domain, build_grid
    from reference_checks import sampled_problem

    monkeypatch.setattr(network, "_SPLIT_SIZE", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    called = set()

    def record(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((frame.f_globals.get("__name__"),
                        getattr(code, "co_qualname", code.co_name)))

    g = build_grid(Domain.unit_square(), 5)
    params = network.init_network(network.NetworkSpec(2, (4, 4)))
    problem = sampled_problem("sine2d", 1e-2, g)
    helper = network._helper(os.getpid())
    helper.submit(sys.setprofile, record).result()
    try:
        network.loss_and_gradient(params, problem, np.zeros(g.n_interior))
    finally:
        helper.submit(sys.setprofile, None).result()
    on_helper = {name for module, name in called if module == "deepuzawa.network"}
    assert {"_sweep_forward", "_sweep_reverse"} <= on_helper
    traced = {(f"deepuzawa.{module}", name) for module, name in traced_targets()}
    assert called & traced == set()
