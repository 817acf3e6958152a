"""Every function the benchmark traces still exists in ``deepuzawa``.

The tracer in ``perfbench/spans.py`` lists a vanished target as absent
instead of failing, so a deletion or rename here would silently drop a
per-layer span.  The target list is read from the file's source, without
importing or executing it.
"""
import ast
import importlib
from pathlib import Path

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
