"""No module of ``deepuzawa`` or of its tests imports a name it never uses,
and every private module-level name of ``deepuzawa`` is read in the package.

Both checks read the sources with ``ast``, without importing them.
"""
import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "deepuzawa"
# no test module shares a name with a package module, so the file name is the id
MODULES = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c as d, e\nimport x.y\nx.y.z(e)\n") == [
        "os", "d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(sources: list[str]) -> list[str]:
    """Private names (``_x``, not dunders) that a module of ``sources``
    binds at its top level by ``def``, ``class`` or assignment, and that no
    expression in any of them reads, as a name or as an attribute."""
    trees = [ast.parse(source) for source in sources]
    bound = []
    for node in (node for tree in trees for node in tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    read = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return [name for name in bound if name.startswith("_") and not name.startswith("__")
            and name not in read]


def test_the_check_finds_an_unread_private_name():
    first = "__all__ = []\n_A, _B = 1, 2\ndef _f():\n    return _g\nclass _C: pass\n_D: int = _A\n"
    second = "from first import _A\ndef _g(_e):\n    return first._C\n"
    assert unread_private_names([first, second]) == ["_B", "_f", "_D"]


def test_every_private_name_of_the_package_is_read():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    assert unread_private_names(sources) == []
