"""The README's module table names exactly the package's modules."""
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_layout_table_lists_every_module():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `deepuzawa\.(\w+)`", section, flags=re.MULTILINE)
    modules = [p.stem for p in (ROOT / "src" / "deepuzawa").glob("*.py") if p.name != "__init__.py"]
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(modules)
