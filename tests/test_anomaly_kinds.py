"""The README's list of anomaly kinds is exactly the set the package emits."""

import ast
import re
from pathlib import Path

import uefiforensics

PACKAGE_DIR = Path(uefiforensics.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"


def emitted_kinds() -> set[str]:
    """The first argument of every ``Anomaly(...)`` call in the package."""
    kinds = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Anomaly":
                kind = node.args[0]
                assert isinstance(kind, ast.Constant) and isinstance(kind.value, str), path.name
                kinds.add(kind.value)
    return kinds


def readme_kinds() -> list[str]:
    """The first cell of each row of the README's "Anomaly kinds" table."""
    text = README.read_text(encoding="utf-8")
    section = text.split("**Anomaly kinds.**", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE)


def test_readme_lists_each_emitted_anomaly_kind_once():
    listed = readme_kinds()
    assert len(listed) == len(set(listed)) == 9
    assert set(listed) == emitted_kinds()
