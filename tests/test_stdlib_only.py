"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import uefiforensics

PACKAGE_DIR = Path(uefiforensics.__file__).parent


def absolute_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_package_imports_only_the_standard_library():
    imports = [
        (path.name, name)
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for name in absolute_imports(path)
    ]
    assert imports
    stdlib = sys.stdlib_module_names
    assert [(f, name) for f, name in imports if name.split(".")[0] not in stdlib] == []
