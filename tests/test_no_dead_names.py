"""Every imported name and every private module-level name in the package is read."""

import ast
from pathlib import Path

import uefiforensics

PACKAGE_DIR = Path(uefiforensics.__file__).parent


def module_bindings(tree: ast.Module):
    """(name, imported) for every name the module body binds."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    yield (alias.asname or alias.name).split(".")[0], True
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, False
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, False


def dead_names(path: Path) -> list[str]:
    """Names ``path`` imports, or binds privately at module level, and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        name
        for name, imported in module_bindings(tree)
        if name not in read
        and (imported or (name.startswith("_") and not name.startswith("__")))
    ]


def test_no_unread_imports_or_private_names():
    found = [
        (path.name, name)
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "__init__.py"
        for name in dead_names(path)
    ]
    assert found == []


def test_detects_a_leftover_private_class_and_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import json\n"
        "from os import path\n"
        "class _ImageBytes:\n    pass\n"
        "def public():\n    return path.sep\n",
        encoding="utf-8",
    )
    assert dead_names(module) == ["json", "_ImageBytes"]
