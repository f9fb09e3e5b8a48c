"""The package needs numpy and the standard library, nothing else."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "linpois"}


def _imported_roots(path: Path) -> set:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_source_imports_only_stdlib_and_numpy():
    sources = sorted((ROOT / "src" / "linpois").glob("*.py"))
    assert sources
    for path in sources:
        assert _imported_roots(path) <= ALLOWED, path.name


def test_pyproject_declares_only_numpy():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = [re.split(r"[\s<>=!~;\[]", dep)[0] for dep in project["dependencies"]]
    assert names == ["numpy"]


def _unused_imports(source: str) -> list:
    """Names a module imports but neither uses nor lists in __all__;
    from __future__ imports are exempt."""
    tree = ast.parse(source)
    imported, used, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


def test_source_has_no_unused_import():
    assert _unused_imports("import os\nimport numpy as np\nfrom .a import b, c\n"
                           "__all__ = ['c']\nnp.zeros(b)\n") == ["os"]
    sources = sorted((ROOT / "src" / "linpois").glob("*.py"))
    for path in sources:
        assert _unused_imports(path.read_text(encoding="utf-8")) == [], path.name
