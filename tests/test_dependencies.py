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
