"""Module boundaries: no tefal module imports another's private names."""

import ast
from pathlib import Path

import pytest

import tefal

MODULES = sorted(Path(tefal.__file__).parent.glob("*.py"))


def private_imports(path: Path) -> list[str]:
    """``module.name`` for each underscore-prefixed name that ``path``
    imports from a tefal module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "tefal"):
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_private_imports_are_found(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from .model import _uses_video, score_tile\n"
                    "from tefal.linalg import _private\n"
                    "from os import _exit\n")
    assert private_imports(path) == ["model._uses_video", "tefal.linalg._private"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_imports_another_modules_private_names(path):
    assert private_imports(path) == []
