"""Module boundaries: no tefal module imports another's private names, and
every name a module's ``__all__`` lists exists."""

import ast
import importlib
import types
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


def stale_exports(module) -> list[str]:
    """The names in ``module.__all__`` that the module does not define."""
    return [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]


def test_stale_exports_are_found():
    module = types.ModuleType("mod")
    module.kept = 1
    module.__all__ = ["kept", "gone"]
    assert stale_exports(module) == ["gone"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_exported_name_exists(path):
    name = "tefal" if path.stem == "__init__" else f"tefal.{path.stem}"
    assert stale_exports(importlib.import_module(name)) == []
