"""Module boundaries: no tefal module imports another's private names,
every name a module's ``__all__`` lists exists, and every tefal name that a
docstring or README.md refers to resolves."""

import ast
import importlib
import importlib.util
import re
import types
from pathlib import Path

import pytest

import tefal

SRC = Path(tefal.__file__).parent
MODULES = sorted(SRC.glob("*.py"))


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


ROLE = re.compile(r":(?:func|class|meth|mod):`([^`]+)`")
README = Path(__file__).resolve().parents[1] / "README.md"
MODULE_NAMES = {"tefal", *(p.stem for p in MODULES)}


def resolves(target: str, module: str = "tefal") -> bool:
    """Whether ``target`` names an object: absolute when it starts with
    ``tefal``, else relative to ``module``."""
    parts = target.split(".")
    if parts[0] == "tefal":
        module, parts = "tefal", parts[1:]
    obj = importlib.import_module(module)
    for part in parts:
        if hasattr(obj, part):
            obj = getattr(obj, part)
        else:
            try:
                obj = importlib.import_module(f"{obj.__name__}.{part}")
            except (ImportError, AttributeError):
                return False
    return True


def docstring_targets(source: str) -> list[str]:
    """The ``:func:``/``:class:``/``:meth:``/``:mod:`` targets in the
    module, class and function docstrings of ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            found += ROLE.findall(ast.get_docstring(node) or "")
    return found


def readme_targets(text: str) -> list[str]:
    """Each inline-code `module.name` whose first part is tefal or one of its
    modules."""
    spans = re.findall(r"`([A-Za-z_][\w.]*\.\w+)`", text)
    return [span for span in spans if span.split(".")[0] in MODULE_NAMES]


def test_unresolved_references_are_found():
    assert docstring_targets('"""See :func:`score_tile` and :mod:`tefal.gone`."""\n'
                             'def f():\n    """:meth:`A.b`"""\n') == [
        "score_tile", "tefal.gone", "A.b"]
    assert resolves("score_tile", "tefal.model")
    assert resolves("XAttnParams.named", "tefal.attention")
    assert resolves("tefal.cli.main")
    assert not resolves("tefal.gone")
    assert not resolves("score_tile", "tefal.linalg")
    assert readme_targets("`model.score_tile`, `tefal.linalg`, `manifest.json`, "
                          "`a b.c`") == ["model.score_tile", "tefal.linalg"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_docstring_reference_resolves(path):
    module = "tefal" if path.stem == "__init__" else f"tefal.{path.stem}"
    targets = docstring_targets(path.read_text(encoding="utf-8"))
    assert [t for t in targets if not resolves(t, module)] == []


def test_every_dotted_readme_reference_resolves():
    targets = readme_targets(README.read_text(encoding="utf-8"))
    assert targets
    assert [t for t in targets if not resolves(t)] == []


# the tile geometry lives in tefal.model alone (pair_tiles, candidate_blocks)
TILE_GEOMETRY = {"TILE_PAIRS", "CANDIDATE_BLOCK", "padded_width"}


def tile_geometry_names(source: str) -> set[str]:
    """The tile-geometry names that ``source`` names, as a name, an
    attribute or an import."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update({node.name, node.asname})
    return names & TILE_GEOMETRY


def test_tile_geometry_names_are_found():
    assert tile_geometry_names("from .model import TILE_PAIRS as t\n"
                               "x = model.CANDIDATE_BLOCK + padded_width(3)\n") == TILE_GEOMETRY
    assert tile_geometry_names((SRC / "model.py").read_text(encoding="utf-8")) == TILE_GEOMETRY


@pytest.mark.parametrize("name", ["ranking.py", "cli.py"])
def test_only_the_model_plans_tiles(name):
    assert tile_geometry_names((SRC / name).read_text(encoding="utf-8")) == set()


# the K || M || M diag(g_o) layout and the TileCache live in tefal.attention alone
def kernel_internals(source: str) -> set[str]:
    """The ``.kv`` and ``.gram`` reads and the ``TileCache`` calls in ``source``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("kv", "gram"):
            found.add(f".{node.attr}")
        elif isinstance(node, ast.Call) and "TileCache" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.add("TileCache()")
    return found


def test_kernel_internals_are_found():
    want = {".kv", ".gram", "TileCache()"}
    assert kernel_internals("m = cands.kv[:, :, p:]\ng = c.gram\n"
                            "t = attention.TileCache(q=q)\n") == want
    assert kernel_internals("cache = TileCache(**fields)\n") == {"TileCache()"}
    assert kernel_internals("kv = gram = TileCache\n") == set()
    assert kernel_internals((SRC / "attention.py").read_text(encoding="utf-8")) == want


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "attention"],
                         ids=[p.name for p in MODULES if p.stem != "attention"])
def test_only_attention_reads_the_kernel_layout(path):
    assert kernel_internals(path.read_text(encoding="utf-8")) == set()


def test_the_line_counter_totals_are_the_files_line_counts(capsys):
    path = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
    spec = importlib.util.spec_from_file_location("src_lines", path)
    src_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_lines)
    assert src_lines.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    want = {p.stem: p.read_bytes().count(b"\n") for p in MODULES}
    assert {name: int(total) for name, total, _, _ in rows[:-1]} == want
    assert rows[-1][:2] == ["total", str(sum(want.values()))]
    for _, total, doc, code in rows:
        assert int(doc) + int(code) <= int(total)
