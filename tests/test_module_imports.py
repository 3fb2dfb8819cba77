"""Module boundaries: no tefal module imports another's private names,
every name a module's ``__all__`` lists exists, and every tefal name that a
docstring or README.md refers to resolves."""

import ast
import importlib
import importlib.util
import inspect
import io
import re
import tokenize
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


def undocumented_functions(module) -> list[str]:
    """The functions in ``module.__all__`` that have no docstring."""
    return [name for name in getattr(module, "__all__", [])
            if inspect.isfunction(getattr(module, name, None))
            and not (getattr(module, name).__doc__ or "").strip()]


def test_undocumented_functions_are_found():
    module = types.ModuleType("mod")
    exec("def documented():\n    \"\"\"Does it.\"\"\"\n"
         "def bare():\n    return 1\n"
         "def blank():\n    \"\"\"  \"\"\"\n"
         "class Bare:\n    pass\n"
         "CONSTANT = 3\n", module.__dict__)
    module.__all__ = ["documented", "bare", "blank", "Bare", "CONSTANT"]
    assert undocumented_functions(module) == ["bare", "blank"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_exported_function_has_a_docstring(path):
    name = "tefal" if path.stem == "__init__" else f"tefal.{path.stem}"
    assert undocumented_functions(importlib.import_module(name)) == []


# measurements and the versions they ran on belong in CHANGES.md, not in
# the contracts that the docstrings and comments state
MEASUREMENT = re.compile(r"\d+\.\d+\.\d+|\d+ CPUs?")


def measurement_citations(source: str) -> list[str]:
    """The version numbers and CPU counts that the module, class and
    function docstrings and the comments of ``source`` name."""
    texts = [ast.get_docstring(node, clean=False) or "" for node in ast.walk(ast.parse(source))
             if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef))]
    texts += [token.string for token in tokenize.generate_tokens(io.StringIO(source).readline)
              if token.type == tokenize.COMMENT]
    return [found for text in texts for found in MEASUREMENT.findall(text)]


def test_measurement_citations_are_found():
    source = ('"""Checked on OpenBLAS 0.3.31."""\n__version__ = "0.1.0"\n'
              "# the fastest width (2 CPUs)\n"
              "def f():\n    \"\"\"Runs on 1 CPU, at 12 sizes up to 4,097.\"\"\"\n"
              "    return '3.11.7 on 4 CPUs'  # 1.2 s\n")
    assert measurement_citations(source) == ["0.3.31", "1 CPU", "2 CPUs"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_docstring_or_comment_cites_a_measurement(path):
    assert measurement_citations(path.read_text(encoding="utf-8")) == []


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
def calls_tile_cache(node) -> bool:
    """Whether ``node`` calls ``TileCache``, bare or as an attribute."""
    return isinstance(node, ast.Call) and "TileCache" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def kernel_internals(source: str) -> set[str]:
    """The ``.kv`` and ``.gram`` reads and the ``TileCache`` calls in ``source``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("kv", "gram"):
            found.add(f".{node.attr}")
        elif calls_tile_cache(node):
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


ROOT = Path(__file__).resolve().parents[1]


def load_src_lines():
    spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
    src_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_lines)
    return src_lines


def test_the_line_counter_totals_are_the_files_line_counts(capsys):
    src_lines = load_src_lines()
    assert src_lines.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    want = {p.stem: p.read_bytes().count(b"\n") for p in MODULES}
    assert {name: int(total) for name, total, _, _ in rows[:-1]} == want
    assert rows[-1][:2] == ["total", str(sum(want.values()))]
    for _, total, doc, code in rows:
        assert int(doc) + int(code) <= int(total)


def compared_rows(capsys, base) -> dict[str, list[str]]:
    """``tools/src_lines.py --base base``'s rows, by module."""
    assert load_src_lines().main(["--base", str(base)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[1:] == ["base_total", "base_doc", "base_code", "total", "doc",
                                    "code", "diff_total", "diff_doc", "diff_code"]
    return {row[0]: row[1:] for row in map(str.split, lines[1:])}


def test_the_line_counter_against_this_checkout_shows_no_difference(capsys):
    rows = compared_rows(capsys, ROOT)
    assert set(rows) == {p.stem for p in MODULES} | {"total"}
    assert {name: row[6:] for name, row in rows.items()} == {
        name: ["+0"] * 3 for name in rows}
    assert all(row[:3] == row[3:6] for row in rows.values())


def test_the_line_counter_shows_exactly_the_shortened_module(capsys, tmp_path):
    base = tmp_path / "src" / "tefal"
    base.mkdir(parents=True)
    for path in MODULES:
        (base / path.name).write_bytes(path.read_bytes())
    # the base's linalg ends before its last top-level definition
    source = (SRC / "linalg.py").read_text(encoding="utf-8")
    last = ast.parse(source).body[-1]
    kept = source.splitlines(keepends=True)[:last.lineno - 1]
    (base / "linalg.py").write_text("".join(kept), encoding="utf-8")
    rows = compared_rows(capsys, tmp_path)
    removed = len(source.splitlines()) - len(kept)
    assert int(rows["linalg"][6]) == removed > 0
    assert int(rows["linalg"][8]) > 0
    assert rows["total"][6:] == rows["linalg"][6:]
    assert [name for name, row in rows.items() if row[6:] != ["+0"] * 3] == [
        "linalg", "total"]


def tefal_imports(source: str) -> set[str]:
    """The tefal modules that ``source`` imports, relatively or by name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module.split(".")[0]] if node.module
                         else [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tefal."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("tefal."))
    return found


def functions_that_import(source: str) -> list[str]:
    """The functions of ``source`` that hold an import statement."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(inner, (ast.Import, ast.ImportFrom))
                    for inner in ast.walk(node))]


def import_cycle(graph: dict[str, set[str]]) -> list[str]:
    """One cycle of ``graph`` as ``[a, b, ..., a]``, or ``[]`` if it has none."""
    done, path = set(), []

    def visit(node):
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return []
        path.append(node)
        for dep in sorted(graph.get(node, ())):
            cycle = visit(dep)
            if cycle:
                return cycle
        path.pop()
        done.add(node)
        return []

    return next((cycle for cycle in map(visit, sorted(graph)) if cycle), [])


IMPORTS = {p.stem: tefal_imports(p.read_text(encoding="utf-8")) for p in MODULES}


def test_import_facts_are_found():
    source = ("from .linalg import x\nfrom . import model\nimport tefal.ranking\n"
              "from tefal.corpus import Corpus\nimport os\n"
              "def f():\n    def g():\n        from .config import ConfigError\n")
    assert tefal_imports(source) == {"linalg", "model", "ranking", "corpus", "config"}
    assert functions_that_import(source) == ["f", "g"]
    assert import_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert import_cycle({"config": {"model"}, "model": {"config", "linalg"}}) == [
        "config", "model", "config"]
    assert import_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_imports_inside_a_function(path):
    assert functions_that_import(path.read_text(encoding="utf-8")) == []


def test_the_import_graph_has_no_cycle():
    assert import_cycle(IMPORTS) == []


def test_the_corpus_imports_only_linalg():
    assert IMPORTS["corpus"] == {"linalg"}


# linalg's two rules are the only scalar type checks; the other callers of
# is_integer check integer arrays
INTEGER_TEST_CALLERS = {"linalg.require_int", "linalg.require_real",
                        "corpus.Corpus.item_indices", "ranking.compute_metrics"}


def integer_test_callers(source: str) -> set[str]:
    """The functions (qualified by their classes) and the module-level
    assignments of ``source`` that call ``is_integer``, by name or as
    ``linalg.is_integer``."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) == "is_integer"
                or getattr(node.func, "attr", None) == "is_integer"
                and getattr(node.func.value, "id", None) == "linalg"):
            found.add(scope or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for statement in ast.parse(source).body:
        targets = statement.targets if isinstance(statement, ast.Assign) else []
        visit(statement, ",".join(getattr(t, "id", "?") for t in targets))
    return found


def test_integer_test_callers_are_found():
    source = ("def f(x):\n    return is_integer(x)\n"
              "class C:\n    def m(self, x):\n        return [linalg.is_integer(x)]\n"
              "RULES = {int: lambda v: is_integer(v)}\n"
              "is_integer(3)\n"
              "def g(step):\n    return step.is_integer() and x.is_integer\n")
    assert integer_test_callers(source) == {"f", "C.m", "RULES", "<module>"}


def test_only_the_rules_and_the_integer_array_checks_call_is_integer():
    callers = {f"{p.stem}.{scope}" for p in MODULES
               for scope in integer_test_callers(p.read_text(encoding="utf-8"))}
    assert callers == INTEGER_TEST_CALLERS


def scopes_where(source: str, hit) -> set[str]:
    """The functions (qualified by their classes) of ``source``, or
    ``<module>``, that hold a node for which ``hit(node)`` is true."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif hit(node):
            found.add(scope or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


# one kernel form: only attend_tile constructs the TileCache that
# block_backward_tile reverses
def tile_cache_callers(source: str) -> set[str]:
    """The functions of ``source``, or ``<module>``, that call ``TileCache``."""
    return scopes_where(source, calls_tile_cache)


def test_tile_cache_callers_are_found():
    source = ("def f(cands):\n    return TileCache(**vars(cands))\n"
              "class C:\n    def m(self):\n        return attention.TileCache(q=1)\n"
              "def g():\n    return TileCache\n"
              "cache = TileCache()\n")
    assert tile_cache_callers(source) == {"f", "C.m", "<module>"}
    assert tile_cache_callers((SRC / "attention.py").read_text(encoding="utf-8")) == {
        "attend_tile"}


def test_only_attend_tile_constructs_a_tile_cache():
    callers = {f"{p.stem}.{scope}" for p in MODULES
               for scope in tile_cache_callers(p.read_text(encoding="utf-8"))}
    assert callers == {"attention.attend_tile"}


# the kernel's halves: block_forward_tile composes them, and the model pools
# several blocks in one product; any other module runs block_forward_tile
KERNEL_HALVES = {"project_candidates", "attend_and_pool", "pooling_rows"}


def kernel_half_callers(source: str) -> set[str]:
    """The functions of ``source``, or ``<module>``, that call
    ``project_candidates``, ``attend_and_pool`` or ``pooling_rows``, bare or
    as an attribute."""
    return scopes_where(source, lambda node: isinstance(node, ast.Call) and bool(
        {getattr(node.func, "id", None), getattr(node.func, "attr", None)} & KERNEL_HALVES))


def test_kernel_half_callers_are_found():
    source = ("def f(p, c):\n    return project_candidates(p, c)\n"
              "class C:\n    def m(self, b, r):\n"
              "        return attention.attend_and_pool(b, r)\n"
              "def g():\n    return pooling_rows, block_forward_tile(p, q, c)\n"
              "rows = pooling_rows([])\n")
    assert kernel_half_callers(source) == {"f", "C.m", "<module>"}
    assert kernel_half_callers((SRC / "attention.py").read_text(encoding="utf-8")) == {
        "block_forward_tile"}


def test_only_attention_and_model_call_the_kernel_halves():
    callers = {p.stem for p in MODULES if kernel_half_callers(p.read_text(encoding="utf-8"))}
    assert callers == {"attention", "model"}


# the xattn fusion block is fusion's own: the model runs only the video and
# audio blocks, and no other module projects or reverses the xattn queries
def xattn_readers(source: str) -> set[str]:
    """The functions of ``source``, or ``<module>``, that name a ``.xattn``
    attribute; a key or a name ``xattn`` is no attribute."""
    return scopes_where(source, lambda node: getattr(node, "attr", None) == "xattn")


def test_xattn_readers_are_found():
    source = ("def f(model, name):\n"
              "    return model.fusion.xattn if name == 'xattn' else None\n"
              "class C:\n    def m(self, xattn):\n        self.xattn = xattn\n"
              "def g(params):\n    return {'xattn': params}, getattr(params, 'xattn')\n"
              "w = params.xattn.w_q\n")
    assert xattn_readers(source) == {"f", "C.m", "<module>"}
    assert {"FusionParams.named", "fuse_forward", "fuse_backward"} <= xattn_readers(
        (SRC / "fusion.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "fusion"],
                         ids=[p.name for p in MODULES if p.stem != "fusion"])
def test_only_fusion_reads_the_xattn_block(path):
    assert xattn_readers(path.read_text(encoding="utf-8")) == set()


# every worker loop runs on map_tasks, which holds the BLAS to one thread
THREAD_STARTERS = {"ThreadPoolExecutor", "ProcessPoolExecutor", "Thread"}


def thread_starters(source: str) -> set[str]:
    """The functions (qualified by their classes) of ``source``, or
    ``<module>``, that name ``ThreadPoolExecutor``, ``ProcessPoolExecutor``
    or ``Thread``, bare or as an attribute; an import names none, unless it
    renames one."""
    return scopes_where(source, lambda node: (
        getattr(node, "id", None) in THREAD_STARTERS
        or getattr(node, "attr", None) in THREAD_STARTERS
        or isinstance(node, ast.alias) and node.asname
        and node.name.split(".")[-1] in THREAD_STARTERS))


def test_thread_starters_are_found():
    source = ("import threading\nfrom concurrent.futures import ThreadPoolExecutor\n"
              "def f():\n    with ThreadPoolExecutor(2) as pool:\n        pass\n"
              "class C:\n    def m(self):\n        threading.Thread(target=f).start()\n"
              "def g():\n    return concurrent.futures.ProcessPoolExecutor()\n"
              "lock = threading.Lock()\n")
    assert thread_starters(source) == {"f", "C.m", "g"}
    assert thread_starters("from threading import Thread as T\n") == {"<module>"}
    assert thread_starters((SRC / "model.py").read_text(encoding="utf-8")) == {"map_tasks"}


def test_only_map_tasks_starts_threads():
    starters = {f"{p.stem}.{scope}" for p in MODULES
                for scope in thread_starters(p.read_text(encoding="utf-8"))}
    assert starters == {"model.map_tasks"}
