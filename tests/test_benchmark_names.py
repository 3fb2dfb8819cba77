"""Every tefal name that the benchmark reads still exists.

``perfbench/tracer.py`` wraps each function that its ``TARGETS`` names, and
``Patches.replace`` lists a name it cannot find as missing instead of
failing, so a renamed function only shows as a metric that reads 0.
``perfbench/workloads.py`` calls tefal by module attribute and keyword.
These tests read both files with ``ast`` (importing nothing from
``perfbench``) and resolve each name under ``tefal``.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def resolve(path: str):
    """``"training.AdamW.step"`` -> the object ``tefal.training.AdamW.step``."""
    module, *rest = path.split(".")
    obj = importlib.import_module(f"tefal.{module}")
    for part in rest:
        obj = getattr(obj, part)
    return obj


def traced_paths() -> list[str]:
    """The keys of ``perfbench/tracer.py``'s ``TARGETS`` dict."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return [ast.literal_eval(key) for key in node.value.keys]
    return []


def workload_reads() -> list[tuple[str, tuple[str, ...]]]:
    """``(path, keywords)`` for each tefal name ``perfbench/workloads.py``
    reads: attributes of the modules it imports with ``from tefal import``,
    names it imports from a tefal module, and the paths it passes to
    ``patches.replace``; ``keywords`` are the keyword names of a call."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "tefal":
            modules.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tefal."):
            module = node.module.split(".", 1)[1]
            names.update({a.asname or a.name: f"{module}.{a.name}" for a in node.names})
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            path = f"{modules[node.value.id]}.{node.attr}"
        elif isinstance(node, ast.Name) and node.id in names:
            path = names[node.id]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "replace" and isinstance(node.func.value, ast.Name) \
                and node.func.value.id == "patches":
            path = ast.literal_eval(node.args[0])
        else:
            continue
        call = calls.get(id(node))
        reads.append((path, tuple(k.arg for k in call.keywords if k.arg) if call else ()))
    return sorted(set(reads))


TRACED = traced_paths()
READS = workload_reads()


def test_the_names_are_found():
    # guards the parsers, so that an empty list cannot pass the tests below
    assert {"model.candidate_scores", "training.AdamW.step"} <= set(TRACED)
    keywords = {path: set(kw) for path, kw in READS if kw}
    assert "model.candidate_scores" in dict(READS)
    assert keywords["model.similarity_matrix"] == {"query_texts", "candidates"}
    assert keywords["model.named_parameters"] == {"trainable_only"}
    assert "audio_tokens" in keywords["config.TrainConfig"]


@pytest.mark.parametrize("path", TRACED)
def test_traced_name_resolves(path):
    assert callable(resolve(path)), path


@pytest.mark.parametrize("path,keywords", READS,
                         ids=[f"{path}({','.join(kw)})" if kw else path
                              for path, kw in READS])
def test_workload_name_resolves_and_takes_its_keywords(path, keywords):
    obj = resolve(path)
    if keywords:
        params = inspect.signature(obj).parameters
        if not any(p.kind is p.VAR_KEYWORD for p in params.values()):
            assert set(keywords) <= set(params), (path, keywords)
