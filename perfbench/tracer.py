"""Span recording for the benchmark's traced runs, from outside the program.

Each function named in ``TARGETS`` is replaced by a wrapper at every tefal
module attribute that holds it, so a caller that looks the function up
through its own module (``tefal.model.block_forward`` as well as
``tefal.attention.block_forward``) is traced too.  Nothing under ``src/``
changes, and :meth:`Patches.restore` puts every original back.

A span is ``[name, start, end, parent]``: ``perf_counter`` seconds and the
index of the innermost open span of the same thread (-1 at the top).  A
span's self time is its duration minus the part of it that its child spans
cover.
"""

import functools
import importlib
import os
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np


def _tefal_modules() -> list:
    return [module for name, module in sorted(sys.modules.items())
            if module is not None and (name == "tefal" or name.startswith("tefal."))]


def _resolve(path: str):
    """``"training.AdamW.step"`` -> (owner, attribute name, current object)."""
    module, *rest = path.split(".")
    owner = importlib.import_module(f"tefal.{module}")
    for part in rest[:-1]:
        owner = getattr(owner, part)
    return owner, rest[-1], getattr(owner, rest[-1])


class Patches:
    """Replaces functions at every tefal attribute holding them; undoable."""

    def __init__(self):
        self._undo: list = []
        self.missing: list[str] = []

    def replace(self, path: str, make_wrapper) -> None:
        """Wrap the function at ``path`` wherever tefal refers to it.

        A path the program no longer has is listed in ``missing`` instead of
        raising, so that the benchmark keeps running when a function moves.
        """
        try:
            owner, attr, original = _resolve(path)
        except (ImportError, AttributeError):
            self.missing.append(path)
            return
        wrapper = make_wrapper(original)
        sites = [(owner, attr)] if isinstance(owner, type) else []
        for module in _tefal_modules():
            sites.extend((module, key) for key, value in vars(module).items()
                         if value is original)
        for obj, key in sites:
            self._undo.append((obj, key, original))
            setattr(obj, key, wrapper)

    def restore(self) -> None:
        while self._undo:
            obj, key, original = self._undo.pop()
            setattr(obj, key, original)


def _file_bytes(counter: str, from_result: bool = False):
    """Counter of the size of the file named by the first argument, or by
    the result when ``from_result``."""
    return lambda a, kw, r: {counter: os.path.getsize(r if from_result else a[0])}


def _rows(text) -> int:
    return int(np.shape(text)[0]) if np.ndim(text) == 2 else 1


def _shortlist(args, kwargs, result) -> dict:
    k = args[2] if len(args) > 2 else kwargs["k"]
    return {"ranking.stage1_comparisons": result.stats.stage1_comparisons,
            "ranking.stage2_model_evals": result.stats.stage2_model_evals,
            "ranking.shortlist_hits": int(np.sum(result.ranks <= k)),
            "ranking.shortlist_queries": len(result.ranks)}


# Traced functions, and the counters each call adds to from its arguments
# and result.  Counters are read after the call returns, outside the span.
TARGETS = {
    "linalg.canonical_sum": None,
    "linalg.layernorm_rows": None,
    "attention.attend": None,
    "attention.block_forward": lambda a, kw, r: {"attention.rows": _rows(a[1])},
    "attention.block_backward": None,
    "fusion.fuse_forward": None,
    "fusion.fuse_backward": None,
    "contrastive.cosine_rows": None,
    "contrastive.infonce": None,
    "model.candidate_scores": lambda a, kw, r: {"model.pairs": len(r[0])},
    "model.similarity_matrix": None,
    "model.batch_loss_and_grads": None,
    "ranking.rank_exhaustive": lambda a, kw, r: {
        "ranking.stage1_comparisons": r.stats.stage1_comparisons,
        "ranking.stage2_model_evals": r.stats.stage2_model_evals},
    "ranking.rerank_two_stage": _shortlist,
    "ranking.ranks_from_similarity": None,
    "training.train": None,
    "training.AdamW.step": None,
    "training.clip_global_norm": None,
    "storage.load_corpus": _file_bytes("storage.bytes_read"),
    "storage.load_checkpoint": _file_bytes("storage.bytes_read"),
    "storage.read_embeddings": _file_bytes("storage.bytes_read"),
    "storage.save_corpus": _file_bytes("storage.bytes_written", from_result=True),
    "storage.save_checkpoint": _file_bytes("storage.bytes_written"),
    "storage.write_embeddings": _file_bytes("storage.bytes_written"),
    "audiofeat.read_wav": None,
    "audiofeat.compute_fbank": lambda a, kw, r: {"audiofeat.frames": r.frames.shape[0]},
}


class Tracer:
    """Keeps spans and counters in memory while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _wrap(self, name: str, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                added = count(args, kwargs, result)
                with self._lock:
                    self.counters.update(added)
            return result
        return traced

    def install(self) -> Patches:
        """Wrap every target; the caller must ``restore()`` the result."""
        patches = Patches()
        for name, count in TARGETS.items():
            patches.replace(name, lambda fn, name=name, count=count:
                            self._wrap(name, fn, count))
        return patches


def self_times(spans) -> dict[str, float]:
    """Summed self time per span name: duration minus the union of children."""
    children: dict[int, list] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        totals[name] += (end - start) - covered
    return dict(totals)


def span_totals(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Summed inclusive duration and call count per span name."""
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for name, start, end, _parent in spans:
        seconds[name] += end - start
        calls[name] += 1
    return dict(seconds), dict(calls)
