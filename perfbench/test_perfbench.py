"""Tests of the benchmark's own code: span arithmetic, the wrappers and the checks.

Run from the repository root with ``python -m pytest perfbench``.
"""

import numpy as np
import pytest

import tefal.attention
import tefal.model
from perfbench.tracer import Patches, Tracer, self_times, span_totals
from perfbench.workloads import WORKLOADS, Checks

SMALL = {
    "eval_dense": {"n_items": 60, "train_items": 60, "checkpoint_epochs": 1,
                   "checked_queries": 6, "checked_pairs_side": 4},
    "rerank_sparse": {"n_items": 80, "train_items": 48, "checkpoint_epochs": 1, "k": 8,
                      "checked_queries": 6, "checked_pairs_side": 4},
    "train": {"n_items": 64, "epochs": 1},
    "ingest": {"clips": 3, "max_clip_s": 1.0, "n_items": 50},
}


def test_self_time_subtracts_nested_children():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["d", 5.0, 7.0, 0],
        ["e", 6.0, 9.0, 0],    # overlaps d, as spans of two threads can
        ["b", 11.0, 12.0, -1],
    ]
    own = self_times(spans)
    assert own == pytest.approx({"a": 3.0, "b": 3.0, "c": 1.0, "d": 2.0, "e": 3.0})
    seconds, calls = span_totals(spans)
    assert seconds["b"] == pytest.approx(4.0) and calls["b"] == 2


def test_self_time_clips_children_to_their_parent():
    own = self_times([["p", 0.0, 2.0, -1], ["q", 1.5, 3.0, 0]])
    assert own["p"] == pytest.approx(1.5)


def test_wrappers_nest_and_restore():
    original = tefal.attention.block_forward
    corpus = tefal.synth_corpus(seed=0, n_items=3, dim=4, frames=2, audio_tokens=2)
    model = tefal.create_model(seed=0, dim=4)
    tracer = Tracer()
    patches = tracer.install()
    try:
        assert tefal.model.block_forward is tefal.attention.block_forward
        assert tefal.model.block_forward is not original
        tefal.model.candidate_scores(model, corpus.texts, corpus, 1)
    finally:
        patches.restore()
    assert tefal.model.block_forward is original
    assert tefal.attention.block_forward is original
    assert not patches.missing
    names = [s[0] for s in tracer.spans]
    top = names.index("model.candidate_scores")
    blocks = [s for s in tracer.spans if s[0] == "attention.block_forward"]
    assert len(blocks) == 2 and all(s[3] == top for s in blocks)
    assert tracer.counters["attention.rows"] == 6
    assert tracer.counters["model.pairs"] == 3


def test_missing_function_is_listed_not_raised():
    patches = Patches()
    patches.replace("model.no_such_function", lambda fn: fn)
    assert patches.missing == ["model.no_such_function"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_changes_no_result(name, tmp_path):
    checks = Checks()
    workload = WORKLOADS[name](5, tmp_path, checks, **SMALL[name])
    workload.generate()
    workload.setup()
    plain = workload.run_pass()
    patches = Tracer().install()
    try:
        workload.setup()
        traced = workload.run_pass()
    finally:
        patches.restore()
    assert plain.outputs.keys() == traced.outputs.keys()
    for key, value in plain.outputs.items():
        assert np.array_equal(value, traced.outputs[key]), key
    workload.check([plain, traced])
    assert checks.attempted > 0
    assert checks.failed == 0, checks.failures


def test_non_finite_scores_count_as_failures(tmp_path, monkeypatch):
    checks = Checks()
    workload = WORKLOADS["eval_dense"](5, tmp_path, checks, **SMALL["eval_dense"])
    workload.generate()
    workload.setup()
    scores = tefal.model.candidate_scores

    def nan_for_item_0(model, texts, corpus, j, with_cache=False):
        result, cache = scores(model, texts, corpus, j, with_cache)
        return (np.full_like(result, np.nan) if j == 0 else result), cache

    monkeypatch.setattr(tefal.model, "candidate_scores", nan_for_item_0)
    monkeypatch.setattr(tefal.ranking, "candidate_scores", nan_for_item_0)
    workload.check([workload.run_pass()])
    assert checks.failed >= 60
    assert any("finite model scores" in f for f in checks.failures)
