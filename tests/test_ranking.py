"""Ranking, metrics, two-stage re-ranking, and dual-softmax rescoring."""

import dataclasses
import functools
import json
import os
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import MODEL_KINDS, distinct_shortlisted_pairs, stage1_matrix
from tefal import model as model_module
from tefal import ranking
from tefal.config import ConfigError
from tefal.corpus import Corpus, synth_corpus
from tefal.linalg import PAD, ShapeError
from tefal.model import (
    _openblas_threads,
    create_model,
    map_tasks,
    resolve_workers,
    similarity_matrix,
)
from tefal.ranking import (
    NonFiniteScoreError,
    compute_metrics,
    dual_softmax_postprocess,
    evaluate,
    rank_exhaustive,
    ranks_from_similarity,
    rerank_two_stage,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def brute_force_rank(scores, truth, ids):
    """Sort-and-count oracle: descending score, ties by ascending id."""
    order = sorted(range(len(scores)), key=lambda j: (-scores[j], ids[j]))
    return order.index(truth) + 1


def stage1_pooled(frames):
    """The unit-norm mean-pooled frame vector of each item, as stage 1
    scores it."""
    n, _, dim = frames.shape
    corpus = Corpus([f"v{j}" for j in range(n)], np.zeros((n, dim)), frames,
                    np.zeros((n, 1, dim)), np.zeros(n, dtype=bool))
    return ranking._stage1_rows(corpus)[1]


def unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def cosine_oracle(corpus):
    """The (texts x videos) cosines between the texts and the mean-pooled
    frames, one ``np.dot`` per text row, without the ranking helpers."""
    pooled = unit_rows(corpus.frames.mean(axis=1))
    return np.array([np.dot(pooled, text) for text in unit_rows(corpus.texts)])


def rerank_ranks(model, corpus, k, direction, workers=1):
    """One direction's two-stage ranks: :func:`rerank_two_stage` for t2v,
    and the private core, which also takes ``"v2t"``, for v2t."""
    if direction == "t2v":
        return rerank_two_stage(model, corpus, k, workers).ranks
    (ranks,), _ = ranking._rerank(model, corpus, k, workers, (direction,))
    return ranks


def stub_stage1(stage1):
    """Patch stage 1 to score with the (texts x videos) matrix ``stage1``:
    identity text rows against ``stage1.T`` as the video rows give every
    entry exactly, t2v reading ``stage1`` and v2t its transpose."""
    return mock.patch.object(ranking, "_stage1_rows",
                             lambda corpus: (np.eye(len(stage1)), stage1.T))


class TestMeanPool:
    """The mean over frames that stage 1 pools each video into."""

    def test_single_frame(self):
        row = np.random.default_rng(0).standard_normal((1, 5))
        np.testing.assert_array_equal(stage1_pooled(row[None]), unit_rows(row))

    def test_opposite_rows_cancel_exactly(self):
        r = np.random.default_rng(1).standard_normal((1, 4))
        out = stage1_pooled(np.vstack([r, -r])[None])
        np.testing.assert_array_equal(out, np.zeros((1, 4)))

    def test_random_mean(self):
        m = np.random.default_rng(2).standard_normal((3, 4))
        expected = np.array([[sum(m[:, d]) / 3.0 for d in range(4)]])
        np.testing.assert_allclose(stage1_pooled(m[None]), unit_rows(expected),
                                   atol=1e-15)


class TestComputeMetrics:
    def test_perfect_ranks(self):
        m = compute_metrics([1, 1, 1, 1], candidate_count=50)
        assert (m.r1, m.r5, m.r10, m.mdr, m.mnr) == (100.0, 100.0, 100.0, 1.0, 1.0)

    def test_hand_example(self):
        m = compute_metrics([1, 6, 11], candidate_count=20)
        assert m.r1 == pytest.approx(100 / 3)
        assert m.r5 == pytest.approx(100 / 3)
        assert m.r10 == pytest.approx(200 / 3)
        assert m.mdr == 6.0
        assert m.mnr == 6.0

    def test_even_count_median_takes_lower_middle(self):
        assert compute_metrics([1, 2, 9, 10], 10).mdr == 2.0

    def test_order_invariance(self):
        rng = np.random.default_rng(3)
        ranks = rng.integers(1, 51, size=30)
        base = compute_metrics(ranks, 50)
        shuffled = compute_metrics(rng.permutation(ranks), 50)
        assert base == shuffled

    def test_recall_monotone(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = compute_metrics(rng.integers(1, 101, size=25), 100)
            assert m.r1 <= m.r5 <= m.r10 <= 100.0
            assert 1.0 <= m.mdr <= 100.0

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            compute_metrics([0, 3], 10)
        with pytest.raises(ValueError):
            compute_metrics([3, 11], 10)

    @pytest.mark.parametrize("ranks", [[1.5, 2], [True, True], np.array([1.0, 2.0])])
    def test_ranks_that_are_no_whole_numbers_are_rejected(self, ranks):
        # [1.5, 2] used to give R@1 0 and MdR 1.5
        with pytest.raises(ValueError, match="ranks must be whole numbers"):
            compute_metrics(ranks, 3)

    @pytest.mark.parametrize("ranks", [[[1, 2], [3, 1]], 2])
    def test_ranks_other_than_one_dimensional_are_a_shape_error(self, ranks):
        # a 2-D input raised numpy's bare TypeError
        with pytest.raises(ShapeError, match="ranks must be 1-D"):
            compute_metrics(ranks, 3)


class TestRanksFromSimilarity:
    def test_identity_matrix_all_rank_one(self):
        ids = [f"i{j}" for j in range(5)]
        np.testing.assert_array_equal(ranks_from_similarity(np.eye(5), ids),
                                      np.ones(5, dtype=int))

    def test_single_item(self):
        assert ranks_from_similarity(np.array([[0.2]]), ["a"])[0] == 1

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(5)
        ids = [f"item{j:03d}" for j in range(10)]
        for _ in range(50):
            sim = rng.standard_normal((10, 10))
            ranks = ranks_from_similarity(sim, ids)
            for i in range(10):
                assert ranks[i] == brute_force_rank(sim[i], i, ids)

    def test_tie_break_by_ascending_id(self):
        sim = np.array([[0.5, 0.5], [0.5, 0.5]])
        ranks = ranks_from_similarity(sim, ["a", "b"])
        # query 0's truth "a" wins its tie; query 1's truth "b" loses to "a"
        np.testing.assert_array_equal(ranks, [1, 2])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(6)
        sim = rng.uniform(-1, 1, (8, 8))
        ids = [f"v{j}" for j in range(8)]
        base = ranks_from_similarity(sim, ids)
        np.testing.assert_array_equal(
            ranks_from_similarity(np.tanh(3.0 * sim), ids), base)

    def test_consistent_relabeling_permutes_ranks(self):
        # renumbering the aligned items (rows, columns, and ids together)
        # carries each query's rank along with it
        rng = np.random.default_rng(7)
        sim = rng.standard_normal((9, 9))
        ids = np.array([f"v{j}" for j in range(9)])
        base = ranks_from_similarity(sim, ids)
        perm = rng.permutation(9)
        relabeled = ranks_from_similarity(sim[np.ix_(perm, perm)], ids[perm])
        np.testing.assert_array_equal(relabeled, base[perm])

    def test_nan_truth_is_rejected_not_ranked_first(self):
        # NaN compares false with every score, so counting higher scores
        # once ranked every NaN truth first (R@1 = 100%)
        sim = np.ones((3, 3))
        np.fill_diagonal(sim, np.nan)
        with pytest.raises(NonFiniteScoreError, match=r"query 0 \(a\)"):
            ranks_from_similarity(sim, ["a", "b", "c"])

    def test_non_finite_off_diagonal_names_its_query(self):
        sim = np.eye(4)
        sim[2, 0] = -np.inf
        with pytest.raises(NonFiniteScoreError, match=r"query 2 \(v2\)"):
            ranks_from_similarity(sim, [f"v{j}" for j in range(4)])

    def test_non_finite_entry_past_the_first_row_block(self, monkeypatch):
        monkeypatch.setattr(ranking, "BLOCK_ELEMENTS", 8)
        sim = np.eye(6)
        sim[4, 1] = np.nan
        with pytest.raises(NonFiniteScoreError, match=r"query 4 \(v4\)"):
            ranks_from_similarity(sim, [f"v{j}" for j in range(6)])

    @pytest.mark.parametrize("ids", [["a", "b"], ["a", "b", "c", "d"], [["a", "b", "c"]]])
    def test_ids_other_than_one_per_row_are_a_shape_error(self, ids):
        with pytest.raises(ShapeError, match=r"needs ids of shape \(3,\)"):
            ranks_from_similarity(np.eye(3), ids)

    @PROPERTY
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n),
        st.permutations(range(n)), st.sampled_from([5, 1 << 20]))))
    def test_agrees_with_oracle_under_common_ties(self, case):
        # scores from seven levels, so most rows tie; ids out of index order,
        # so the id tie-break is not the column order; small row blocks
        values, perm, block_elements = case
        n = len(perm)
        sim = np.reshape(values, (n, n)) / 4.0
        ids = [f"id{p:02d}" for p in perm]
        with mock.patch.object(ranking, "BLOCK_ELEMENTS", block_elements):
            ranks = ranks_from_similarity(sim, ids)
        assert ranks.tolist() == [brute_force_rank(sim[i], i, ids) for i in range(n)]


@pytest.fixture(scope="module")
def small_setup():
    corpus = synth_corpus(seed=11, n_items=30, dim=12, frames=3, audio_tokens=4)
    model = create_model(seed=3, dim=12)
    return model, corpus


class TestRankExhaustive:
    def test_single_item_corpus(self):
        corpus = synth_corpus(seed=12, n_items=1, dim=8, frames=2, audio_tokens=2)
        model = create_model(seed=4, dim=8)
        result = rank_exhaustive(model, corpus)
        assert result.ranks.tolist() == [1]

    def test_counts_one_eval_per_pair(self, small_setup):
        model, corpus = small_setup
        result = rank_exhaustive(model, corpus)
        assert result.stats.stage2_model_evals == len(corpus) ** 2
        assert result.ranks.shape == (30,)

    def test_ranks_are_the_similarity_matrix_ranks(self, small_setup):
        model, corpus = small_setup
        sim = similarity_matrix(model, corpus)
        np.testing.assert_array_equal(rank_exhaustive(model, corpus).ranks,
                                      ranks_from_similarity(sim, corpus.ids))

    def test_v2t_is_the_transposed_problem(self, small_setup):
        model, corpus = small_setup
        sim = similarity_matrix(model, corpus)
        ranks_v2t = ranks_from_similarity(sim.T, corpus.ids)
        assert compute_metrics(ranks_v2t, len(corpus)) == evaluate(model, corpus).v2t
        # transposing twice returns the original ranks
        np.testing.assert_array_equal(
            ranks_from_similarity(sim.T.T, corpus.ids),
            ranks_from_similarity(sim, corpus.ids))

    def test_worker_count_does_not_change_results(self, small_setup):
        model, corpus = small_setup
        base = similarity_matrix(model, corpus, workers=1)
        threaded = similarity_matrix(model, corpus, workers=4)
        np.testing.assert_array_equal(base, threaded)


class TestDenseExhaustive:
    """``evaluate`` without ``k`` ranks the dense similarity matrix."""

    @pytest.fixture(scope="class")
    def tied_corpus(self):
        # items 3, 11 and 5 repeat under ids that sort before, after and
        # well before their originals': equal scores, broken by id rank;
        # 26 items make blocks of 4 end short
        corpus = synth_corpus(seed=31, n_items=23, dim=12, frames=3, audio_tokens=5)
        rows = list(range(23)) + [3, 11, 5]
        return dataclasses.replace(
            corpus, ids=corpus.ids + ["item00002x", "item00011a", "item00000a"],
            **{name: getattr(corpus, name)[rows]
               for name in ("texts", "frames", "audio", "has_audio", "summary_tokens")})

    @pytest.mark.parametrize("modality,fusion", MODEL_KINDS)
    def test_ranks_equal_the_dense_matrix_ranks(self, tied_corpus, monkeypatch,
                                                modality, fusion):
        model = create_model(seed=32, dim=12, fusion=fusion, modality=modality)
        sim = similarity_matrix(model, tied_corpus, workers=1)
        want = [ranks_from_similarity(s, tied_corpus.ids) for s in (sim, sim.T)]
        for block in (4, model_module.CANDIDATE_BLOCK):
            monkeypatch.setattr(model_module, "CANDIDATE_BLOCK", block)
            for workers in (1, 2, 3):
                result = evaluate(model, tied_corpus, workers=workers)
                np.testing.assert_array_equal(result.ranks_t2v, want[0])
                np.testing.assert_array_equal(result.ranks_v2t, want[1])
                assert result.stats.stage2_model_evals == len(tied_corpus) ** 2

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_non_finite_text_rows_name_the_lowest_query(self, small_setup, monkeypatch,
                                                        workers):
        model, corpus = small_setup
        texts = corpus.texts.copy()
        texts[[12, 7], 0] = np.nan
        bad = dataclasses.replace(corpus, texts=texts)
        monkeypatch.setattr(model_module, "CANDIDATE_BLOCK", 4)
        with pytest.raises(NonFiniteScoreError) as dense:
            ranks_from_similarity(similarity_matrix(model, bad), bad.ids)
        with pytest.raises(NonFiniteScoreError,
                           match=r"similarity row for query 7 \(item00007\)") as evaluated:
            evaluate(model, bad, workers=workers)
        assert str(evaluated.value) == str(dense.value)

    @pytest.mark.parametrize("dsl_temp", [None, 10.0])
    def test_one_matrix_is_scored_and_ranked_once_per_direction(self, small_setup,
                                                                 monkeypatch, dsl_temp):
        model, corpus = small_setup
        calls = []

        def counted(name):
            real = getattr(ranking, name)

            def spy(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return spy

        for name in ("similarity_matrix", "ranks_from_similarity"):
            monkeypatch.setattr(ranking, name, counted(name))
        evaluate(model, corpus, dsl_temp=dsl_temp)
        assert calls == ["similarity_matrix"] + ["ranks_from_similarity"] * 2

    @pytest.mark.parametrize("rank,matrices", [
        (evaluate, 2),
        (functools.partial(evaluate, dsl_temp=10.0), 3),
        (rank_exhaustive, 2),
    ], ids=["evaluate", "evaluate-dsl", "rank_exhaustive"])
    def test_exhaustive_ranking_holds_the_matrix_once(self, rank, matrices):
        # the (n, n) matrix is held once: never copied, nor its transpose;
        # dual softmax adds one rescored matrix at a time
        corpus = synth_corpus(seed=22, n_items=1000, dim=8, frames=2, audio_tokens=3)
        model = create_model(seed=23, dim=8)
        tracemalloc.start()
        try:
            rank(model, corpus, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < matrices * len(corpus) ** 2 * 8


class TestLonePairs:
    """Pairs whose candidate only one query shortlists, as stage 2 and
    ``tefal export-attn`` score them: here the n pairs (i, i)."""

    @pytest.mark.parametrize("fusion", ["addition", "xattn"])
    def test_each_pair_is_scored_once(self, small_setup, fusion):
        # a lone pair's tile is one query wide, not padded with repeats of it
        _, corpus = small_setup
        model = create_model(seed=5, dim=corpus.dim, fusion=fusion)
        queries = model_module.query_rows(model, corpus.texts)
        items = np.arange(len(corpus))
        widths = []
        real = model_module.score_tile

        def spy(model, queries, corpus, cols, keep=False):
            widths.append((len(cols), queries.texts.shape[-1]))
            return real(model, queries, corpus, cols, keep)

        with mock.patch.object(model_module, "score_tile", spy):
            model_module.score_pairs(model, queries, corpus, items, items, 1)
        assert {width for _, width in widths} == {1}
        assert sum(cols for cols, _ in widths) == len(corpus)

    def test_their_tiles_hold_no_more_than_one_dense_block(self):
        # lone pairs pad to PAD slots each, so a tile capped by TILE_PAIRS
        # alone held many times a dense block's candidates; capped at
        # CANDIDATE_BLOCK, a lone-pair tile projects no more candidates than
        # a dense block does
        corpus = synth_corpus(seed=7, n_items=1000, dim=32)
        model = create_model(seed=8, dim=32)
        queries = model_module.query_rows(model, corpus.texts)
        items = np.arange(len(corpus))
        first_block = items[model_module.candidate_blocks(len(corpus))[0]]
        peaks = []
        for run in (lambda: model_module.score_pairs(model, queries, corpus, items, items, 1),
                    lambda: model_module.score_tile(model, queries, corpus, first_block)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        lone, dense = peaks
        assert lone <= dense


class TestRerankTwoStage:
    def test_full_shortlist_equals_exhaustive(self, small_setup):
        model, corpus = small_setup
        exhaustive = rank_exhaustive(model, corpus)
        rerank = rerank_two_stage(model, corpus, k=len(corpus))
        np.testing.assert_array_equal(rerank.ranks, exhaustive.ranks)

    def test_full_shortlist_equals_exhaustive_v2t(self, small_setup):
        model, corpus = small_setup
        sim = similarity_matrix(model, corpus)
        rerank = rerank_ranks(model, corpus, len(corpus), "v2t")
        np.testing.assert_array_equal(rerank, ranks_from_similarity(sim.T, corpus.ids))

    def test_k_one_ranks_truth_first_iff_stage1_top1_correct(self, small_setup):
        model, corpus = small_setup
        stage1 = stage1_matrix(corpus)
        ids = np.asarray(corpus.ids)
        result = rerank_two_stage(model, corpus, k=1)
        for i in range(len(corpus)):
            top1 = int(np.lexsort((ids, -stage1[i]))[0])
            assert (result.ranks[i] == 1) == (top1 == i)

    def test_stage2_work_bounded_by_shortlist(self, small_setup):
        model, corpus = small_setup
        k = 7
        result = rerank_two_stage(model, corpus, k=k)
        assert result.stats.stage2_model_evals == k * len(corpus)
        assert result.stats.stage1_comparisons == len(corpus) ** 2

    def test_below_shortlist_items_keep_stage1_order(self, small_setup):
        model, corpus = small_setup
        k = 5
        stage1 = stage1_matrix(corpus)
        ids = np.asarray(corpus.ids)
        result = rerank_two_stage(model, corpus, k=k)
        for i in range(len(corpus)):
            order1 = np.lexsort((ids, -stage1[i]))
            if i not in order1[:k]:
                tail_pos = int(np.nonzero(order1[k:] == i)[0][0])
                assert result.ranks[i] == k + 1 + tail_pos

    def test_k_out_of_range(self, small_setup):
        model, corpus = small_setup
        for k in (0, -2, len(corpus) + 1):
            with pytest.raises(ValueError):
                rerank_two_stage(model, corpus, k=k)

    @pytest.mark.parametrize("k", [2.5, True, np.float64(3.0), "3"])
    def test_a_k_that_is_no_integer_is_rejected_before_stage_1(self, small_setup,
                                                                 monkeypatch, k):
        # np.empty raised a TypeError for 2.5, and True ranked as k = 1
        model, corpus = small_setup

        def no_stage1(*args):
            raise AssertionError("ran stage 1 before checking k")

        monkeypatch.setattr(ranking, "_stage1_rows", no_stage1)
        for call in (evaluate, rerank_two_stage):
            with pytest.raises(ValueError, match="k must be an integer"):
                call(model, corpus, k=k)

    def test_a_numpy_integer_k_ranks_as_the_int(self, small_setup):
        model, corpus = small_setup
        want = evaluate(model, corpus, k=5)
        got = evaluate(model, corpus, k=np.int64(5))
        np.testing.assert_array_equal(got.ranks_t2v, want.ranks_t2v)
        np.testing.assert_array_equal(got.ranks_v2t, want.ranks_v2t)
        np.testing.assert_array_equal(rerank_two_stage(model, corpus, k=np.int64(5)).ranks,
                                      want.ranks_t2v)

    def test_a_numpy_integer_k_serializes_as_the_int(self):
        # json.dumps raised TypeError on the np.int64 k
        corpus = synth_corpus(seed=11, n_items=12, dim=8, frames=2, audio_tokens=3)
        model = create_model(seed=3, dim=8)
        got = evaluate(model, corpus, k=np.int64(3)).as_dict()
        assert type(got["k"]) is int
        assert json.dumps(got) == json.dumps(evaluate(model, corpus, k=3).as_dict())

    @pytest.mark.parametrize("direction", ["t2v", "v2t"])
    def test_worker_count_and_tile_size_do_not_change_ranks(
            self, small_setup, direction, monkeypatch):
        model, corpus = small_setup
        base = rerank_ranks(model, corpus, 7, direction, workers=1)
        threaded = rerank_ranks(model, corpus, 7, direction, workers=3)
        np.testing.assert_array_equal(threaded, base)
        monkeypatch.setattr(model_module, "TILE_PAIRS", 5)
        for workers in (1, 3):
            small_tiles = rerank_ranks(model, corpus, 7, direction, workers=workers)
            np.testing.assert_array_equal(small_tiles, base)

    def test_stubbed_stage1_rows_replace_stage_one(self, small_setup):
        model, corpus = small_setup
        n = len(corpus)
        # an oracle stage 1 always shortlists the ground truth first
        with stub_stage1(np.eye(n)):
            result = rerank_two_stage(model, corpus, k=1)
        np.testing.assert_array_equal(result.ranks, np.ones(n, dtype=int))
        # stage 2 is unchanged: a full shortlist still matches exhaustive
        with stub_stage1(-stage1_matrix(corpus)):
            shuffled = rerank_two_stage(model, corpus, k=n)
        exhaustive = rank_exhaustive(model, corpus)
        np.testing.assert_array_equal(shuffled.ranks, exhaustive.ranks)


class TestStreamedStage1:
    """Stage 1 scores one block of query rows at a time, in fixed-shape
    chunks of rows."""

    @pytest.fixture(scope="class")
    def wide_setup(self):
        # at n=1500, D=32 a matrix product over a row block rounds some
        # entries differently from the same rows of the full product
        corpus = synth_corpus(seed=5, n_items=1500, dim=32, frames=4, audio_tokens=2)
        return create_model(seed=6, dim=32), corpus

    @staticmethod
    def run_streamed(model, corpus, direction, block_elements, workers=1):
        """``(scores, shortlists, ranks)`` of a k=5 re-rank whose stage 1
        takes ``block_elements`` scores per block on ``workers`` threads;
        ``scores`` stacks the blocks the shortlist scan was fed, in row
        order, as workers may finish them out of order.  Every block must
        start at a whole chunk."""
        real = ranking._stage1_shortlists
        blocks, shortlists = {}, []

        def spy(score_rows, *args):
            def recorded(rows):
                assert rows.start % ranking._CHUNK_ROWS == 0
                blocks[rows.start] = score_rows(rows)
                return blocks[rows.start]
            out = real(recorded, *args)
            shortlists.append(out[0])
            return out

        with mock.patch.object(ranking, "BLOCK_ELEMENTS", block_elements), \
                mock.patch.object(ranking, "_stage1_shortlists", spy):
            ranks = rerank_ranks(model, corpus, 5, direction, workers)
        return np.vstack([blocks[start] for start in sorted(blocks)]), shortlists[0], ranks

    @pytest.mark.parametrize("direction", ["t2v", "v2t"])
    def test_block_size_changes_no_score_shortlist_or_rank(self, wide_setup, direction):
        model, corpus = wide_setup
        scores, shortlists, ranks = self.run_streamed(model, corpus, direction,
                                                      ranking.BLOCK_ELEMENTS)
        cosines = cosine_oracle(corpus)
        np.testing.assert_allclose(scores, cosines if direction == "t2v" else cosines.T,
                                   rtol=0, atol=1e-14)
        # blocks of one chunk, of three chunks, and one block of every row
        n = len(corpus)
        for block_elements in (5, 3 * ranking._CHUNK_ROWS * n, n * n):
            got = self.run_streamed(model, corpus, direction, block_elements)
            np.testing.assert_array_equal(got[0], scores)
            np.testing.assert_array_equal(got[1], shortlists)
            np.testing.assert_array_equal(got[2], ranks)

    @pytest.mark.parametrize("direction", ["t2v", "v2t"])
    def test_worker_count_and_chunk_rows_change_no_score_shortlist_or_rank(
            self, wide_setup, direction):
        model, corpus = wide_setup
        want = self.run_streamed(model, corpus, direction, ranking.BLOCK_ELEMENTS)
        for chunk_rows in (64, 128):
            for workers in (1, 2, 3):
                with mock.patch.object(ranking, "_CHUNK_ROWS", chunk_rows):
                    got = self.run_streamed(model, corpus, direction,
                                            ranking.BLOCK_ELEMENTS, workers)
                for got_part, want_part in zip(got, want):
                    np.testing.assert_array_equal(got_part, want_part)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("direction", ["t2v", "v2t"])
    def test_peak_memory_is_a_fraction_of_the_full_matrix(self, direction, workers,
                                                          monkeypatch):
        # the stage-1 budget is shared by the workers, not given to each
        n = 2000
        corpus = synth_corpus(seed=8, n_items=n, dim=8, frames=2, audio_tokens=2)
        model = create_model(seed=2, dim=8)
        monkeypatch.setattr(ranking, "BLOCK_ELEMENTS", 1 << 14)
        monkeypatch.delenv("TEFAL_THREADS", raising=False)
        tracemalloc.start()
        try:
            rerank_ranks(model, corpus, 2, direction, workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4


def lexsort_rerank_oracle(sim, stage1, k, ids):
    """The two stages by full sorts, one query at a time: the first k of the
    query's stage-1 lexsort (descending score, ties by ascending id),
    re-ordered by the model scores ``sim`` (queries x candidates); a truth
    outside the shortlist keeps its stage-1 position."""
    ids = np.asarray(ids)
    ranks = []
    for q in range(len(ids)):
        order1 = np.lexsort((ids, -stage1[q]))
        short = order1[:k]
        if q in short:
            order2 = short[np.lexsort((ids[short], -sim[q, short]))]
            ranks.append(1 + int(np.nonzero(order2 == q)[0][0]))
        else:
            ranks.append(1 + int(np.nonzero(order1 == q)[0][0]))
    return ranks


ORACLE_MODEL = create_model(seed=21, dim=6)


class TestRerankOracle:
    @PROPERTY
    @given(st.integers(1, 16).flatmap(lambda n: st.tuples(
        st.integers(1, n), st.sampled_from([5, 100, 1 << 20]), st.sampled_from([1, 3]),
        st.permutations(range(n)),
        st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))))
    def test_stage1_shortlists_are_the_full_lexsort_prefix(self, case):
        k, block_elements, workers, perm, levels = case
        n = len(perm)
        ids = np.array([f"id{p:02d}" for p in perm])
        stage1 = np.reshape(levels, (n, n)) / 2.0
        # chunks of 3 rows, so that 5 scores per block still split n > 3
        # rows into blocks, and 100 split n > 8 rows between 2 or 3 workers
        with mock.patch.object(ranking, "BLOCK_ELEMENTS", block_elements), \
                mock.patch.object(ranking, "_CHUNK_ROWS", 3):
            shortlists, ranks = ranking._stage1_shortlists(
                stage1.__getitem__, k, ids, ranking._id_ranks(ids), workers)
        for q in range(n):
            order1 = np.lexsort((ids, -stage1[q]))
            assert shortlists[q].tolist() == order1[:k].tolist()
            position = 1 + int(np.nonzero(order1 == q)[0][0])
            assert ranks[q] == (0 if position <= k else position)

    @PROPERTY
    @given(st.integers(1, 16).flatmap(lambda n: st.tuples(
        st.integers(1, n), st.sampled_from(["t2v", "v2t"]), st.sampled_from([3, 2048]),
        st.permutations(range(n)),
        st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))))
    def test_agrees_with_lexsort_oracle(self, case):
        # stage-1 scores from five levels put ties on the k boundary; ids out
        # of index order make the id tie-break differ from the column order;
        # a 3-pair tile splits stage 2 into many padded tiles
        k, direction, tile_pairs, perm, levels = case
        n = len(perm)
        corpus = dataclasses.replace(
            synth_corpus(seed=n, n_items=n, dim=6, frames=2, audio_tokens=3),
            ids=[f"id{p:02d}" for p in perm])
        stage1 = np.reshape(levels, (n, n)) / 2.0
        sim = similarity_matrix(ORACLE_MODEL, corpus)
        if direction == "v2t":
            want = lexsort_rerank_oracle(sim.T, stage1.T, k, corpus.ids)
        else:
            want = lexsort_rerank_oracle(sim, stage1, k, corpus.ids)
        with mock.patch.object(model_module, "TILE_PAIRS", tile_pairs), stub_stage1(stage1):
            got = rerank_ranks(ORACLE_MODEL, corpus, k, direction)
        assert got.tolist() == want


class TestRerankBothDirections:
    """Both directions share one stage-2 pass over their distinct pairs."""

    @PROPERTY
    @given(st.integers(1, 16).flatmap(lambda n: st.tuples(
        st.integers(1, n), st.sampled_from([1, 3]), st.sampled_from([3, 2048]),
        st.permutations(range(n)),
        st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))))
    def test_equals_two_single_direction_reranks(self, case):
        # five stage-1 levels put ties on the k boundary, as in the oracle test
        k, workers, tile_pairs, perm, levels = case
        n = len(perm)
        corpus = dataclasses.replace(
            synth_corpus(seed=n, n_items=n, dim=6, frames=2, audio_tokens=3),
            ids=[f"id{p:02d}" for p in perm])
        stage1 = np.reshape(levels, (n, n)) / 2.0
        with mock.patch.object(model_module, "TILE_PAIRS", tile_pairs), stub_stage1(stage1):
            (ranks_t2v, ranks_v2t), stats = ranking._rerank(
                ORACLE_MODEL, corpus, k, workers, ranking.DIRECTIONS)
            for direction, got in (("t2v", ranks_t2v), ("v2t", ranks_v2t)):
                want = rerank_ranks(ORACLE_MODEL, corpus, k, direction)
                assert got.tolist() == want.tolist()
        assert stats.stage1_comparisons == 2 * n * n
        assert stats.stage2_model_evals == len(
            distinct_shortlisted_pairs(stage1, k, corpus.ids))

    @pytest.mark.parametrize("k", [1, 7, 30])
    def test_default_stage1_equals_two_single_direction_reranks(self, small_setup, k):
        model, corpus = small_setup
        n = len(corpus)
        result = evaluate(model, corpus, k=k)
        stats = result.stats
        for direction, got in (("t2v", result.ranks_t2v), ("v2t", result.ranks_v2t)):
            np.testing.assert_array_equal(got, rerank_ranks(model, corpus, k, direction))
        assert stats.stage1_comparisons == 2 * n * n
        assert stats.stage2_model_evals == len(
            distinct_shortlisted_pairs(stage1_matrix(corpus), k, corpus.ids))
        assert stats.stage2_model_evals <= 2 * n * k

    def test_evaluate_scores_each_shortlisted_pair_once(self, small_setup):
        model, corpus = small_setup
        k = 7
        scored = []
        real = ranking.score_pairs

        def spy(model, queries, corpus, texts, cands, workers):
            scored.append(list(zip(texts.tolist(), cands.tolist())))
            return real(model, queries, corpus, texts, cands, workers)

        with mock.patch.object(ranking, "score_pairs", spy):
            result = evaluate(model, corpus, k=k)
        assert len(scored) == 1
        assert len(set(scored[0])) == len(scored[0]) == result.stats.stage2_model_evals
        assert set(scored[0]) == distinct_shortlisted_pairs(stage1_matrix(corpus), k,
                                                             corpus.ids)

    @pytest.mark.parametrize("k", [2, 40])
    def test_no_stage2_tile_holds_more_than_tile_pairs_padded_slots(self, k):
        # groups are padded to a whole multiple of PAD, and tiles are packed
        # by the padded width, so the padding adds no memory beyond a tile
        corpus = synth_corpus(seed=31, n_items=400, dim=8, frames=2, audio_tokens=2)
        model = create_model(seed=32, dim=8)
        tiles = []
        real = model_module.score_tile

        def spy(model, queries, corpus, cols, keep=False):
            tiles.append(queries.texts.shape[1:])
            return real(model, queries, corpus, cols, keep)

        with mock.patch.object(model_module, "score_tile", spy):
            evaluate(model, corpus, k=k, workers=1)
        assert len(tiles) > 1
        for candidates, width in tiles:
            assert width % PAD == 0
            assert candidates * width <= model_module.TILE_PAIRS
            assert candidates <= model_module.CANDIDATE_BLOCK


class TestNonFiniteModelScores:
    @pytest.fixture()
    def nan_model(self):
        model = create_model(seed=3, dim=12)
        model.audio.w_v[0, 0] = np.nan
        return model

    def test_exhaustive_ranking_raises(self, small_setup, nan_model):
        _model, corpus = small_setup
        with pytest.raises(NonFiniteScoreError, match="query 0"):
            rank_exhaustive(nan_model, corpus)

    @pytest.mark.parametrize("direction", ["t2v", "v2t"])
    def test_stage2_ranking_raises(self, small_setup, nan_model, direction):
        _model, corpus = small_setup
        with pytest.raises(NonFiniteScoreError, match="query 0"):
            rerank_ranks(nan_model, corpus, 3, direction)

    def test_two_direction_evaluation_raises(self, small_setup, nan_model):
        _model, corpus = small_setup
        with pytest.raises(NonFiniteScoreError, match="query 0"):
            evaluate(nan_model, corpus, k=3)

    @pytest.mark.parametrize("direction,item", [("t2v", 2), ("v2t", 5)])
    def test_non_finite_stage1_score_raises(self, small_setup, direction, item):
        # a NaN text or frame entry used to give a zero stage-1 row, which
        # then ranked silently; the first bad item is the one named
        model, corpus = small_setup
        for field, value in (("texts", np.nan), ("frames", np.inf)):
            rows = getattr(corpus, field).copy()
            rows[item, 0] = value
            rows[item + 3, 0] = np.nan
            bad = dataclasses.replace(corpus, **{field: rows})
            with pytest.raises(NonFiniteScoreError,
                               match=rf"row of item {item} \(item0000{item}\)"):
                rerank_ranks(model, bad, 3, direction)

    def test_non_finite_pooled_frame_stops_two_direction_evaluation(self, small_setup):
        model, corpus = small_setup
        frames = corpus.frames.copy()
        frames[7, 0, 0] = np.nan
        with pytest.raises(NonFiniteScoreError, match=r"row of item 7 \("):
            evaluate(model, dataclasses.replace(corpus, frames=frames), k=3)


class TestDualSoftmax:
    def test_one_by_one_is_identity(self):
        sim = np.array([[0.42]])
        np.testing.assert_allclose(dual_softmax_postprocess(sim, 2.0), sim)

    def test_identical_rows_scale_uniformly(self):
        row = np.array([0.3, -0.1, 0.8])
        sim = np.tile(row, (4, 1))
        out = dual_softmax_postprocess(sim, 3.0)
        np.testing.assert_allclose(out, sim * 0.25, atol=1e-15)
        # per-row ranking is untouched
        np.testing.assert_array_equal(np.argsort(-out[0]), np.argsort(-row))

    def test_direct_formula(self):
        rng = np.random.default_rng(7)
        sim = rng.uniform(-1, 1, (4, 4))
        temp = 5.0
        out = dual_softmax_postprocess(sim, temp)
        expected = np.empty_like(sim)
        for j in range(4):
            col = np.exp(sim[:, j] * temp)
            expected[:, j] = sim[:, j] * col / col.sum()
        np.testing.assert_allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("layout", ["C", "F", "transposed", "strided"])
    def test_in_place_steps_keep_the_bits_of_the_out_of_place_formula(self, layout):
        rng = np.random.default_rng(8)
        sim = rng.uniform(-1, 1, (257, 130))
        sim = {"C": sim, "F": np.asfortranarray(sim), "transposed": sim.T,
               "strided": sim[::2]}[layout]
        z = sim * 30.0
        z = z - z.max(axis=0, keepdims=True)
        e = np.exp(z)
        want = sim * (e / e.sum(axis=0, keepdims=True))
        assert dual_softmax_postprocess(sim, 30.0).tobytes("A") == want.tobytes("A")

    def test_requires_positive_temperature(self):
        with pytest.raises(ValueError):
            dual_softmax_postprocess(np.zeros((2, 2)), 0.0)

    @pytest.mark.parametrize("temp", [np.nan, np.inf])
    def test_rejects_a_temperature_that_is_not_finite_and_positive(self, temp):
        with pytest.raises(ValueError, match="dsl_temp"):
            dual_softmax_postprocess(np.zeros((2, 2)), temp)

    def test_evaluate_rejects_a_bad_temperature_before_scoring(self, small_setup,
                                                               monkeypatch):
        model, corpus = small_setup

        def no_scoring(*args, **kwargs):
            raise AssertionError("scored before checking dsl_temp")

        monkeypatch.setattr(ranking, "similarity_matrix", no_scoring)
        with pytest.raises(ValueError, match="dsl_temp must be finite, got nan"):
            evaluate(model, corpus, dsl_temp=float("nan"))

    @pytest.mark.parametrize("temp", ["x", True, np.array([30.0])])
    def test_evaluate_names_a_temperature_that_is_no_number(self, small_setup, temp):
        model, corpus = small_setup
        with pytest.raises(ValueError, match="dsl_temp must be a number, got "):
            evaluate(model, corpus, dsl_temp=temp)

    def test_evaluate_ranks_only_the_two_rescored_matrices(self, small_setup, monkeypatch):
        # the dense matrix's own ranks are not wanted
        model, corpus = small_setup
        calls = []
        rank = ranking.ranks_from_similarity

        def counted(sim, ids):
            calls.append(1)
            return rank(sim, ids)

        monkeypatch.setattr(ranking, "ranks_from_similarity", counted)
        result = evaluate(model, corpus, dsl_temp=10.0)
        assert len(calls) == 2
        sim = similarity_matrix(model, corpus)
        for got, scores in ((result.ranks_t2v, sim), (result.ranks_v2t, sim.T)):
            np.testing.assert_array_equal(
                got, rank(dual_softmax_postprocess(scores, 10.0), corpus.ids))
        assert result.stats.stage2_model_evals == len(corpus) ** 2
        assert result.postprocess == ["dsl(temp=10)"]

    def test_evaluate_names_the_query_of_a_non_finite_score(self, small_setup,
                                                            monkeypatch):
        # dual softmax spreads a NaN over its whole column, whose first row
        # is query 0
        model, corpus = small_setup
        sim = similarity_matrix(model, corpus)
        sim[4, 1] = np.nan
        monkeypatch.setattr(ranking, "similarity_matrix", lambda *args, **kwargs: sim)
        with pytest.raises(NonFiniteScoreError, match=rf"query 4 \({corpus.ids[4]}\)"):
            evaluate(model, corpus, dsl_temp=10.0)


class TestWorkers:
    def test_default_is_the_usable_cpu_count_capped_by_the_env(self, monkeypatch):
        monkeypatch.delenv("TEFAL_THREADS", raising=False)
        usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count())
        assert resolve_workers() == resolve_workers(None) == usable
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert resolve_workers() == 3
        monkeypatch.setenv("TEFAL_THREADS", "2")
        assert resolve_workers() == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert resolve_workers() == 1
        for cap, message in (("x", "must be an integer"), ("0", "must be >= 1")):
            monkeypatch.setenv("TEFAL_THREADS", cap)
            with pytest.raises(ConfigError, match=f"TEFAL_THREADS {message}"):
                resolve_workers()

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv("TEFAL_THREADS", "2")
        assert resolve_workers(8) == 2
        assert resolve_workers(1) == 1
        monkeypatch.delenv("TEFAL_THREADS")
        assert resolve_workers(8) == 8

    def test_non_integer_env_cap_is_a_config_error(self, monkeypatch):
        monkeypatch.setenv("TEFAL_THREADS", "x")
        with pytest.raises(ConfigError, match="TEFAL_THREADS"):
            resolve_workers(2)

    @pytest.mark.parametrize("requested", [0, -2])
    def test_count_below_one_is_a_config_error(self, monkeypatch, requested):
        monkeypatch.delenv("TEFAL_THREADS", raising=False)
        with pytest.raises(ConfigError, match=f"threads must be >= 1, got {requested}"):
            resolve_workers(requested)

    @pytest.mark.parametrize("requested", [2.5, True, np.float64(2.0), "2"])
    def test_a_count_that_is_no_integer_is_a_config_error(self, monkeypatch, requested):
        # 2.5 used to run 2 workers
        monkeypatch.delenv("TEFAL_THREADS", raising=False)
        with pytest.raises(ConfigError, match="threads must be an integer"):
            resolve_workers(requested)
        assert resolve_workers(np.int32(2)) == 2

    @pytest.mark.parametrize("cap", ["0", "-4"])
    def test_env_cap_below_one_is_a_config_error(self, monkeypatch, cap):
        monkeypatch.setenv("TEFAL_THREADS", cap)
        with pytest.raises(ConfigError, match="TEFAL_THREADS must be >= 1"):
            resolve_workers(2)


class TestMapTasks:
    @pytest.fixture(autouse=True)
    def no_cap(self, monkeypatch):
        monkeypatch.delenv("TEFAL_THREADS", raising=False)

    def test_keeps_task_order_on_the_pool_threads(self):
        # the first three tasks wait for each other, so three pool threads
        # must run them at once
        barrier = threading.Barrier(3, timeout=10)
        threads = {}

        def task(i):
            threads[i] = threading.get_ident()
            if i < 3:
                barrier.wait()
            return i * i

        assert map_tasks(task, range(40), workers=3) == [i * i for i in range(40)]
        assert threading.get_ident() not in threads.values()
        assert len(set(threads.values())) == 3

    def test_one_worker_runs_on_the_caller(self):
        threads = set()
        assert map_tasks(lambda i: threads.add(threading.get_ident()) or -i,
                         range(5), workers=1) == [0, -1, -2, -3, -4]
        assert threads == {threading.get_ident()}

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_raises_the_first_failure_in_task_order(self, workers):
        # with threads, task 7 fails first, while task 5 still runs
        seven_failed = threading.Event()

        def task(i):
            if i == 5:
                assert workers == 1 or seven_failed.wait(timeout=10)
            if i in (5, 7):
                seven_failed.set()
                raise ValueError(f"task {i}")
            return i

        with pytest.raises(ValueError, match="task 5"):
            map_tasks(task, range(12), workers=workers)

    @pytest.mark.parametrize("failing", [0, 1])
    def test_a_failure_on_either_pool_thread_is_raised(self, failing):
        # the thread that ran task `failing` fails every task it runs
        barrier = threading.Barrier(2, timeout=10)
        first = {}

        def task(i):
            if i < 2:
                first[i] = threading.get_ident()
                barrier.wait()
            if threading.get_ident() == first[failing]:
                raise KeyError(i)
            return i

        with pytest.raises(KeyError):
            map_tasks(task, range(6), workers=2)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_tasks_not_started_when_a_failure_is_read_never_run(self, monkeypatch,
                                                                  workers):
        # task 0 fails once task 1 has; every other task blocks until the
        # map has read the failure and left its task loop, so besides the
        # two failures only one blocked task per pool thread may start
        one_failed, release = threading.Event(), threading.Event()
        started = []

        class Releasing(model_module.ThreadPoolExecutor):
            def shutdown(self, *args, **kwargs):
                release.set()
                super().shutdown(*args, **kwargs)

        def task(i):
            started.append(i)
            if i < 2:
                assert i == 1 or one_failed.wait(timeout=10)
                one_failed.set()
                raise ValueError(f"task {i}")
            assert release.wait(timeout=10)
            return i

        monkeypatch.setattr(model_module, "ThreadPoolExecutor", Releasing)
        with pytest.raises(ValueError, match="task 0"):
            map_tasks(task, range(20), workers=workers)
        assert {0, 1} <= set(started) <= set(range(workers + 2))


    # while two or more workers run, the BLAS runs one thread

    @pytest.fixture
    def blas_threads(self):
        """numpy's OpenBLAS thread-count getter, the count set to 2 for the
        test and restored after it."""
        blas = _openblas_threads()
        if blas is None:
            pytest.skip("numpy bundles no OpenBLAS")
        get, set_ = blas
        saved = get()
        set_(2)
        yield get
        set_(saved)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_one_blas_thread_inside_a_parallel_map(self, blas_threads, workers):
        assert map_tasks(lambda i: blas_threads(), range(8), workers) == [1] * 8
        assert blas_threads() == 2

    def test_one_worker_leaves_the_blas_alone(self, blas_threads):
        assert map_tasks(lambda i: blas_threads(), range(3), workers=1) == [2] * 3
        # one task runs on the caller alone, whatever the worker count
        assert map_tasks(lambda i: blas_threads(), range(1), workers=2) == [2]

    def test_the_count_comes_back_after_a_task_raises(self, blas_threads):
        def task(i):
            if i == 3:
                raise ValueError("task 3")
            return blas_threads()

        with pytest.raises(ValueError, match="task 3"):
            map_tasks(task, range(6), workers=2)
        assert blas_threads() == 2

    def test_a_keyboard_interrupt_comes_out_and_restores_the_count(self, blas_threads):
        def task(i):
            if i == 2:
                raise KeyboardInterrupt
            return blas_threads()

        with pytest.raises(KeyboardInterrupt):
            map_tasks(task, range(6), workers=2)
        assert blas_threads() == 2

    def test_nested_maps_restore_the_count_once(self, blas_threads):
        def outer(i):
            return map_tasks(lambda j: blas_threads(), range(3), workers=2) + [blas_threads()]

        assert map_tasks(outer, range(4), workers=2) == [[1] * 4] * 4
        assert blas_threads() == 2

    def test_maps_on_two_threads_restore_the_count_once(self, blas_threads):
        # the first map returns while the second still runs, which must
        # still see one BLAS thread
        both_running, first_done = threading.Barrier(2, timeout=10), threading.Event()
        seen = {}

        def task(name, i):
            if i == 0:
                both_running.wait()
                if name == "second":
                    assert first_done.wait(timeout=10)
            seen[name, i] = blas_threads()

        callers = {name: threading.Thread(target=map_tasks,
                                          args=(functools.partial(task, name), range(3), 2))
                   for name in ("first", "second")}
        for caller in callers.values():
            caller.start()
        callers["first"].join(timeout=10)
        first_done.set()
        callers["second"].join(timeout=10)
        assert not any(caller.is_alive() for caller in callers.values())
        assert seen == {(name, i): 1 for name in callers for i in range(3)}
        assert blas_threads() == 2

    def test_many_concurrent_maps_keep_one_count(self, blas_threads):
        # more threads than cores, switching often: a lost update of the
        # user count would restore the count early or never
        seen = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=lambda: [
                map_tasks(lambda i: seen.append(blas_threads()), range(6), workers=3)
                for _ in range(10)]) for _ in range(8)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=30)
        finally:
            sys.setswitchinterval(switch)
        assert not any(caller.is_alive() for caller in callers)
        assert seen == [1] * 8 * 10 * 6
        assert blas_threads() == 2

    def test_an_openblas_numpy_has_its_thread_count_found(self):
        # a numpy whose OpenBLAS library or symbols were renamed would turn
        # the one-thread limit into a silent no-op
        try:
            name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        except (TypeError, KeyError):
            pytest.skip("numpy does not report its BLAS")
        if "openblas" not in name.lower():
            pytest.skip(f"numpy is built on {name}, not OpenBLAS")
        assert _openblas_threads() is not None
