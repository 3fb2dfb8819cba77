"""Model assembly, the training loop, determinism, and the synthetic corpus."""

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import MODEL_KINDS
from tefal.attention import block_backward, block_forward, conditioned_embedding
from tefal.config import ConfigError, TrainConfig
from tefal.contrastive import cosine_rows, cosine_rows_backward, infonce
from tefal.corpus import Corpus, synth_corpus
from tefal.fusion import FusionKind, fuse_backward, fuse_forward
from tefal.linalg import ShapeError, padded_width
from tefal.model import (
    batch_loss_and_grads,
    candidate_scores,
    create_model,
    named_parameters,
    pair_tiles,
    query_rows,
    score_tile,
    similarity_matrix,
)
from tefal import attention, linalg, model as model_module, ranking, training
from tefal.ranking import rank_exhaustive, ranks_from_similarity, rerank_two_stage
from tefal.training import AdamW, TrainingDiverged, clip_global_norm, evaluate, train
from tefal.verify import end_to_end_check, run_grad_checks


def tiny_config(**overrides):
    base = dict(dim=12, proj_dim=12, frames=3, audio_tokens=4, batch_size=8,
                epochs=3, learning_rate=3e-3, seed=5)
    base.update(overrides)
    return TrainConfig(**base)


def tiny_corpus(seed=9, n=40):
    return synth_corpus(seed=seed, n_items=n, dim=12, frames=3, audio_tokens=4)


class ReferenceAdamW:
    """The per-array optimizer the flat ``AdamW`` replaced: ten numpy
    operations on each parameter, with its own ``m`` and ``v``."""

    def __init__(self, learning_rate, beta1, beta2, eps, weight_decay):
        self.learning_rate, self.beta1, self.beta2 = learning_rate, beta1, beta2
        self.eps, self.weight_decay = eps, weight_decay
        self.steps, self._m, self._v = 0, {}, {}

    def step(self, params, grads, lr_scale=1.0):
        t = self.steps + 1
        lr = self.learning_rate * lr_scale
        for name, param in params.items():
            g = grads[name]
            m = self._m.setdefault(name, np.zeros_like(param))
            v = self._v.setdefault(name, np.zeros_like(param))
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            param -= lr * (m_hat / (np.sqrt(v_hat) + self.eps)
                           + self.weight_decay * param)
        self.steps = t


def reference_clip(grads, max_norm):
    """The per-array clip: one norm term and one scaled copy per array."""
    norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
    if norm > max_norm:
        grads = {name: g * (max_norm / norm) for name, g in grads.items()}
    return grads, norm


class TestModelAssembly:
    def test_projection_width_must_match_text_width(self):
        with pytest.raises(ShapeError, match="widths must match"):
            create_model(seed=0, dim=8, proj_dim=4)

    def test_modality_validated(self):
        with pytest.raises(ValueError, match="modality"):
            create_model(seed=0, dim=8, modality="text")

    @pytest.mark.parametrize("dim,match", [(0, "dim must be >= 1, got 0"),
                                           (-3, "dim must be >= 1, got -3"),
                                           (2.0, "dim must be an integer, got 2.0"),
                                           (True, "dim must be an integer, got True")],
                             ids=["0", "-3", "2.0", "True"])
    def test_a_dim_that_is_no_positive_integer_is_a_shape_error(self, dim, match):
        with pytest.raises(ShapeError, match=match):
            create_model(seed=0, dim=dim)

    @pytest.mark.parametrize("seed,match", [(1.5, "seed must be an integer, got 1.5"),
                                            (True, "seed must be an integer, got True"),
                                            (-1, "seed must be >= 0, got -1")])
    def test_a_seed_that_is_no_integer_from_0_is_named(self, seed, match):
        with pytest.raises(ValueError, match=match):
            create_model(seed=seed, dim=8)

    def test_blocks_hold_disjoint_parameters(self):
        model = create_model(seed=1, dim=8)
        assert model.video.w_q is not model.audio.w_q
        assert not np.array_equal(model.video.w_q, model.audio.w_q)

    def test_trainable_parameters_per_configuration(self):
        def names(**kw):
            return set(named_parameters(create_model(seed=2, dim=8, **kw)))

        addition = names(fusion="addition")
        assert any(n.startswith("video.") for n in addition)
        assert any(n.startswith("audio.") for n in addition)
        assert "temperature.log_scale" in addition

        video_only = names(modality="video")
        assert not any(n.startswith("audio.") for n in video_only)

        stacking = names(fusion="stacking")
        assert not any(n.startswith("audio.") for n in stacking)
        assert not any(n.startswith("fusion.") for n in stacking)

        late = names(fusion="late")
        assert "fusion.late_w" in late
        assert not any(n.startswith("audio.") for n in late)

        assert "fusion.concat_w" in names(fusion="concat_fc")
        assert any(n.startswith("fusion.xattn.") for n in names(fusion="xattn"))

    def test_checkpointable_set_is_complete(self):
        model = create_model(seed=3, dim=8, modality="video")
        everything = named_parameters(model, trainable_only=False)
        assert any(n.startswith("audio.") for n in everything)


class TestTraining:
    def test_zero_learning_rate_leaves_parameters_bit_identical(self):
        corpus = tiny_corpus()
        config = tiny_config(learning_rate=0.0, epochs=1)
        result = train(config, corpus)
        fresh = create_model(seed=config.seed, dim=config.dim,
                             tau=config.temperature_init)
        for name, param in named_parameters(result.model, trainable_only=False).items():
            np.testing.assert_array_equal(
                param, named_parameters(fresh, trainable_only=False)[name], err_msg=name)

    def test_same_seed_gives_identical_trajectories(self):
        corpus = tiny_corpus()
        r1 = train(tiny_config(), corpus)
        r2 = train(tiny_config(), corpus)
        assert [e["loss"] for e in r1.history] == [e["loss"] for e in r2.history]
        for name, param in named_parameters(r1.model).items():
            np.testing.assert_array_equal(param, named_parameters(r2.model)[name])

    def test_loss_decreases_on_default_corpus(self):
        corpus = tiny_corpus(n=60)
        result = train(tiny_config(epochs=8), corpus)
        assert result.history[-1]["loss"] < 0.5 * result.history[0]["loss"]

    def test_nan_input_aborts_with_diagnostic(self):
        corpus = tiny_corpus()
        corpus.texts[3, 0] = np.nan
        with pytest.raises(TrainingDiverged, match="step 0"):
            train(tiny_config(batch_size=len(corpus)), corpus)

    @pytest.mark.parametrize("fields", [{"dim": 16, "proj_dim": 16}, {"proj_dim": 4},
                                        {"frames": 7}, {"audio_tokens": 3}],
                             ids=["dim", "proj_dim", "frames", "audio_tokens"])
    def test_a_geometry_the_corpus_contradicts_is_rejected(self, fields):
        # the corpus is 12 dims, 3 frames and 4 audio tokens
        key = next(iter(fields))
        with pytest.raises(ConfigError, match=rf"config\.{key} is {fields[key]}"):
            train(tiny_config(**fields), tiny_corpus())

    def test_batch_larger_than_corpus_rejected(self):
        with pytest.raises(ConfigError, match="batch_size"):
            train(tiny_config(batch_size=999), tiny_corpus())

    def test_stacking_requires_summary_rows(self):
        corpus = tiny_corpus()
        corpus.summary_tokens = None
        with pytest.raises(ConfigError, match="summary"):
            train(tiny_config(fusion="stacking"), corpus)

    def test_gradient_clipping_bounds_global_norm(self):
        clipped, _ = clip_global_norm({"w": np.full((2, 2), 10.0)}, 1.0)
        assert np.linalg.norm(clipped["w"]) <= 1.0 + 1e-12
        # under the bound, gradients pass through untouched
        clipped, _ = clip_global_norm({"w": np.full((2, 2), 0.01)}, 1.0)
        np.testing.assert_array_equal(clipped["w"], np.full((2, 2), 0.01))

    def test_clipping_reports_the_pre_clip_norm(self):
        clipped, norm = clip_global_norm({"w": np.full((2, 2), 10.0)}, 1.0)
        assert norm == 20.0
        assert np.linalg.norm(clipped["w"]) == pytest.approx(1.0, abs=1e-12)
        assert clip_global_norm({"w": np.full((2, 2), 0.25)}, 1.0)[1] == 0.5

    def test_global_norm_and_scaling(self):
        grads = {"a": np.array([[3.0]]), "b": np.array([[4.0]])}
        clipped, norm = clip_global_norm(grads, 2.5)
        assert norm == pytest.approx(5.0)
        assert clip_global_norm(clipped, 10.0)[1] == pytest.approx(2.5)

    def test_clipping_scales_a_shared_gradient_array_once(self):
        shared = np.full((1, 2), 4.0)
        clipped, _ = clip_global_norm({"a": shared, "b": shared}, 1.0)
        np.testing.assert_array_equal(shared, np.full((1, 2), 4.0))
        np.testing.assert_array_equal(clipped["a"], clipped["b"])
        assert np.sqrt(sum(np.sum(g * g) for g in clipped.values())) == pytest.approx(1.0)

    def test_history_records_grad_norm_and_lr_scale(self):
        corpus = tiny_corpus()
        result = train(tiny_config(epochs=2, cosine_decay=True), corpus)
        again = train(tiny_config(epochs=2, cosine_decay=True), corpus)
        assert result.history == again.history
        for entry in result.history:
            assert set(entry) == {"epoch", "loss", "tau", "grad_norm", "lr_scale"}
            assert entry["grad_norm"] > 0.0
            assert 0.0 <= entry["lr_scale"] <= 1.0
        # cosine decay: the second epoch's mean scale is below the first's
        assert result.history[1]["lr_scale"] < result.history[0]["lr_scale"]

    def test_eval_every_probes_r1_of_the_model_so_far(self):
        corpus = tiny_corpus()
        result = train(tiny_config(epochs=2, eval_every=1), corpus)
        assert all("r1_t2v" in entry for entry in result.history)
        assert result.history[-1]["r1_t2v"] == evaluate(result.model, corpus).t2v.r1

    def test_zero_gradient_parameter_does_not_move(self):
        params = {"w": np.ones((2, 2)), "frozen": np.full((1, 2), 3.0)}
        optimizer = AdamW(learning_rate=0.1)
        optimizer.step(params, {"w": np.full((2, 2), 0.5), "frozen": np.zeros((1, 2))})
        np.testing.assert_array_equal(params["frozen"], np.full((1, 2), 3.0))
        assert not np.array_equal(params["w"], np.ones((2, 2)))
        assert optimizer.steps == 1

    def test_flat_optimizer_and_clip_match_the_per_array_reference_to_the_bit(self):
        rng = np.random.default_rng(12)
        shapes = {"w": (8, 6), "gain": (1, 5), "scalar": (1, 1), "frozen": (2, 2),
                  "t": (3, 4)}
        # small parameters, so that the last bits of an update show in them
        params = {name: 1e-3 * rng.standard_normal(shape)
                  for name, shape in shapes.items()}
        want = {name: p.copy() for name, p in params.items()}
        frozen = params["frozen"].copy()
        settings = dict(learning_rate=0.05, beta1=0.9, beta2=0.98, eps=1e-8,
                        weight_decay=0.01)
        flat, reference = AdamW(**settings), ReferenceAdamW(**settings)
        for step in range(6):
            grads = {name: rng.standard_normal(shape) * 10.0 ** (step - 2)
                     for name, shape in shapes.items()}
            grads["frozen"] = np.zeros((2, 2))
            grads["t"] = rng.standard_normal((4, 3)).T    # column-major layout
            clipped, norm = clip_global_norm(grads, max_norm=1.0)
            want_clipped, want_norm = reference_clip(grads, max_norm=1.0)
            assert np.float64(norm).tobytes() == np.float64(want_norm).tobytes()
            for name in shapes:
                assert clipped[name].tobytes() == want_clipped[name].tobytes(), name
            lr_scale = 0.5 * (1.0 + np.cos(np.pi * step / 6))
            flat.step(params, clipped, lr_scale)
            reference.step(want, want_clipped, lr_scale)
            for name in shapes:
                assert params[name].tobytes() == want[name].tobytes(), (step, name)
        assert flat.steps == reference.steps == 6
        # with no gradient, only the decay moves it: towards zero
        assert np.all(np.abs(params["frozen"]) < np.abs(frozen))

    def test_optimizer_rejects_parameters_other_than_its_first_steps(self):
        optimizer = AdamW(learning_rate=0.1)
        params = {"a": np.ones((1, 2)), "b": np.ones((2, 2))}
        grads = {name: np.ones_like(p) for name, p in params.items()}
        optimizer.step(params, grads)
        with pytest.raises(ValueError, match="first step"):
            optimizer.step({"b": params["b"], "a": params["a"]}, grads)
        with pytest.raises(ValueError, match="first step"):
            optimizer.step({"a": params["a"]}, grads)

    def test_train_calls_the_optimizer_and_clip_once_per_step(self, monkeypatch):
        # the benchmark counts training.steps as AdamW.step calls and times
        # clip_global_norm by name: each must run exactly once a step
        calls = {"step": 0, "clip": 0}
        step, clip = AdamW.step, training.clip_global_norm

        def counted_step(*args, **kwargs):
            calls["step"] += 1
            return step(*args, **kwargs)

        def counted_clip(*args, **kwargs):
            calls["clip"] += 1
            return clip(*args, **kwargs)

        monkeypatch.setattr(AdamW, "step", counted_step)
        monkeypatch.setattr(training, "clip_global_norm", counted_clip)
        result = train(tiny_config(epochs=2), tiny_corpus())
        assert result.steps == 2 * (40 // 8)
        assert calls == {"step": result.steps, "clip": result.steps}

    @pytest.mark.parametrize("weight_decay,per_step", [(0.0, 1), (0.01, 2)])
    def test_a_step_concatenates_the_gradients_once(self, monkeypatch, weight_decay,
                                                    per_step):
        # AdamW concatenates the gradients once; the parameters only for the
        # weight-decay term
        calls = []
        concat = training._concat

        def counted(arrays):
            calls.append(1)
            return concat(arrays)

        monkeypatch.setattr(training, "_concat", counted)
        result = train(tiny_config(epochs=1, weight_decay=weight_decay), tiny_corpus())
        assert result.steps > 0 and len(calls) == per_step * result.steps

    def test_temperature_gradient_vanishes_on_constant_similarity(self):
        from tefal.contrastive import Temperature, infonce
        _, _, d_log = infonce(np.full((4, 4), 0.3), Temperature.from_tau(5.0))
        assert d_log[0, 0] == pytest.approx(0.0, abs=1e-15)


class TestEvaluate:
    def test_untrained_model_is_near_chance(self):
        corpus = synth_corpus(seed=21, n_items=100, dim=12, frames=3, audio_tokens=4)
        model = create_model(seed=6, dim=12)
        result = evaluate(model, corpus)
        assert result.t2v.r1 < 10.0

    def test_single_item_corpus(self):
        corpus = synth_corpus(seed=22, n_items=1, dim=8, frames=2, audio_tokens=2)
        model = create_model(seed=7, dim=8)
        result = evaluate(model, corpus)
        assert result.t2v.r1 == 100.0
        assert result.v2t.r1 == 100.0

    def test_deterministic(self):
        corpus = tiny_corpus()
        model = create_model(seed=8, dim=12)
        a = evaluate(model, corpus)
        b = evaluate(model, corpus)
        np.testing.assert_array_equal(a.ranks_t2v, b.ranks_t2v)
        assert a.t2v == b.t2v

    def test_dsl_incompatible_with_shortlist(self):
        corpus = tiny_corpus()
        model = create_model(seed=9, dim=12)
        with pytest.raises(ValueError, match="dense"):
            evaluate(model, corpus, k=5, dsl_temp=10.0)

    def test_zero_audio_reduces_addition_to_video_only(self):
        corpus = tiny_corpus()
        corpus.audio[...] = 0.0
        model = create_model(seed=10, dim=12, fusion="addition")
        video_view = dataclasses.replace(model, modality="video")
        sim_both = similarity_matrix(model, corpus)
        sim_video = similarity_matrix(video_view, corpus)
        np.testing.assert_array_equal(sim_both, sim_video)


SCORING_CONFIGS = [(modality, fusion) for modality in ("both", "video", "audio")
                   for fusion in ("addition", "late", "concat_fc", "xattn", "stacking")]


@pytest.fixture(scope="module")
def scoring_corpus():
    # more audio tokens than frames, and 23 items: tiles of several widths
    return synth_corpus(seed=41, n_items=23, dim=12, frames=3, audio_tokens=9)


class TestTileScoring:
    @pytest.mark.parametrize("modality,fusion", SCORING_CONFIGS)
    def test_matches_per_candidate_scores(self, scoring_corpus, modality, fusion):
        model = create_model(seed=12, dim=12, fusion=fusion, modality=modality)
        sim = similarity_matrix(model, scoring_corpus)
        for j in range(len(scoring_corpus)):
            column, _ = candidate_scores(model, scoring_corpus.texts, scoring_corpus, j)
            np.testing.assert_allclose(sim[:, j], column, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("modality,fusion", SCORING_CONFIGS)
    def test_permuting_context_rows_is_bit_exact(self, scoring_corpus, modality, fusion):
        model = create_model(seed=13, dim=12, fusion=fusion, modality=modality)
        base = similarity_matrix(model, scoring_corpus)
        rng = np.random.default_rng(14)
        shuffled = dataclasses.replace(scoring_corpus,
                                       frames=scoring_corpus.frames.copy(),
                                       audio=scoring_corpus.audio.copy())
        for i in range(len(shuffled)):
            shuffled.frames[i] = shuffled.frames[i][rng.permutation(shuffled.frame_count)]
            shuffled.audio[i] = shuffled.audio[i][rng.permutation(
                shuffled.audio_token_count)]
        np.testing.assert_array_equal(similarity_matrix(model, shuffled), base)

    @pytest.mark.parametrize("modality,fusion", SCORING_CONFIGS)
    def test_full_shortlist_equals_exhaustive(self, scoring_corpus, modality, fusion):
        # stage 2 scores grouped tiles (one query row set per candidate),
        # exhaustive scoring dense ones: the ranks must agree bit for bit
        model = create_model(seed=17, dim=12, fusion=fusion, modality=modality)
        n = len(scoring_corpus)
        exhaustive = rank_exhaustive(model, scoring_corpus)
        sim = similarity_matrix(model, scoring_corpus)
        t2v = rerank_two_stage(model, scoring_corpus, k=n)
        (v2t,), _ = ranking._rerank(model, scoring_corpus, n, 1, ("v2t",))
        np.testing.assert_array_equal(t2v.ranks, exhaustive.ranks)
        np.testing.assert_array_equal(
            t2v.ranks, ranks_from_similarity(sim, scoring_corpus.ids))
        np.testing.assert_array_equal(v2t, ranks_from_similarity(sim.T, scoring_corpus.ids))

    @pytest.mark.parametrize("modality,fusion", SCORING_CONFIGS)
    def test_grouped_tile_equals_dense_entries(self, scoring_corpus, modality, fusion):
        # candidate cols[c] scored against its own query rows rows[c]; the
        # 1 x 1 tile is a single pair, the (5, 1) one a query per candidate
        model = create_model(seed=18, dim=12, fusion=fusion, modality=modality)
        full = similarity_matrix(model, scoring_corpus)
        queries = query_rows(model, scoring_corpus.texts)
        rng = np.random.default_rng(19)
        n = len(scoring_corpus)
        for c, t in [(6, 4), (1, 1), (5, 1), (1, 3)]:
            cols = rng.choice(n, size=c, replace=False)
            rows = rng.integers(0, n, size=(c, t))
            gathered = queries.rows(rows)
            np.testing.assert_array_equal(gathered.texts,
                                          np.take(queries.texts[:, 0], rows, axis=-1))
            got = score_tile(model, gathered, scoring_corpus, cols)
            np.testing.assert_array_equal(got, full[rows, cols[:, None]].T)

    @pytest.mark.parametrize("modality,fusion", MODEL_KINDS)
    def test_scoring_without_keep_builds_no_tile_cache(self, scoring_corpus,
                                                       monkeypatch, modality, fusion):
        # the xattn fusion block, too, keeps no cache when the caller does not
        model = create_model(seed=22, dim=12, fusion=fusion, modality=modality)
        queries = query_rows(model, scoring_corpus.texts)
        cols = np.arange(7)
        kept, _tape = score_tile(model, queries, scoring_corpus, cols, keep=True)

        def no_cache(**fields):
            raise AssertionError("built a TileCache without keep")

        monkeypatch.setattr(attention, "TileCache", no_cache)
        np.testing.assert_array_equal(score_tile(model, queries, scoring_corpus, cols), kept)
        with pytest.raises(AssertionError, match="without keep"):
            score_tile(model, queries, scoring_corpus, cols, keep=True)

    def test_an_addition_sub_tile_pools_both_blocks_in_one_product(self, scoring_corpus,
                                                                    monkeypatch):
        # per sub-tile, each block's logits and LN_o variance, then one
        # pooling product for both blocks, which sums their outputs; no
        # fusion code runs
        model = create_model(seed=15, dim=12)
        queries = query_rows(model, scoring_corpus.texts[:5])
        want = score_tile(model, queries, scoring_corpus, np.arange(23))
        products = []

        def counted(*args, **kwargs):
            products.append(args[0].shape)
            return linalg.padded_matmul(*args, **kwargs)

        def no_fusion(*args, **kwargs):
            raise AssertionError("addition called fuse_forward")

        monkeypatch.setattr(attention, "padded_matmul", counted)
        monkeypatch.setattr(model_module, "fuse_forward", no_fusion)
        monkeypatch.setattr(model_module, "TILE_PAIRS", 16)    # 2 candidates per sub-tile
        got = score_tile(model, queries, scoring_corpus, np.arange(23))
        assert len(products) == 5 * 12
        # the pooling product's left operand: both blocks' rows and the bias row
        assert products[4] == (2, 12, 3 + 9 + 1)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("modality,fusion", SCORING_CONFIGS)
    def test_subset_call_returns_the_submatrix(self, scoring_corpus, modality, fusion):
        model = create_model(seed=15, dim=12, fusion=fusion, modality=modality)
        full = similarity_matrix(model, scoring_corpus)
        n = len(scoring_corpus)
        rng = np.random.default_rng(16)
        subsets = [([4], [17]), ([0], list(range(n))), (list(range(n)), [9])]
        subsets += [(rng.choice(n, size=size, replace=False),
                     rng.choice(n, size=n - size, replace=False))
                    for size in (2, 7, 15)]
        for queries, candidates in subsets:
            got = similarity_matrix(model, scoring_corpus,
                                    query_texts=scoring_corpus.texts[queries],
                                    candidates=np.asarray(candidates))
            np.testing.assert_array_equal(got, full[np.ix_(queries, candidates)])

    @pytest.mark.parametrize("bad", [-1, 23, 99])
    def test_a_candidate_outside_the_corpus_is_rejected_before_scoring(
            self, scoring_corpus, monkeypatch, bad):
        # -1 used to score the last item, and 99 raised numpy's IndexError
        model = create_model(seed=15, dim=12)

        def no_scoring(*args, **kwargs):
            raise AssertionError("scored before checking the candidates")

        monkeypatch.setattr(model_module, "score_tile", no_scoring)
        with pytest.raises(ValueError, match=rf"candidate index {bad} is outside \[0, 23\)"):
            similarity_matrix(model, scoring_corpus, candidates=[3, bad, 0, -7])

    @pytest.mark.parametrize("bad", [[1.7], [True, False], np.array([0.0, 2.0]), 3, [[0, 1]]])
    def test_candidates_that_are_no_integers_are_rejected_before_scoring(
            self, scoring_corpus, monkeypatch, bad):
        # [1.7] used to score item 1, and [True, False] items 1 and 0
        model = create_model(seed=15, dim=12)

        def no_scoring(*args, **kwargs):
            raise AssertionError("scored before checking the candidates")

        monkeypatch.setattr(model_module, "score_tile", no_scoring)
        with pytest.raises(ValueError, match="candidates must be integer indices"):
            similarity_matrix(model, scoring_corpus, candidates=bad)

    def test_empty_and_narrow_integer_candidates_still_score(self, scoring_corpus):
        model = create_model(seed=15, dim=12)
        assert similarity_matrix(model, scoring_corpus, candidates=[]).shape == (23, 0)
        np.testing.assert_array_equal(
            similarity_matrix(model, scoring_corpus, candidates=np.array([4, 1], np.int32)),
            similarity_matrix(model, scoring_corpus, candidates=[4, 1]))

    @pytest.mark.parametrize("modality,fusion", MODEL_KINDS)
    def test_tiles_blocks_workers_and_subsets_change_no_bit(self, scoring_corpus,
                                                           monkeypatch, modality, fusion):
        model = create_model(seed=20, dim=12, fusion=fusion, modality=modality)
        full = similarity_matrix(model, scoring_corpus)
        texts = scoring_corpus.texts[:3]   # 3 queries: tiles of 2 candidates at 7 pairs
        cands = np.random.default_rng(21).permutation(len(scoring_corpus))[:15]
        default_pairs, default_block = model_module.TILE_PAIRS, model_module.CANDIDATE_BLOCK
        for tile_pairs in (1, 7, default_pairs):
            for block in (1, 5, default_block):
                monkeypatch.setattr(model_module, "TILE_PAIRS", tile_pairs)
                monkeypatch.setattr(model_module, "CANDIDATE_BLOCK", block)
                for workers in (1, 2):
                    np.testing.assert_array_equal(
                        similarity_matrix(model, scoring_corpus, workers=workers), full)
                np.testing.assert_array_equal(
                    similarity_matrix(model, scoring_corpus, query_texts=texts), full[:3])
                np.testing.assert_array_equal(
                    similarity_matrix(model, scoring_corpus, candidates=cands),
                    full[:, cands])

    def test_a_dense_tile_pads_its_queries_once_per_call(self, scoring_corpus, monkeypatch):
        # 3 queries are no multiple of PAD; at 16 pairs the 23 candidates
        # attend in 12 sub-tiles, which used to pad each block's queries anew
        model = create_model(seed=24, dim=12)
        queries = query_rows(model, scoring_corpus.texts[:3])
        cols = np.arange(len(scoring_corpus))
        whole = score_tile(model, queries, scoring_corpus, cols)
        copies = []

        def counted(x):
            out = pad_pairs(x)
            if out is not x:
                copies.append(x.shape)
            return out

        pad_pairs = linalg.pad_pairs
        monkeypatch.setattr(linalg, "pad_pairs", counted)
        monkeypatch.setattr(model_module, "pad_pairs", counted, raising=False)
        monkeypatch.setattr(model_module, "TILE_PAIRS", 16)
        got = score_tile(model, queries, scoring_corpus, cols)
        assert copies == [(12, 1, 3), (12, 1, 3)]    # the video and audio queries
        assert got.tobytes() == whole.tobytes()

    def test_exhaustive_scoring_holds_one_output_matrix(self):
        # candidate blocks write into the one (T, V) array: no list of
        # tiles to concatenate
        corpus = synth_corpus(seed=22, n_items=1000, dim=8, frames=2, audio_tokens=3)
        model = create_model(seed=23, dim=8)
        tracemalloc.start()
        try:
            sim = similarity_matrix(model, corpus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.8 * sim.nbytes


# a strided last axis sums in another order than a contiguous one, so every
# input is laid out C-contiguous before LN_q and stage 1 sum over its rows
LAYOUTS = {
    "fortran": np.asfortranarray,
    "transposed_copy": lambda x: np.ascontiguousarray(np.swapaxes(x, -1, -2)).swapaxes(-1, -2),
}


@pytest.fixture(scope="module")
def layout_corpus():
    return synth_corpus(seed=3, n_items=64, dim=32)


def relaid(corpus, layout):
    """``corpus`` built from its texts, frames and audio in ``layout``."""
    return Corpus(corpus.ids, layout(corpus.texts), layout(corpus.frames),
                  layout(corpus.audio), corpus.has_audio, corpus.summary_tokens)


@pytest.mark.parametrize("layout", LAYOUTS)
class TestMemoryLayout:
    @pytest.mark.parametrize("modality,fusion", MODEL_KINDS)
    def test_scores_do_not_depend_on_the_input_layout(self, layout_corpus, layout,
                                                      modality, fusion):
        model = create_model(seed=19, dim=32, fusion=fusion, modality=modality)
        want = similarity_matrix(model, layout_corpus).tobytes()
        relay = LAYOUTS[layout]
        assert similarity_matrix(model, layout_corpus,
                                 query_texts=relay(layout_corpus.texts)).tobytes() == want
        assert similarity_matrix(model, relaid(layout_corpus, relay)).tobytes() == want

    def test_stage1_rows_do_not_depend_on_the_corpus_layout(self, layout_corpus, layout):
        got = ranking._stage1_rows(relaid(layout_corpus, LAYOUTS[layout]))
        for g, want in zip(got, ranking._stage1_rows(layout_corpus)):
            assert g.tobytes() == want.tobytes()

    def test_conditioned_embedding_does_not_depend_on_the_text_layout(self, layout_corpus,
                                                                      layout):
        params = create_model(seed=19, dim=32).video
        texts, context = layout_corpus.texts, layout_corpus.frames[0]
        want = conditioned_embedding(params, texts, context).tobytes()
        assert conditioned_embedding(params, LAYOUTS[layout](texts), context).tobytes() == want


def per_candidate_loss_and_grads(model, corpus, indices):
    """The per-candidate training path, as the oracle for the batched one:
    one block_forward/block_backward per candidate column and block (per
    pair row for the xattn fusion block, over its own [e_v, e_a] context),
    with gradients summed column by column."""
    texts = corpus.texts[indices]
    b = len(indices)
    kind = model.fusion.kind
    sim = np.empty((b, b))
    columns = []
    for col, j in enumerate(indices):
        blocks, fusion_cache = {}, None
        if model.modality == "video":
            fused, blocks["video"] = block_forward(model.video, texts, corpus.frames[j])
        elif model.modality == "audio":
            fused, blocks["audio"] = block_forward(model.audio, texts, corpus.audio[j])
        elif kind == FusionKind.STACKING:
            context = np.concatenate(
                [corpus.frames[j], corpus.summary_rows()[j:j + 1]], axis=0)
            fused, blocks["video"] = block_forward(model.video, texts, context)
        elif kind == FusionKind.LATE:
            e_v, blocks["video"] = block_forward(model.video, texts, corpus.frames[j])
            token_mean = np.repeat(corpus.audio[j].mean(axis=0, keepdims=True), b, axis=0)
            fused, fusion_cache = fuse_forward(model.fusion, e_v.T, token_mean.T)
            fused = fused.T
        else:
            e_v, blocks["video"] = block_forward(model.video, texts, corpus.frames[j])
            e_a, blocks["audio"] = block_forward(model.audio, texts, corpus.audio[j])
            if kind == FusionKind.XATTN:
                fusion_cache = [block_forward(model.fusion.xattn, texts[r:r + 1],
                                              np.stack([e_v[r], e_a[r]]))
                                for r in range(b)]
                fused = np.vstack([out for out, _ in fusion_cache])
            elif kind == FusionKind.CONCAT_FC:
                fused, fusion_cache = fuse_forward(model.fusion, e_v.T, e_a.T)
                fused = fused.T
            else:
                fused = e_v + e_a
        sim[:, col], cos_cache = cosine_rows(texts.T, fused.T)
        columns.append((blocks, fusion_cache, cos_cache))

    loss, d_sim, d_log_scale = infonce(sim, model.temperature)
    grads = {"temperature.log_scale": d_log_scale}

    def add(name, value):
        grads[name] = grads[name] + value if name in grads else value

    for col, (blocks, fusion_cache, cos_cache) in enumerate(columns):
        d_fused = cosine_rows_backward(d_sim[:, col], cos_cache).T
        d_cond = {"video": d_fused, "audio": d_fused}
        if isinstance(fusion_cache, list):
            d_cond = {"video": np.empty_like(d_fused), "audio": np.empty_like(d_fused)}
            xattn = model.fusion.xattn
            for r, (_, cache) in enumerate(fusion_cache):
                block_grads, _, d_context = block_backward(xattn, cache, d_fused[r:r + 1])
                for key in xattn.named():
                    add(f"fusion.xattn.{key}", block_grads[key])
                d_cond["video"][r], d_cond["audio"][r] = d_context
        elif fusion_cache is not None:
            own, d_video, d_audio = fuse_backward(model.fusion, fusion_cache, d_fused.T)
            d_cond = {"video": d_video.T, "audio": None if d_audio is None else d_audio.T}
            for key, value in own.items():
                add(f"fusion.{key}", value)
        for name, cache in blocks.items():
            params = getattr(model, name)
            block_grads, _, _ = block_backward(params, cache, d_cond[name])
            for key in params.named():
                add(f"{name}.{key}", block_grads[key])
    return loss, grads, sim


class TestPairTiles:
    @settings(max_examples=80, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.integers(1, 300), min_size=1, max_size=40),
           st.sampled_from([8, 64, 2048, model_module.TILE_PAIRS]),
           st.sampled_from([1, 3, model_module.CANDIDATE_BLOCK]), st.integers(0, 5))
    def test_every_pair_is_one_real_slot_of_one_padded_tile(self, sizes, tile_pairs, block,
                                                            gap):
        # candidate ids with gaps between them; each group's pairs are
        # consecutive slots, as in sorted stage-2 candidates
        cands = np.repeat(np.arange(len(sizes)) * (gap + 1), sizes)
        with mock.patch.object(model_module, "TILE_PAIRS", tile_pairs), \
                mock.patch.object(model_module, "CANDIDATE_BLOCK", block):
            tiles = pair_tiles(cands)
        real = []
        for slots in tiles:
            width = slots.shape[1]
            groups = [np.unique(row) for row in slots]
            largest = max(len(group) for group in groups)
            # the budget counts padded slots; a tile of lone pairs scores each once
            assert len(slots) * padded_width(largest) <= tile_pairs or len(slots) == 1
            assert len(slots) <= block
            assert width == (padded_width(largest) if largest > 1 else 1)
            for row, group in zip(slots, groups):
                # the group's pairs in order, then its last pair repeated
                assert row[:len(group)].tolist() == group.tolist()
                assert np.all(row[len(group):] == group[-1])
                assert len(set(cands[group])) == 1
                assert np.count_nonzero(cands == cands[group[0]]) == len(group)
                real.extend(group.tolist())
        assert sorted(real) == list(range(len(cands)))


class TestBatchedTraining:
    @pytest.mark.parametrize("modality,fusion", SCORING_CONFIGS)
    def test_matches_the_per_candidate_oracle(self, scoring_corpus, modality, fusion):
        model = create_model(seed=17, dim=12, fusion=fusion, modality=modality)
        idx = np.random.default_rng(18).choice(len(scoring_corpus), size=8, replace=False)
        loss, grads, sim = batch_loss_and_grads(model, scoring_corpus, idx)
        want_loss, want_grads, want_sim = per_candidate_loss_and_grads(
            model, scoring_corpus, idx)
        np.testing.assert_allclose(sim, want_sim, rtol=0, atol=1e-12)
        assert loss == pytest.approx(want_loss, rel=1e-10)
        assert set(grads) == set(want_grads) == set(named_parameters(model))
        for name, want in want_grads.items():
            bound = 1e-10 * np.max(np.abs(want))
            assert np.max(np.abs(grads[name] - want)) <= bound, name

    @pytest.mark.parametrize("bad,match", [
        ([0.5, 2.7], "batch items must be integer indices"),
        ([True, False], "batch items must be integer indices"),
        ([-1, 2], r"batch item index -1 is outside \[0, 23\)"),
        ([1, 25], r"batch item index 25 is outside \[0, 23\)")],
        ids=["fractions", "bools", "negative", "past_the_end"])
    def test_batch_indices_that_are_no_items_are_rejected_before_scoring(
            self, scoring_corpus, monkeypatch, bad, match):
        # [0.5, 2.7] used to train on items 0 and 2, [True, False] on items
        # 1 and 0, [-1, 2] on the last item, and [1, 25] raised numpy's IndexError
        model = create_model(seed=19, dim=12)

        def no_scoring(*args, **kwargs):
            raise AssertionError("scored before checking the batch")

        monkeypatch.setattr(model_module, "score_tile", no_scoring)
        with pytest.raises(ValueError, match=match):
            batch_loss_and_grads(model, scoring_corpus, bad)

    @pytest.mark.parametrize("modality,fusion", SCORING_CONFIGS)
    def test_sim_is_the_scoring_submatrix(self, scoring_corpus, modality, fusion):
        # B = 1 makes the batch a single-pair tile, scored inside wider
        # tiles by the full matrix
        model = create_model(seed=19, dim=12, fusion=fusion, modality=modality)
        full = similarity_matrix(model, scoring_corpus)
        rng = np.random.default_rng(20)
        for size in (8, 1):
            idx = rng.choice(len(scoring_corpus), size=size, replace=False)
            _, _, sim = batch_loss_and_grads(model, scoring_corpus, idx)
            want = similarity_matrix(model, scoring_corpus,
                                     query_texts=scoring_corpus.texts[idx], candidates=idx)
            np.testing.assert_array_equal(sim, want)
            np.testing.assert_array_equal(sim, full[np.ix_(idx, idx)])


class TestSynthCorpus:
    def test_same_seed_is_bit_identical(self):
        a = synth_corpus(seed=31, n_items=20, dim=8, frames=2, audio_tokens=3)
        b = synth_corpus(seed=31, n_items=20, dim=8, frames=2, audio_tokens=3)
        np.testing.assert_array_equal(a.texts, b.texts)
        np.testing.assert_array_equal(a.frames, b.frames)
        np.testing.assert_array_equal(a.audio, b.audio)
        assert a.ids == b.ids

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            synth_corpus(seed=-1, n_items=4)

    @pytest.mark.parametrize("name,value,match", [
        ("n_items", 2.5, "n_items must be an integer, got 2.5"),
        ("dim", 2.0, "dim must be an integer, got 2.0"),
        ("frames", True, "frames must be an integer, got True"),
        ("audio_tokens", 0, "audio_tokens must be >= 1, got 0"),
        ("seed", 1.5, "seed must be an integer, got 1.5")])
    def test_a_count_or_seed_that_is_no_integer_in_range_is_named(self, name, value,
                                                                    match):
        kwargs = {"seed": 0, "n_items": 4, name: value}
        with pytest.raises(ValueError, match=match):
            synth_corpus(**kwargs)

    def test_ids_that_are_no_strings_are_rejected(self):
        corpus = synth_corpus(seed=0, n_items=3, dim=4, frames=2, audio_tokens=2)
        with pytest.raises(ValueError, match="item ids must be strings, got 1"):
            dataclasses.replace(corpus, ids=[1, 2, 3])
        with pytest.raises(ValueError, match="got None"):
            dataclasses.replace(corpus, ids=["a", None, "c"])

    @pytest.mark.parametrize("has_audio", [np.array([1, 2, 0]), np.array([1.0, 0.0, 1.0]),
                                           [1, 0, 1]])
    def test_has_audio_that_is_no_bool_array_is_rejected(self, has_audio):
        corpus = synth_corpus(seed=0, n_items=3, dim=4, frames=2, audio_tokens=2)
        with pytest.raises(ShapeError, match=r"has_audio must be \(3,\) bools"):
            dataclasses.replace(corpus, has_audio=has_audio)

    @pytest.mark.parametrize("frames,tokens,dim", [(0, 2, 4), (2, 0, 4), (2, 2, 0)])
    def test_an_item_without_a_frame_audio_token_or_feature_is_rejected(self, frames,
                                                                        tokens, dim):
        corpus = synth_corpus(seed=0, n_items=3, dim=4, frames=2, audio_tokens=2)
        with pytest.raises(ShapeError, match="each item needs a frame and an audio token"):
            dataclasses.replace(corpus, texts=np.zeros((3, dim)),
                                frames=np.zeros((3, frames, dim)),
                                audio=np.zeros((3, tokens, dim)), summary_tokens=None)

    @pytest.mark.parametrize("has_audio", [np.ones(3, bool), np.ones((5, 1), bool)])
    def test_has_audio_other_than_one_flag_per_item_is_a_shape_error(self, has_audio):
        corpus = synth_corpus(seed=0, n_items=5, dim=4, frames=2, audio_tokens=2)
        with pytest.raises(ShapeError, match=r"has_audio must be \(5,\)"):
            dataclasses.replace(corpus, has_audio=has_audio)

    @pytest.mark.parametrize("indices,match", [
        ([0.5, 1.9], r"items must be integer indices along one axis, got float64 of shape \(2,\)"),
        (np.array([True, False]), "items must be integer indices along one axis, got bool"),
        (3, r"got int64 of shape \(\)"),
        ([[0, 1], [2, 3]], r"got int64 of shape \(2, 2\)"),
        ([-1], r"item index -1 is outside \[0, 5\)"),
        ([2, 7], r"item index 7 is outside \[0, 5\)")],
        ids=["float", "bool", "scalar", "2-D", "negative", "past_the_end"])
    def test_a_subset_takes_only_integer_indices_in_range(self, indices, match):
        corpus = synth_corpus(seed=0, n_items=5, dim=4)
        with pytest.raises(ValueError, match=match):
            corpus.subset(indices)

    def test_a_corpus_of_no_items_is_a_shape_error(self):
        corpus = synth_corpus(seed=0, n_items=3, dim=4, frames=2, audio_tokens=2)
        with pytest.raises(ShapeError, match="at least one item"):
            corpus.subset([])

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            synth_corpus(seed=0, n_items=4, audio_informative=1.5)

    def test_uninformative_audio_retrieves_at_chance(self):
        corpus = synth_corpus(seed=32, n_items=80, dim=12, frames=3,
                              audio_tokens=4, audio_informative=0.0, noise=0.3)
        config = tiny_config(modality="audio", epochs=6, seed=2)
        result = train(config, corpus)
        ev = evaluate(result.model, corpus)
        assert ev.t2v.r1 < 15.0  # chance is 1.25%

    def test_fully_informative_audio_retrieves_above_chance(self):
        corpus = synth_corpus(seed=33, n_items=80, dim=12, frames=3,
                              audio_tokens=4, audio_informative=1.0, noise=0.2)
        config = tiny_config(modality="audio", epochs=25, learning_rate=5e-3,
                             seed=2)
        result = train(config, corpus)
        ev = evaluate(result.model, corpus)
        assert ev.t2v.r1 > 25.0  # chance is 1.25%


class TestEndToEndGradient:
    def test_toy_model_matches_finite_differences(self):
        assert end_to_end_check(fusion="addition", seed=1) < 1e-3

    @pytest.mark.parametrize("seed,match", [(1.5, "seed must be an integer"),
                                            (-1, "seed must be >= 0")])
    def test_the_suite_names_a_seed_that_is_no_integer_from_0(self, seed, match):
        with pytest.raises(ValueError, match=match):
            run_grad_checks(seed=seed)
