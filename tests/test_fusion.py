"""Fusion strategies: the addition default and the four ablation variants."""

import numpy as np
import pytest

from tefal.attention import block_forward, block_forward_tile, project_queries
from tefal.contrastive import cosine_rows
from tefal.corpus import audio_summary, synth_corpus
from tefal.fusion import (
    FusionError,
    FusionKind,
    FusionParams,
    fuse_backward,
    fuse_forward,
)
from tefal.linalg import ShapeError
from tefal.model import candidate_scores, create_model, query_rows, score_tile


def rng(seed=0):
    return np.random.default_rng(seed)


class TestAudioSummary:
    def test_equal_rows(self):
        row = rng(1).standard_normal((1, 6))
        np.testing.assert_array_equal(audio_summary(row, row), row)

    def test_arithmetic_mean(self):
        out = audio_summary(np.array([[2.0, 0.0]]), np.array([[0.0, 2.0]]))
        np.testing.assert_array_equal(out, np.array([[1.0, 1.0]]))

    def test_random_rows(self):
        a = rng(2).standard_normal((1, 9))
        b = rng(3).standard_normal((1, 9))
        np.testing.assert_allclose(audio_summary(a, b), (a + b) / 2.0, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            audio_summary(np.zeros((1, 3)), np.zeros((1, 4)))

    def test_corpus_summary_rows_equal_the_per_item_summaries(self):
        corpus = synth_corpus(seed=4, n_items=9, dim=6, frames=2, audio_tokens=3)
        tokens = corpus.summary_tokens
        expected = np.concatenate([audio_summary(tokens[i, 0:1], tokens[i, 1:2])
                                   for i in range(len(corpus))])
        np.testing.assert_array_equal(corpus.summary_rows(), expected)


class TestAddition:
    def test_is_not_a_post_hoc_combiner(self):
        # the model sums addition's outputs (tefal.model._fuse) and routes
        # d_fused to both blocks (batch_loss_and_grads)
        params = FusionParams(FusionKind.ADDITION)
        v, a = rng(5).standard_normal((2, 4, 3))
        with pytest.raises(FusionError, match="addition fusion is not a post-hoc"):
            fuse_forward(params, v, a)
        with pytest.raises(FusionError, match="addition fusion is not a post-hoc"):
            fuse_backward(params, None, v)

    @pytest.mark.parametrize("modality", ["both", "video", "audio"])
    def test_the_per_candidate_reference_sums_the_blocks(self, modality):
        # E_v|t + E_a|t, in that order, bit for bit; one modality's block
        # output is the fused embedding itself
        dim = 5
        corpus = synth_corpus(seed=8, n_items=4, dim=dim, frames=3, audio_tokens=2)
        model = create_model(seed=9, dim=dim, modality=modality)
        texts = corpus.texts
        e_v = block_forward(model.video, texts, corpus.frames[2])[0]
        e_a = block_forward(model.audio, texts, corpus.audio[2])[0]
        fused = {"both": e_v + e_a, "video": e_v, "audio": e_a}[modality]
        expected, _ = cosine_rows(texts.T, fused.T)
        got, _ = candidate_scores(model, texts, corpus, 2)
        np.testing.assert_array_equal(got, expected)


class TestConcatFC:
    def test_identity_projection_passes_video_through(self):
        proj = 4
        params = FusionParams(FusionKind.CONCAT_FC,
                              concat_w=np.vstack([np.eye(proj), np.zeros((proj, proj))]),
                              concat_b=np.zeros((1, proj)))
        video = rng(10).standard_normal((proj, 2))
        audio = rng(11).standard_normal((proj, 2))
        fused, _ = fuse_forward(params, video, audio)
        np.testing.assert_allclose(fused, video, atol=1e-15)


class TestVariantShapes:
    def test_every_kind_outputs_one_row_of_proj_dim_per_query(self):
        # the post-hoc kinds fuse one pair-last column per query; addition
        # is summed by the model, and stacking swaps the video block's
        # context instead (see TestStacking)
        dim = proj = 6
        g = rng(12)
        video = g.standard_normal((proj, 3))
        audio = g.standard_normal((proj, 3))
        texts = g.standard_normal((dim, 3))
        token_mean = g.standard_normal((dim, 1))
        for kind in FusionKind:
            params = FusionParams.create(g, kind, dim, proj)
            inputs = (video, token_mean if kind == FusionKind.LATE else audio, texts)
            if kind in (FusionKind.ADDITION, FusionKind.STACKING):
                with pytest.raises(FusionError, match="not a post-hoc combiner"):
                    fuse_forward(params, *inputs)
                continue
            fused, _ = fuse_forward(params, *inputs)
            assert fused.shape == (proj, 3), kind


class TestTileShapes:
    @pytest.mark.parametrize("kind", [FusionKind.LATE, FusionKind.CONCAT_FC,
                                      FusionKind.XATTN])
    def test_a_tile_fuses_each_candidate_as_its_own_call(self, kind):
        # score_tile's layout: (D_p, C, T) embeddings, (D, 1, T) query texts
        # and late's (D, C, 1) token mean
        dim, cands, t = 6, 5, 3
        g = rng(16)
        params = FusionParams.create(g, kind, dim, dim)
        video, audio = g.standard_normal((2, dim, cands, t))
        if kind == FusionKind.LATE:
            audio = g.standard_normal((dim, cands, 1))
        texts = g.standard_normal((dim, 1, t))
        fused, _ = fuse_forward(params, video, audio, texts)
        for c in range(cands):
            expected, _ = fuse_forward(params, video[:, c], audio[:, c], texts[:, 0])
            np.testing.assert_array_equal(fused[:, c], expected)


class TestStacking:
    def test_matches_block_over_stacked_context(self):
        dim = 5
        corpus = synth_corpus(seed=13, n_items=4, dim=dim, frames=3, audio_tokens=2)
        model = create_model(seed=13, dim=dim, fusion="stacking")
        texts = corpus.texts[:2]
        cols = np.array([3, 1])
        scores = score_tile(model, query_rows(model, texts), corpus, cols)
        stacked = np.stack([np.vstack([corpus.frames[j], corpus.summary_rows()[j:j + 1]])
                            for j in cols])
        q = project_queries(model.video, texts)[:, None]
        fused, _ = block_forward_tile(model.video, q, stacked.transpose(2, 1, 0))
        expected, _ = cosine_rows(texts.T[:, None, :], fused)
        np.testing.assert_array_equal(scores, expected.T)


class TestXAttn:
    # the tile kernel, each pair one candidate with one query over its rows
    # [e_v, e_a]
    @pytest.mark.parametrize("dim", [6, 32])
    def test_each_pair_matches_the_per_candidate_reference(self, dim):
        g = rng(18)
        params = FusionParams.create(g, FusionKind.XATTN, dim, dim)
        texts = g.standard_normal((7, dim))
        video, audio = g.standard_normal((2, dim, 7))
        fused, _ = fuse_forward(params, video, audio, texts.T)
        for r in range(7):
            want, _ = block_forward(params.xattn, texts[r:r + 1],
                                    np.stack([video[:, r], audio[:, r]]))
            np.testing.assert_allclose(fused[:, r], want[0], rtol=0, atol=1e-12)

    def test_keep_changes_no_bit(self):
        dim = 6
        g = rng(19)
        params = FusionParams.create(g, FusionKind.XATTN, dim, dim)
        video, audio = g.standard_normal((2, dim, 5, 3))
        texts = g.standard_normal((3, dim)).T[:, None]
        kept, saved = fuse_forward(params, video, audio, texts, keep=True)
        unkept, no_saved = fuse_forward(params, video, audio, texts)
        np.testing.assert_array_equal(unkept, kept)
        assert no_saved is None
        # the two rows' weights of each of the 15 pairs, one query each
        weights = saved[0].caller_weights()
        assert weights.shape == (2, 15, 1)
        np.testing.assert_allclose(weights.sum(axis=0), 1.0, rtol=0, atol=1e-15)

    def test_a_broadcast_text_gets_the_gradient_of_all_its_pairs(self):
        # (D, 1, T) texts shared by 4 candidates, as in a dense training
        # tile, against the same texts repeated per candidate
        dim = 6
        g = rng(20)
        params = FusionParams.create(g, FusionKind.XATTN, dim, dim)
        video, audio, d_fused = g.standard_normal((3, dim, 4, 3))
        texts = g.standard_normal((dim, 1, 3))
        repeated = np.repeat(texts, 4, axis=1)
        shared = fuse_backward(params, fuse_forward(params, video, audio, texts, True)[1],
                               d_fused)
        own = fuse_backward(params, fuse_forward(params, video, audio, repeated, True)[1],
                            d_fused)
        assert set(shared[0]) == set(params.named())
        for got, want in zip(shared[1:], own[1:]):
            np.testing.assert_array_equal(got, want)
        for name, want in own[0].items():
            np.testing.assert_allclose(shared[0][name], want, rtol=1e-12, atol=1e-14)


class TestValidation:
    @pytest.mark.parametrize("kind, match", [
        (FusionKind.LATE, "audio summary has 4 features, projection expects 3"),
        (FusionKind.CONCAT_FC, "concatenation has 7 features, weight expects 6"),
    ], ids=["late", "concat_fc"])
    def test_feature_dimension_mismatch(self, kind, match):
        params = FusionParams.create(rng(15), kind, 3, 3)
        with pytest.raises(ShapeError, match=match):
            fuse_forward(params, np.zeros((3, 1)), np.zeros((4, 1)))

    def test_unknown_kind_name(self):
        with pytest.raises(FusionError, match="unknown fusion kind"):
            FusionKind.parse("gated")

    def test_parse_accepts_config_names(self):
        for name in ("addition", "late", "concat_fc", "xattn", "stacking"):
            assert FusionKind.parse(name).value == name

    def test_params_present_iff_kind_requires_them(self):
        g = rng(14)
        assert FusionParams.create(g, FusionKind.ADDITION, 4, 4).named() == {}
        assert FusionParams.create(g, FusionKind.STACKING, 4, 4).named() == {}
        assert set(FusionParams.create(g, FusionKind.LATE, 4, 4).named()) == {"late_w"}
        assert set(FusionParams.create(g, FusionKind.CONCAT_FC, 4, 4).named()) == \
            {"concat_w", "concat_b"}
        assert all(k.startswith("xattn.") for k in
                   FusionParams.create(g, FusionKind.XATTN, 4, 4).named())
