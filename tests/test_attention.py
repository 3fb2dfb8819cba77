"""Cross-attention block: projections, pooling, invariants, and gradients."""

import math
from fractions import Fraction

import numpy as np
import pytest

from tefal.attention import (
    XAttnParams,
    attend,
    attend_and_pool,
    attend_tile,
    block_backward,
    block_backward_tile,
    block_forward,
    block_forward_tile,
    conditioned_embedding,
    export_attention_weights,
    pooling_rows,
    project_candidates,
    project_queries,
)
from tefal.linalg import ShapeError
from tefal.verify import finite_difference_gradients


def make_params(seed=0, dim=8, proj=4):
    """A block whose ``LN_o`` gain is not 1 and bias not 0, unlike
    ``XAttnParams.create``'s, so that a misplaced gain or bias shows."""
    params = XAttnParams.create(np.random.default_rng(seed), dim, proj)
    rng = np.random.default_rng(seed + 1000)
    params.ln_o_gain = rng.uniform(0.5, 1.5, size=(1, proj))
    params.ln_o_bias = rng.standard_normal((1, proj))
    return params


def centring(width):
    """C = I - 11^T / width, which removes a row's mean."""
    return np.eye(width) - 1.0 / width


def reference_embedding(params, text, context):
    """The per-candidate reference block's output."""
    return block_forward(params, text, context)[0]


# the public function (the tile kernel) and the per-candidate reference
EMBEDDINGS = pytest.mark.parametrize("embed", [conditioned_embedding,
                                               reference_embedding],
                                     ids=["conditioned_embedding", "block_forward"])


def tile_cache(params, text, context):
    """The tile kernel's cache for one candidate ``context`` (n, D) against
    the (1, D) ``text``, with K and the folded values V W_o C diag(g_o)
    mapped to the caller's row order as (n, D_p) rows."""
    _, cache = block_forward_tile(params, project_queries(params, text)[:, None],
                                  context.T[:, :, None])
    back = np.argsort(cache.order[:, 0])    # caller row -> canonical position
    p = params.proj_dim
    return cache.kv[0, back, :p], cache.kv[0, back, 2 * p:]


def reference_layernorm(row, gain, bias, eps=1e-5):
    """Scalar-loop LayerNorm, independent of the library implementation:
    exact rational arithmetic on the floats (or Fractions) of ``row``, up to
    the one rounding of the variance before its root."""
    row = [Fraction(x) for x in row]
    mu = sum(row) / len(row)
    var = sum((x - mu) ** 2 for x in row) / len(row)
    root = Fraction(math.sqrt(float(var) + eps))
    return [float((x - mu) / root * Fraction(g) + Fraction(b))
            for x, g, b in zip(row, gain, bias)]


class TestProject:
    def test_identity_weights_give_standardized_text(self):
        dim = 6
        params = make_params(dim=dim, proj=dim)
        params.w_q = np.eye(dim)
        params.w_k = np.eye(dim)
        params.w_v = np.eye(dim)
        text = np.random.default_rng(1).standard_normal((1, dim))
        q = project_queries(params, text)
        expected = reference_layernorm(text[0], params.ln_q_gain[0],
                                       params.ln_q_bias[0])
        np.testing.assert_allclose(q[:, 0], expected, atol=1e-12)

    def test_zero_context_rows_become_bias_projections(self):
        params = make_params(seed=2)
        params.ln_c_bias = np.random.default_rng(3).standard_normal((1, 8))
        text = np.random.default_rng(4).standard_normal((1, 8))
        k, vo = tile_cache(params, text, np.zeros((4, 8)))
        expected_k = params.ln_c_bias @ params.w_k
        # the kernel folds W_o, LN_o's centring and its gain into the values
        expected_vo = (params.ln_c_bias @ params.w_v @ params.w_o @ centring(4)
                       @ np.diag(params.ln_o_gain[0]))
        for row in range(4):
            np.testing.assert_allclose(k[row], expected_k[0], atol=1e-14)
            np.testing.assert_allclose(vo[row], expected_vo[0], atol=1e-14)

    def test_matches_independent_matrix_evaluation(self):
        rng = np.random.default_rng(5)
        params = make_params(seed=6, dim=8, proj=4)
        text = rng.standard_normal((1, 8))
        context = rng.standard_normal((3, 8))
        q = project_queries(params, text)
        k, vo = tile_cache(params, text, context)

        t_n = np.array([reference_layernorm(text[0], params.ln_q_gain[0],
                                            params.ln_q_bias[0])])
        c_n = np.array([reference_layernorm(row, params.ln_c_gain[0],
                                            params.ln_c_bias[0])
                        for row in context])
        np.testing.assert_allclose(q.T, t_n @ params.w_q, atol=1e-12)
        np.testing.assert_allclose(k, c_n @ params.w_k, atol=1e-12)
        np.testing.assert_allclose(
            vo, c_n @ params.w_v @ params.w_o @ centring(4) @ np.diag(params.ln_o_gain[0]),
            atol=1e-12)

    def test_context_width_mismatch(self):
        params = make_params()
        for fn in (conditioned_embedding, export_attention_weights):
            with pytest.raises(ShapeError, match="columns"):
                fn(params, np.zeros((1, 8)), np.zeros((3, 5)))


class TestAttend:
    def test_single_context_row(self):
        rng = np.random.default_rng(7)
        q = rng.standard_normal((1, 4))
        k = rng.standard_normal((1, 4))
        v = rng.standard_normal((1, 4))
        pooled, weights = attend(q, k, v)
        np.testing.assert_array_equal(weights, np.array([[1.0]]))
        np.testing.assert_array_equal(pooled, v)

    def test_identical_keys_give_uniform_weights_and_value_mean(self):
        rng = np.random.default_rng(8)
        q = rng.standard_normal((1, 3))
        k = np.tile(rng.standard_normal((1, 3)), (5, 1))
        v = rng.standard_normal((5, 3))
        pooled, weights = attend(q, k, v)
        np.testing.assert_allclose(weights, np.full((1, 5), 0.2), atol=1e-15)
        np.testing.assert_allclose(pooled[0], v.mean(axis=0), atol=1e-14)

    def test_direct_formula_small_case(self):
        rng = np.random.default_rng(9)
        q = rng.standard_normal((1, 2))
        k = rng.standard_normal((3, 2))
        v = rng.standard_normal((3, 2))
        pooled, weights = attend(q, k, v)

        logits = [math.fsum(q[0, d] * k[n, d] for d in range(2)) / math.sqrt(2)
                  for n in range(3)]
        exps = [math.exp(x) for x in logits]
        denom = math.fsum(exps)
        w_ref = [e / denom for e in exps]
        np.testing.assert_allclose(weights[0], w_ref, atol=1e-12)
        pooled_ref = [math.fsum(w_ref[n] * v[n, d] for n in range(3))
                      for d in range(2)]
        np.testing.assert_allclose(pooled[0], pooled_ref, atol=1e-12)


class TestConditionedEmbedding:
    @EMBEDDINGS
    def test_joint_permutation_is_bit_exact(self, embed):
        rng = np.random.default_rng(10)
        params = make_params(seed=11, dim=6, proj=6)
        text = rng.standard_normal((1, 6))
        context = rng.standard_normal((7, 6))
        base = embed(params, text, context)
        for _ in range(20):
            perm = rng.permutation(7)
            out = embed(params, text, context[perm])
            np.testing.assert_array_equal(out, base)

    def test_single_row_context_ignores_query_and_key_weights(self):
        rng = np.random.default_rng(12)
        params = make_params(seed=13, dim=5, proj=5)
        text = rng.standard_normal((1, 5))
        context = rng.standard_normal((1, 5))
        base = conditioned_embedding(params, text, context)
        params.w_q = rng.standard_normal((5, 5))
        params.w_k = rng.standard_normal((5, 5))
        np.testing.assert_array_equal(
            conditioned_embedding(params, text, context), base)

    @EMBEDDINGS
    def test_stepwise_composition_oracle(self, embed):
        rng = np.random.default_rng(14)
        params = make_params(seed=15, dim=8, proj=4)
        text = rng.standard_normal((1, 8))
        context = rng.standard_normal((3, 8))
        out = embed(params, text, context)

        t_n = np.array([reference_layernorm(text[0], params.ln_q_gain[0],
                                            params.ln_q_bias[0])])
        c_n = np.array([reference_layernorm(row, params.ln_c_gain[0],
                                            params.ln_c_bias[0])
                        for row in context])
        q = t_n @ params.w_q
        k = c_n @ params.w_k
        v = c_n @ params.w_v
        logits = (q @ k.T) / math.sqrt(4)
        exps = np.exp(logits[0])
        weights = exps / math.fsum(exps)
        pooled = np.array([[math.fsum(weights[n] * v[n, d] for n in range(3))
                            for d in range(4)]])
        proj = pooled @ params.w_o
        expected = np.array([reference_layernorm(proj[0], params.ln_o_gain[0],
                                                 params.ln_o_bias[0])])
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_output_has_layernorm_structure(self):
        rng = np.random.default_rng(16)
        # unit gain / zero bias is the initialization
        params = XAttnParams.create(np.random.default_rng(17), 6, 6)
        out = conditioned_embedding(params, rng.standard_normal((1, 6)),
                                    rng.standard_normal((4, 6)))
        assert abs(out.mean()) <= 1e-12

    def test_video_and_audio_blocks_are_independent(self):
        rng = np.random.default_rng(18)
        video = make_params(seed=19, dim=6, proj=6)
        audio = make_params(seed=20, dim=6, proj=6)
        text = rng.standard_normal((1, 6))
        frames = rng.standard_normal((3, 6))
        tokens = rng.standard_normal((5, 6))
        video_out = conditioned_embedding(video, text, frames)
        # mutating the audio side or its input cannot move the video output
        audio.w_v += 10.0
        _ = conditioned_embedding(audio, text, tokens * -3.0)
        np.testing.assert_array_equal(
            conditioned_embedding(video, text, frames), video_out)

    def test_disjoint_parameter_storage(self):
        video = make_params(seed=21)
        audio = make_params(seed=22)
        before = audio.w_q.copy()
        video.w_q[...] = 99.0
        np.testing.assert_array_equal(audio.w_q, before)


class TestFoldedLayerNorm:
    def test_a_large_common_offset_over_nearly_cancelling_rows(self):
        # pooled vectors of 1e4 + u: W_v = I and W_o = 1e4 + R, with R on a
        # 2^-30 grid so that W_v W_o C is exact in floats.  The context rows
        # come in pairs x, -x + 1e-6 e under nearly equal weights, so u is
        # about 16 times shorter than the centred rows it pools, which the
        # Gram variance squares.  The fold is 3e-15 off here; centring after
        # the pooling, as an unfolded LN_o does, is 3e-12 to 8e-12 off.
        rng = np.random.default_rng(50)
        d = 8
        params = make_params(seed=51, dim=d, proj=d)
        params.w_v = np.eye(d)
        params.w_o = 1e4 + np.round(rng.standard_normal((d, d)) * 2**30) / 2**30
        params.w_k *= 1e-2
        params.ln_c_bias = np.full((1, d), 0.125)
        x = rng.standard_normal((3, d))
        context = np.concatenate([x, -x + 1e-6 * rng.standard_normal((3, d))])
        text = rng.standard_normal((4, d))
        out, cache = block_forward_tile(params, project_queries(params, text)[:, None],
                                        context.T[:, :, None])
        rows = [[Fraction(v) for v in row]
                for row in np.take(cache.c_n[:, :, 0].T, cache.order[:, 0], axis=0)]
        for t in range(len(text)):
            weights = [Fraction(v) for v in cache.weights[0, :, t]]
            pooled = [sum(w * row[k] for w, row in zip(weights, rows)) for k in range(d)]
            proj = [sum(pooled[k] * Fraction(params.w_o[k, j]) for k in range(d))
                    for j in range(d)]
            assert abs(float(sum(proj)) / d) > 5e3    # the common offset
            expected = np.array(reference_layernorm(proj, params.ln_o_gain[0],
                                                    params.ln_o_bias[0]))
            assert np.abs(out[:, 0, t] - expected).max() <= 1e-12 * np.abs(expected).max()


class TestExportWeights:
    def test_single_row(self):
        params = make_params(seed=23)
        rng = np.random.default_rng(24)
        w = export_attention_weights(params, rng.standard_normal((1, 8)),
                                     rng.standard_normal((1, 8)))
        np.testing.assert_array_equal(w, np.array([[1.0]]))

    def test_weights_permute_with_the_context_rows(self):
        params = make_params(seed=30)
        rng = np.random.default_rng(31)
        text = rng.standard_normal((2, 8))
        context = rng.standard_normal((9, 8))
        base = export_attention_weights(params, text, context)
        for _ in range(20):
            perm = rng.permutation(9)
            np.testing.assert_array_equal(
                export_attention_weights(params, text, context[perm]), base[:, perm])

    def test_weights_sum_to_one_up_to_large_contexts(self):
        params = make_params(seed=25)
        rng = np.random.default_rng(26)
        text = rng.standard_normal((1, 8))
        for n in (2, 37, 1212):
            w = export_attention_weights(params, text,
                                         rng.standard_normal((n, 8)))
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_logit_shift_invariance(self):
        # adding a constant to every attention logit cannot change the weights;
        # scaling the query by 1 + c / (q . k) per-key would, so emulate the
        # shift through the softmax directly
        rng = np.random.default_rng(27)
        q = rng.standard_normal((1, 4))
        k = rng.standard_normal((6, 4))
        v = rng.standard_normal((6, 4))
        _, w_base = attend(q, k, v)
        # shifting all logits equally: q (k + c q / |q|^2)^T = q k^T + c
        shift = 3.7
        k_shifted = k + shift * q / (q @ q.T).item() * math.sqrt(4)
        _, w_shifted = attend(q, k_shifted, v)
        np.testing.assert_allclose(w_shifted, w_base, atol=1e-12)


class TestProjectCandidates:
    @pytest.mark.parametrize("rows", [1, 2, 8])
    def test_a_candidate_projects_alike_alone_and_in_a_stack_of_300(self, rows):
        # K || M || M diag(g_o) and the Gram M M^T are each one fixed-shape
        # matmul item per candidate, so their bits do not depend on how many
        # candidates share the call
        rng = np.random.default_rng(40)
        params = make_params(seed=41, dim=32, proj=32)
        contexts = rng.standard_normal((32, rows, 300))
        stack = project_candidates(params, contexts)
        for c in (0, 1, 150, 299):
            alone = project_candidates(params, contexts[:, :, c:c + 1])
            assert alone.kv[0].tobytes() == stack.kv[c].tobytes()
            assert alone.gram[0].tobytes() == stack.gram[c].tobytes()


class TestOneQueryPerCandidate:
    # the xattn fusion block's tile: (D_p, P, 1) queries, one per candidate,
    # against (D, 2, P) contexts, the rows [e_v, e_a]
    def test_swapping_the_two_context_rows_changes_no_bit(self):
        params = make_params(seed=40, dim=6, proj=6)
        rng = np.random.default_rng(41)
        q = project_queries(params, rng.standard_normal((50, 6)))[:, :, None]
        e_v, e_a = rng.standard_normal((2, 6, 50))
        out, cache = block_forward_tile(params, q, np.stack([e_v, e_a], axis=1))
        swapped, swapped_cache = block_forward_tile(params, q, np.stack([e_a, e_v], axis=1))
        np.testing.assert_array_equal(swapped, out)
        np.testing.assert_array_equal(swapped_cache.caller_weights(),
                                      cache.caller_weights()[::-1])
        cands = project_candidates(params, np.stack([e_v, e_a], axis=1))
        unkept, (no_cache,) = attend_and_pool([(params, q, cands)],
                                              pooling_rows([(params, cands)]))
        np.testing.assert_array_equal(unkept[:, :, :1], out)
        assert no_cache is None

    @pytest.mark.parametrize("dim", [6, 32])
    def test_a_pair_alone_keeps_its_bits(self, dim):
        # a single pair is a (., 1, 1) item, padded to PAD columns as a
        # wider tile's items are
        params = make_params(seed=42, dim=dim, proj=dim)
        rng = np.random.default_rng(43)
        q = project_queries(params, rng.standard_normal((40, dim)))[:, :, None]
        contexts = rng.standard_normal((dim, 2, 40))
        out, _ = block_forward_tile(params, q, contexts)
        for c in range(40):
            alone, _ = block_forward_tile(params, q[:, c:c + 1], contexts[:, :, c:c + 1])
            assert alone.tobytes() == out[:, c:c + 1].tobytes(), c


class TestQueryLayout:
    def test_queries_without_a_candidate_axis_are_a_shape_error(self):
        # a tile's queries are (D_p, 1, T), shared, or (D_p, C, T)
        rng = np.random.default_rng(42)
        params = make_params(seed=43, dim=6, proj=4)
        q = project_queries(params, rng.standard_normal((2, 6)))
        contexts = rng.standard_normal((6, 3, 2))
        for bad in (q, q.reshape(4, 2, 1, 1), q[:, None].repeat(3, axis=1)):
            with pytest.raises(ShapeError, match=r"q must be \(4, 1, T\)"):
                block_forward_tile(params, bad, contexts)
            with pytest.raises(ShapeError, match=r"q must be \(4, 1, T\)"):
                attend_tile(params, bad, project_candidates(params, contexts))
        dense, _ = block_forward_tile(params, q[:, None], contexts)
        grouped, _ = block_forward_tile(params, q[:, None].repeat(2, axis=1), contexts)
        assert dense.tobytes() == grouped.tobytes()


class TestBlockGradients:
    def test_backward_matches_finite_differences(self):
        # the per-candidate reference: every parameter, the text and the context
        rng = np.random.default_rng(28)
        params = make_params(seed=29, dim=5, proj=3)
        text = rng.standard_normal((2, 5))
        context = rng.standard_normal((4, 5))
        cotangent = rng.standard_normal((2, 3))

        _, cache = block_forward(params, text, context)
        grads, d_text, d_context = block_backward(params, cache, cotangent)
        arrays = {**params.named(), "text": text, "context": context}
        analytic = {**grads, "text": d_text, "context": d_context}

        def loss():
            return float(np.sum(cotangent * block_forward(params, text, context)[0]))

        numeric = finite_difference_gradients(loss, list(arrays.values()))
        for name, num in zip(arrays, numeric):
            denom = np.maximum(np.maximum(np.abs(analytic[name]), np.abs(num)), 1e-3)
            assert np.max(np.abs(analytic[name] - num) / denom) < 1e-4, name

    @pytest.mark.parametrize("grouped", [False, True], ids=["dense", "grouped"])
    def test_tile_backward_without_the_context_gradient_keeps_its_bits(self, grouped):
        # training's blocks attend over corpus rows and skip d_contexts
        rng = np.random.default_rng(30)
        params = make_params(seed=31, dim=6, proj=4)
        q = project_queries(params, rng.standard_normal((6 if grouped else 2, 6)))
        q = q.reshape(4, 3, 2) if grouped else q.reshape(4, 1, 2)
        contexts = rng.standard_normal((6, 5, 3))
        _, cache = block_forward_tile(params, q, contexts)
        cotangent = rng.standard_normal((4, 3, 2))
        grads, d_q, d_contexts = block_backward_tile(params, cache, cotangent)
        got, got_d_q, none = block_backward_tile(params, cache, cotangent,
                                                 context_grad=False)
        assert d_contexts.shape == contexts.shape and none is None
        assert list(got) == list(grads)
        for name in grads:
            assert got[name].tobytes() == grads[name].tobytes(), name
        assert got_d_q.tobytes() == d_q.tobytes()
