"""Dense primitives: forward semantics, backward rules, and the FD checker."""

import math

import numpy as np
import pytest

from tefal.linalg import PAD, padded_matmul
from tefal.linalg import (
    LAYERNORM_EPS,
    canonical_sum,
    layernorm_affine_grads,
    layernorm_rows,
    layernorm_rows_backward,
    softmax_rows,
    softmax_rows_backward,
)
from tefal.verify import _primitive_check


def triple_loop_matmul(a, b):
    """Independent O(n^3) reference, summed with exact float accumulation."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            out[i, j] = math.fsum(a[i, k] * b[k, j] for k in range(a.shape[1]))
    return out


class TestPaddedMatmul:
    """The engine's per-pair product (:func:`tefal.linalg.padded_matmul`,
    the pair axis zero-padded to a multiple of ``PAD``), which its
    projections, attention and fusion use."""

    def test_identity(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 7))
        np.testing.assert_array_equal(padded_matmul(np.eye(3), m)[:, :7], m)

    def test_hand_dot_product(self):
        out = padded_matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        assert out.shape == (1, PAD)
        assert out[0, 0] == 11.0
        np.testing.assert_array_equal(out[0, 1:], 0.0)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((5, 3))
        np.testing.assert_allclose(padded_matmul(a, b)[:, :3], triple_loop_matmul(a, b),
                                   rtol=1e-12, atol=0)

    def test_triple_loop_oracle_large(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            rows, inner, cols = rng.integers(1, 65, size=3)
            a = rng.standard_normal((rows, inner))
            b = rng.standard_normal((inner, cols))
            np.testing.assert_allclose(padded_matmul(a, b)[:, :cols],
                                       triple_loop_matmul(a, b), rtol=1e-12, atol=1e-12)

    def test_columns_do_not_depend_on_their_position(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 37))
        perm = rng.permutation(37)
        np.testing.assert_array_equal(padded_matmul(a, b)[:, perm],
                                      padded_matmul(a, b[:, perm])[:, :37])
        np.testing.assert_array_equal(padded_matmul(a, b)[:, 5:9],
                                      padded_matmul(a, b[:, 5:9])[:, :4])


class TestSoftmaxRows:
    def test_single_element_row(self):
        for x in (-1e6, 0.0, 3.7, 1e6):
            np.testing.assert_array_equal(softmax_rows(np.array([[x]])),
                                          np.array([[1.0]]))

    def test_constant_row_is_uniform(self):
        out = softmax_rows(np.array([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out, np.full((1, 3), 1.0 / 3.0), atol=1e-15)

    def test_direct_formula(self):
        row = np.array([[1.0, 2.0, 3.0]])
        denom = math.exp(1) + math.exp(2) + math.exp(3)
        expected = np.array([[math.exp(1), math.exp(2), math.exp(3)]]) / denom
        np.testing.assert_allclose(softmax_rows(row), expected, rtol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            cols = int(rng.integers(1, 40))
            m = rng.uniform(-50, 50, size=(int(rng.integers(1, 6)), cols))
            sums = softmax_rows(m).sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((2, 6))
        np.testing.assert_allclose(softmax_rows(m), softmax_rows(m + 11.5),
                                   atol=1e-14)


class TestLayernormRows:
    def test_constant_row_maps_to_bias(self):
        gain = np.ones((1, 4))
        bias = np.zeros((1, 4))
        out = layernorm_rows(np.array([[5.0, 5.0, 5.0, 5.0]]), gain, bias)
        np.testing.assert_array_equal(out, np.zeros((1, 4)))
        bias2 = np.array([[1.0, -2.0, 0.5, 3.0]])
        out2 = layernorm_rows(np.full((1, 4), 9.0), gain, bias2)
        np.testing.assert_array_equal(out2, bias2)

    def test_two_point_closed_form(self):
        out = layernorm_rows(np.array([[1.0, -1.0]]), np.ones((1, 2)), np.zeros((1, 2)))
        a = 1.0 / math.sqrt(1.0 + LAYERNORM_EPS)
        np.testing.assert_allclose(out, np.array([[a, -a]]), rtol=1e-15)

    def test_standardization_property(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((6, 16)) * 10.0 + 1.5
        out = layernorm_rows(m, np.ones((1, 16)), np.zeros((1, 16)))
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-6)


class TestGradCheck:
    """The primitives through gradcheck's harness, on other inputs."""

    def test_softmax(self):
        rng = np.random.default_rng(7)
        err = _primitive_check(
            softmax_rows, lambda d_out, out: [softmax_rows_backward(d_out, out)],
            {"m": rng.standard_normal((2, 5))}, seed=0)
        assert err < 1e-4

    def test_layernorm(self):
        rng = np.random.default_rng(8)
        m, gain, bias = (rng.standard_normal(shape) for shape in ((2, 8), (1, 8), (1, 8)))
        err = _primitive_check(
            layernorm_rows, lambda d_out, out: layernorm_rows_backward(d_out, m, gain),
            {"m": m, "gain": gain, "bias": bias}, seed=0)
        assert err < 1e-4


class TestBackwardRules:
    def test_layernorm_backward_bias_gradient_is_column_sum(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((3, 5))
        d_out = rng.standard_normal((3, 5))
        _, _, d_bias = layernorm_rows_backward(d_out, m, np.ones((1, 5)))
        np.testing.assert_allclose(d_bias, d_out.sum(axis=0, keepdims=True))

    @pytest.mark.parametrize("shape,axis", [((6, 5), -1), ((5, 4, 3), 0), ((5, 1, 1), 0)],
                             ids=["rows", "pair-last", "one-pair"])
    def test_param_grads_equal_the_full_backward_to_the_bit(self, shape, axis):
        # the parameter-only path that callers with data inputs take
        rng = np.random.default_rng(11)
        m, d_out = rng.standard_normal(shape), rng.standard_normal(shape)
        gain = rng.standard_normal((1, shape[axis]))
        _, d_gain, d_bias = layernorm_rows_backward(d_out, m, gain, axis=axis)
        _, xhat = layernorm_rows(m, gain, gain, axis=axis, keep=True)
        got_gain, got_bias = layernorm_affine_grads(d_out, xhat, axis=axis)
        assert got_gain.shape == got_bias.shape == (1, shape[axis])
        assert got_gain.tobytes() == d_gain.tobytes()
        assert got_bias.tobytes() == d_bias.tobytes()


class TestCanonicalSum:
    def test_permutation_invariant_to_the_bit(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            vals = rng.standard_normal((1, int(rng.integers(2, 200)))) * 10.0 ** float(rng.integers(-3, 4))
            base = canonical_sum(vals, axis=1)
            perm = canonical_sum(vals[:, rng.permutation(vals.shape[1])], axis=1)
            np.testing.assert_array_equal(base, perm)
