"""Cosine similarity and the symmetric InfoNCE objective."""

import math

import numpy as np
import pytest

from tefal.contrastive import (
    TAU_MAX,
    TAU_MIN,
    Temperature,
    ZeroNormWarning,
    cosine_rows,
    infonce,
)
from tefal.linalg import ShapeError


def reference_loss(sim, tau):
    """Both directional terms evaluated straight from their definitions."""
    b = sim.shape[0]
    z = sim * tau

    def log_softmax_at_diag(rows):
        total = 0.0
        for i in range(b):
            denom = math.fsum(math.exp(x) for x in rows[i])
            total += math.log(math.exp(rows[i][i]) / denom)
        return total

    t2v = -log_softmax_at_diag(z) / b
    v2t = -log_softmax_at_diag(z.T) / b
    return t2v, v2t


def column_cosine(a, b):
    """:func:`cosine_rows` on one pair of (D, 1) columns, as a scalar."""
    (score,), _ = cosine_rows(a, b)
    return score


class TestCosineSimilarity:
    def test_identical_vectors(self):
        v = np.array([[1.0], [2.0], [-3.0]])
        assert column_cosine(v, v) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert column_cosine(np.array([[1.0], [0.0]]),
                             np.array([[0.0], [1.0]])) == 0.0

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 1))
        b = rng.standard_normal((5, 1))
        base = column_cosine(a, b)
        for c in (0.001, 7.0, 1e6):
            assert column_cosine(a, b * c) == pytest.approx(base, abs=1e-12)

    def test_zero_norm_yields_zero_with_warning(self):
        with pytest.warns(ZeroNormWarning):
            assert column_cosine(np.zeros((4, 1)), np.ones((4, 1))) == 0.0

    def test_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = rng.standard_normal((6, 1))
            b = rng.standard_normal((6, 1))
            assert -1.0 <= column_cosine(a, b) <= 1.0


class TestTemperature:
    def test_init_and_bounds(self):
        t = Temperature.from_tau(1.0 / 0.07)
        assert t.value == pytest.approx(1.0 / 0.07)
        with pytest.raises(ValueError):
            Temperature.from_tau(0.5)
        with pytest.raises(ValueError):
            Temperature.from_tau(101.0)

    def test_value_is_clamped(self):
        t = Temperature.from_tau(50.0)
        t.log_scale[0, 0] = 10.0  # exp would be ~22000
        assert t.value == TAU_MAX
        t.log_scale[0, 0] = -5.0
        assert t.value == TAU_MIN

    def test_projection_restores_range(self):
        t = Temperature.from_tau(50.0)
        t.log_scale[0, 0] = 10.0
        t.project_()
        assert math.exp(t.log_scale[0, 0]) == pytest.approx(TAU_MAX)


class TestInfoNCE:
    def test_single_pair_loss_is_exactly_zero(self):
        loss, d_sim, _ = infonce(np.array([[0.73]]), Temperature.from_tau(5.0))
        assert loss == 0.0
        np.testing.assert_array_equal(d_sim, np.zeros((1, 1)))

    def test_identity_pattern_two_items(self):
        # diag 1, off-diag 0, tau = 1: each directional term is
        # -log(e / (e + 1)), so the total is twice that
        loss, _, _ = infonce(np.eye(2), Temperature.from_tau(1.0))
        expected = 2.0 * (-math.log(math.e / (math.e + 1.0)))
        assert loss == pytest.approx(expected, abs=1e-5)
        assert loss == pytest.approx(0.62652, abs=1e-5)

    def test_transpose_swaps_directions_and_preserves_total(self):
        rng = np.random.default_rng(2)
        sim = rng.uniform(-1, 1, (5, 5))
        temp = Temperature.from_tau(9.0)
        loss, _, _ = infonce(sim, temp)
        loss_t, _, _ = infonce(sim.T, temp)
        assert loss == pytest.approx(loss_t, abs=1e-12)
        t2v, v2t = reference_loss(sim, temp.value)
        t2v_t, v2t_t = reference_loss(sim.T, temp.value)
        assert t2v == pytest.approx(v2t_t, abs=1e-12)
        assert v2t == pytest.approx(t2v_t, abs=1e-12)

    def test_matches_reference_decomposition(self):
        rng = np.random.default_rng(3)
        sim = rng.uniform(-1, 1, (4, 4))
        temp = Temperature.from_tau(7.0)
        loss, _, _ = infonce(sim, temp)
        t2v, v2t = reference_loss(sim, temp.value)
        assert loss == pytest.approx(t2v + v2t, rel=1e-12)

    def test_row_shift_leaves_query_direction_term_unchanged(self):
        rng = np.random.default_rng(4)
        sim = rng.uniform(-1, 1, (4, 4))
        tau = 3.0
        t2v_base, _ = reference_loss(sim, tau)
        for i in range(4):
            shifted = sim.copy()
            shifted[i, :] += 0.37
            t2v_shifted, _ = reference_loss(shifted, tau)
            assert t2v_shifted == pytest.approx(t2v_base, abs=1e-12)

    def test_loss_vanishes_under_growing_diagonal_dominance(self):
        rng = np.random.default_rng(5)
        sim = rng.uniform(-0.5, 0.5, (4, 4))
        temp = Temperature.from_tau(1.0)
        previous = infonce(sim, temp)[0]
        for c in (1.0, 3.0, 10.0, 30.0):
            boosted = sim + c * np.eye(4)
            loss = infonce(boosted, temp)[0]
            assert loss < previous
            previous = loss
        assert previous < 1e-10

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        for b in (2, 3, 5, 8):
            sim = rng.uniform(-1, 1, (b, b))
            temp = Temperature.from_tau(4.0)
            _, d_sim, d_log = infonce(sim, temp)
            step = 1e-6
            for i in range(b):
                for j in range(b):
                    orig = sim[i, j]
                    sim[i, j] = orig + step
                    hi = infonce(sim, temp)[0]
                    sim[i, j] = orig - step
                    lo = infonce(sim, temp)[0]
                    sim[i, j] = orig
                    numeric = (hi - lo) / (2 * step)
                    assert abs(numeric - d_sim[i, j]) / max(abs(numeric), 1e-3) < 1e-4
            orig = temp.log_scale[0, 0]
            temp.log_scale[0, 0] = orig + step
            hi = infonce(sim, temp)[0]
            temp.log_scale[0, 0] = orig - step
            lo = infonce(sim, temp)[0]
            temp.log_scale[0, 0] = orig
            numeric = (hi - lo) / (2 * step)
            assert abs(numeric - d_log[0, 0]) / max(abs(numeric), 1e-3) < 1e-4

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            infonce(np.zeros((2, 3)), Temperature.from_tau(2.0))
