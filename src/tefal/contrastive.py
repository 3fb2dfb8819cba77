"""Cosine similarity and the symmetric InfoNCE objective.

The loss treats the diagonal of a B x B similarity matrix as the positive
pairs and everything else in the batch as negatives, scaled by a learnable
temperature, and is applied in both retrieval directions:

    L = L_t2v + L_v2t
    L_t2v = -(1/B) sum_i log softmax_j(sim[i, :] * tau)[i]
    L_v2t = -(1/B) sum_i log softmax_j(sim[:, i] * tau)[i]
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import ShapeError, require_real, sum_leading

TAU_MIN = 1.0
TAU_MAX = 100.0
TAU_INIT = 1.0 / 0.07


class ZeroNormWarning(UserWarning):
    """A zero-norm vector entered a cosine similarity; the score is 0."""


@dataclass
class Temperature:
    """Learnable softmax scale tau = exp(log_scale), clamped into
    [TAU_MIN, TAU_MAX]; training projects ``log_scale`` into range after
    each step, so the clamp stays inactive and the loss smooth."""

    log_scale: np.ndarray  # shape (1, 1)

    @classmethod
    def from_tau(cls, tau: float = TAU_INIT) -> "Temperature":
        """The temperature at ``tau``: a number by
        :func:`tefal.linalg.require_real`, in [TAU_MIN, TAU_MAX]."""
        require_real(tau, "tau")
        if not TAU_MIN <= tau <= TAU_MAX:
            raise ValueError(f"tau must lie in [{TAU_MIN}, {TAU_MAX}], got {tau}")
        return cls(log_scale=np.array([[math.log(tau)]], dtype=np.float64))

    @property
    def value(self) -> float:
        return float(min(max(math.exp(self.log_scale[0, 0]), TAU_MIN), TAU_MAX))

    def project_(self) -> None:
        """Clamp log_scale in place so tau stays inside [TAU_MIN, TAU_MAX]."""
        self.log_scale[0, 0] = min(max(self.log_scale[0, 0], math.log(TAU_MIN)),
                                   math.log(TAU_MAX))


def cosine_rows(u: np.ndarray, f: np.ndarray):
    """``(scores, cache)``: cosine between matching columns of pair-last
    ``u`` and ``f``, ``u`` broadcasting; a zero-norm column scores 0.  Tile
    invariance: :func:`tefal.attention.block_forward_tile`."""
    u = np.asarray(u, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    if u.ndim != f.ndim or u.shape[0] != f.shape[0] or any(
            a not in (1, b) for a, b in zip(u.shape, f.shape)):
        raise ShapeError(f"column blocks have shapes {u.shape} and {f.shape}")
    nu = np.sqrt(sum_leading(u, u))
    nf = np.sqrt(sum_leading(f, f))
    # exact-zero test only: non-finite columns must propagate, not be masked
    zero = (nu == 0.0) | (nf == 0.0)
    if np.any(zero):
        warnings.warn("zero-norm vector in cosine similarity", ZeroNormWarning,
                      stacklevel=2)
    denom = np.where(zero, 1.0, nu * nf)
    scores = np.where(zero, 0.0, sum_leading(u, f) / denom)
    return scores, (u, f, nu, nf, zero, scores)


def cosine_rows_backward(d_scores: np.ndarray, cache) -> np.ndarray:
    """Gradient of the scores w.r.t. ``f`` only (``u`` is query data);
    zero-norm columns get zero gradient."""
    u, f, nu, nf, zero, scores = cache
    denom = np.where(zero, 1.0, nu * nf)
    nf_sq = np.where(zero, 1.0, nf * nf)
    grad = u / denom - f * (scores / nf_sq)
    return np.where(zero, 0.0, grad) * d_scores


def _log_softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))


def infonce(sim: np.ndarray, temperature: Temperature):
    """``(loss, d_sim, d_log_scale)`` of the symmetric InfoNCE loss over a
    square similarity matrix; with B = 1 the loss is exactly zero."""
    sim = np.asarray(sim, dtype=np.float64)
    if sim.ndim != 2 or sim.shape[0] != sim.shape[1]:
        raise ShapeError(f"similarity matrix must be square, got {sim.shape}")
    b = sim.shape[0]
    tau = temperature.value
    z = sim * tau

    log_p = _log_softmax_rows(z)          # text -> video, over rows
    log_q = _log_softmax_rows(z.T).T      # video -> text, over columns
    diag = np.arange(b)
    loss = -(log_p[diag, diag].sum() + log_q[diag, diag].sum()) / b

    p = np.exp(log_p)
    q = np.exp(log_q)
    eye = np.eye(b)
    d_z = ((p - eye) + (q - eye)) / b
    d_sim = d_z * tau
    # z = sim * tau and tau = exp(log_scale), so dL/dlog_scale = tau * sum(dL/dz * sim).
    # The bound constraint is owned by Temperature.project_ after each step,
    # so the gradient here is the smooth one.
    d_log_scale = np.array([[tau * float(np.sum(d_z * sim))]])
    return float(loss), d_sim, d_log_scale
