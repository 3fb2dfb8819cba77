"""Combining the text-conditioned video and audio embeddings.

The engine's default is plain addition; four alternatives are kept for
ablation:

    addition   fused = E_v|t + E_a|t
    late       fused = E_v|t + mean(audio tokens) W   (audio unconditioned)
    concat_fc  fused = FC([E_v|t, E_a|t])
    xattn      fused = XAttn(text, [E_v|t, E_a|t])    (fusion's own block)
    stacking   fused = XAttn(text, [frames; audio summary row])
               (reuses the video block over an F+1 row context)

All variants produce one column of width D_p per query, pair-last like
their inputs, with no re-normalization: the cosine absorbs scale.  This
module runs the post-hoc kinds, late, concat_fc and xattn
(:func:`fuse_forward`, :func:`fuse_backward`); :func:`tefal.model.score_tile`
scores addition and stacking itself.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .attention import (XAttnParams, block_backward_tile, block_forward_tile,
                        project_queries, project_queries_backward)
from .linalg import ShapeError, padded_matmul

__all__ = ["FusionKind", "FusionParams", "FusionError", "fuse_forward", "fuse_backward"]


class FusionError(ValueError):
    """An unknown fusion kind, or addition or stacking where a post-hoc kind
    is needed."""


class FusionKind(enum.Enum):
    ADDITION = "addition"
    LATE = "late"
    CONCAT_FC = "concat_fc"
    XATTN = "xattn"
    STACKING = "stacking"

    @classmethod
    def parse(cls, name: str) -> "FusionKind":
        try:
            return cls(name)
        except ValueError:
            valid = "|".join(k.value for k in cls)
            raise FusionError(f"unknown fusion kind {name!r}; expected {valid}") from None


@dataclass
class FusionParams:
    """Extra learnable state of a fusion kind: ``concat_w``/``concat_b``
    (2*D_p -> D_p), ``late_w`` (D -> D_p) or the ``xattn`` block (D = D_p)."""

    kind: FusionKind
    concat_w: np.ndarray | None = None
    concat_b: np.ndarray | None = None
    late_w: np.ndarray | None = None
    xattn: XAttnParams | None = None

    @classmethod
    def create(cls, rng: np.random.Generator, kind: FusionKind,
               dim: int, proj_dim: int) -> "FusionParams":
        if kind == FusionKind.CONCAT_FC:
            limit = 1.0 / math.sqrt(2 * proj_dim)
            return cls(kind,
                       concat_w=rng.uniform(-limit, limit, size=(2 * proj_dim, proj_dim)),
                       concat_b=np.zeros((1, proj_dim)))
        if kind == FusionKind.LATE:
            limit = 1.0 / math.sqrt(dim)
            return cls(kind, late_w=rng.uniform(-limit, limit, size=(dim, proj_dim)))
        if kind == FusionKind.XATTN:
            return cls(kind, xattn=XAttnParams.create(rng, proj_dim, proj_dim))
        return cls(kind)

    def named(self) -> dict[str, np.ndarray]:
        if self.kind == FusionKind.CONCAT_FC:
            return {"concat_w": self.concat_w, "concat_b": self.concat_b}
        if self.kind == FusionKind.LATE:
            return {"late_w": self.late_w}
        if self.kind == FusionKind.XATTN:
            return {f"xattn.{k}": v for k, v in self.xattn.named().items()}
        return {}


def _pair_product(weight: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``weight^T x`` for pair-last ``x``, one padded product over its pairs
    (:func:`tefal.linalg.padded_matmul`)."""
    pairs = x.reshape(len(x), -1)
    out = padded_matmul(weight.T, pairs)[:, :pairs.shape[1]]
    return out.reshape((-1,) + x.shape[1:])


def fuse_forward(params: FusionParams, video, audio, texts=None, keep: bool = False):
    """``(fused, saved)`` of a post-hoc fusion kind; addition and stacking
    raise :class:`FusionError`, and a feature count that late's or
    concat_fc's weight does not take a ``ShapeError``.  ``video`` is E_v|t
    and ``audio`` E_a|t, or for late the raw audio-token mean; only xattn
    reads ``texts``, the query text columns, which its own block projects.
    Inputs are pair-last, one column per pair; late's ``audio`` and the
    ``texts`` broadcast against ``video``.  ``saved``, what
    :func:`fuse_backward` reverses, is late's token mean, concat_fc's
    concatenation or xattn's tile cache, ``LN_q`` and text shape (``None``
    without ``keep``).  xattn scores each pair as one candidate with one
    query (:func:`tefal.attention.block_forward_tile`).
    """
    kind = params.kind
    if kind == FusionKind.LATE:
        summary = np.ascontiguousarray(audio, dtype=np.float64)
        if summary.shape[0] != params.late_w.shape[0]:
            raise ShapeError(f"audio summary has {summary.shape[0]} features, "
                             f"projection expects {params.late_w.shape[0]}")
        fused = video + _pair_product(params.late_w, summary)
        return fused, np.broadcast_to(summary, summary.shape[:1] + fused.shape[1:])

    if kind == FusionKind.CONCAT_FC:
        concat = np.concatenate([video, audio], axis=0)
        if concat.shape[0] != params.concat_w.shape[0]:
            raise ShapeError(f"concatenation has {concat.shape[0]} features, "
                             f"weight expects {params.concat_w.shape[0]}")
        fused = (_pair_product(params.concat_w, concat)
                 + params.concat_b.reshape((-1,) + (1,) * (concat.ndim - 1)))
        return fused, concat

    if kind == FusionKind.XATTN:
        p = video.shape[0]
        contexts = np.stack([x.reshape(p, -1) for x in (video, audio)], axis=1)
        q = project_queries(params.xattn, texts.reshape(len(texts), -1).T, keep)
        q, ln = q if keep else (q, None)
        q = np.broadcast_to(q.reshape((p,) + texts.shape[1:]), video.shape).reshape(p, -1, 1)
        fused, tile = block_forward_tile(params.xattn, q, contexts, keep)
        return fused[:, :, 0].reshape(video.shape), (tile, ln, texts.shape) if keep else None

    raise FusionError(f"{kind.value} fusion is not a post-hoc combiner")


def fuse_backward(params: FusionParams, saved, d_fused: np.ndarray):
    """``(own_grads, d_video, d_audio)`` of a post-hoc fusion kind,
    pair-last like ``d_fused``, from what :func:`fuse_forward` ``saved``;
    late's ``d_audio`` is ``None``, and xattn's ``own_grads`` include its
    query projection's (:func:`tefal.attention.project_queries_backward`)."""
    kind = params.kind
    pairs = tuple(range(1, d_fused.ndim))
    if kind == FusionKind.LATE:
        return {"late_w": np.tensordot(saved, d_fused, (pairs, pairs))}, d_fused, None

    if kind == FusionKind.CONCAT_FC:
        d_w = np.tensordot(saved, d_fused, (pairs, pairs))
        d_b = d_fused.sum(axis=pairs)[None, :]
        d_concat = np.einsum("kp,p...->k...", params.concat_w, d_fused)
        half = params.concat_w.shape[1]
        return {"concat_w": d_w, "concat_b": d_b}, d_concat[:half], d_concat[half:]

    if kind == FusionKind.XATTN:
        (tile, ln, text_shape), shape = saved, d_fused.shape
        grads, d_q, d_contexts = block_backward_tile(
            params.xattn, tile, d_fused.reshape(shape[0], -1, 1))
        spread = tuple(i for i in pairs if text_shape[i] == 1 != shape[i])
        d_q = d_q.reshape(shape).sum(axis=spread).reshape(shape[0], -1)
        grads.update(project_queries_backward(params.xattn, ln, d_q))
        return ({f"xattn.{k}": v for k, v in grads.items()},
                d_contexts[:, 0].reshape(shape), d_contexts[:, 1].reshape(shape))

    raise FusionError(f"{kind.value} fusion is not a post-hoc combiner")
