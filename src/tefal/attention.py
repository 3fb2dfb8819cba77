"""Text-conditioned cross-attention pooling.

One block turns a query text embedding plus a bag of context tokens (video
frame embeddings, or audio patch embeddings) into a single conditioned
embedding:

    q = LN(text) W_q                          (query projection)
    k = LN(context) W_k,  v = LN(context) W_v (shared context normalization)
    pooled = softmax(q k^T / sqrt(d_p)) v     (single-head attention)
    out = LN(pooled W_o)                      (output projection + norm)

The block has no positional encoding, so the pooled output is invariant
under any joint permutation of the context rows.

Every library path runs the tile kernel, :func:`block_forward_tile` and
:func:`block_backward_tile`, or its halves where several blocks pool in one
product; :func:`block_forward`, :func:`block_backward` and :func:`attend`
are the per-candidate reference that the tests compare it against.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .linalg import (
    LAYERNORM_EPS,
    ShapeError,
    as_matrix,
    canonical_sum,
    layernorm_affine_grads,
    layernorm_rows,
    layernorm_rows_backward,
    padded_matmul,
    standardized_backward,
    softmax_rows,
    softmax_rows_backward,
)

__all__ = [
    "XAttnParams",
    "attend",
    "conditioned_embedding",
    "export_attention_weights",
    "block_forward",
    "block_backward",
    "project_queries",
    "project_queries_backward",
    "canonical_rows",
    "project_candidates",
    "attend_tile",
    "pooling_rows",
    "attend_and_pool",
    "block_forward_tile",
    "block_backward_tile",
]


@dataclass
class XAttnParams:
    """Learnable state of one cross-attention block: ``w_q``, ``w_k``,
    ``w_v`` are D x D_p, ``w_o`` is D_p x D_p; the LayerNorm affines are the
    query, context (shared by keys and values) and output sides."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    ln_q_gain: np.ndarray
    ln_q_bias: np.ndarray
    ln_c_gain: np.ndarray
    ln_c_bias: np.ndarray
    ln_o_gain: np.ndarray
    ln_o_bias: np.ndarray

    @property
    def dim(self) -> int:
        return self.w_q.shape[0]

    @property
    def proj_dim(self) -> int:
        return self.w_q.shape[1]

    @classmethod
    def create(cls, rng: np.random.Generator, dim: int, proj_dim: int) -> "XAttnParams":
        """Initialize weights from U(-1/sqrt(fan_in), 1/sqrt(fan_in)),
        LayerNorm gains at 1 and biases at 0."""
        def uniform(rows, cols):
            limit = 1.0 / math.sqrt(rows)
            return rng.uniform(-limit, limit, size=(rows, cols))

        return cls(
            w_q=uniform(dim, proj_dim),
            w_k=uniform(dim, proj_dim),
            w_v=uniform(dim, proj_dim),
            w_o=uniform(proj_dim, proj_dim),
            ln_q_gain=np.ones((1, dim)),
            ln_q_bias=np.zeros((1, dim)),
            ln_c_gain=np.ones((1, dim)),
            ln_c_bias=np.zeros((1, dim)),
            ln_o_gain=np.ones((1, proj_dim)),
            ln_o_bias=np.zeros((1, proj_dim)),
        )

    def named(self) -> dict[str, np.ndarray]:
        """Trainable parameters by name, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _check_rows(params: XAttnParams, rows: np.ndarray, name: str) -> np.ndarray:
    rows = as_matrix(rows, name)
    if rows.shape[1] != params.dim:
        raise ShapeError(f"{name} has {rows.shape[1]} columns, block expects {params.dim}")
    return rows


def attend(q: np.ndarray, k: np.ndarray, v: np.ndarray):
    """``(pooled, weights)``: scaled dot-product attention of query rows
    over one shared context, the pooling sums sorted
    (:func:`tefal.linalg.canonical_sum`)."""
    q = as_matrix(q, "q")
    k = as_matrix(k, "k")
    v = as_matrix(v, "v")
    if k.shape != v.shape:
        raise ShapeError(f"k has shape {k.shape}, v has shape {v.shape}")
    if q.shape[1] != k.shape[1]:
        raise ShapeError(f"q has {q.shape[1]} columns, k has {k.shape[1]}")
    weights = softmax_rows(np.einsum("bd,nd->bn", q, k) / math.sqrt(q.shape[1]))
    pooled = canonical_sum(weights[:, :, None] * v[None, :, :], axis=1)
    return pooled, weights


def _single_candidate_tile(params: XAttnParams, text: np.ndarray,
                           context: np.ndarray):
    """:func:`block_forward_tile` on a dense tile of one candidate."""
    context = _check_rows(params, context, "context")
    return block_forward_tile(params, project_queries(params, text)[:, None],
                              context.T[:, :, None])


def conditioned_embedding(params: XAttnParams, text: np.ndarray,
                          context: np.ndarray) -> np.ndarray:
    """The block's output, one row per text row."""
    out, _ = _single_candidate_tile(params, text, context)
    return out[:, 0, :].T


def export_attention_weights(params: XAttnParams, text: np.ndarray,
                             context: np.ndarray) -> np.ndarray:
    """The (T, n) softmax weights the text rows place over the context rows."""
    _, cache = _single_candidate_tile(params, text, context)
    return cache.caller_weights()[:, 0, :].T


@dataclass
class BlockCache:
    """Forward intermediates needed by :func:`block_backward`."""
    text: np.ndarray
    context: np.ndarray
    t_n: np.ndarray
    c_n: np.ndarray
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    weights: np.ndarray
    pooled: np.ndarray
    proj: np.ndarray


def block_forward(params: XAttnParams, text: np.ndarray, context: np.ndarray):
    """``(out, cache)``, ``out`` one row per text row."""
    text = _check_rows(params, text, "text")
    context = _check_rows(params, context, "context")
    t_n = layernorm_rows(text, params.ln_q_gain, params.ln_q_bias)
    c_n = layernorm_rows(context, params.ln_c_gain, params.ln_c_bias)
    q = t_n @ params.w_q
    k, v = (padded_matmul(w.T, c_n.T)[:, :len(c_n)].T for w in (params.w_k, params.w_v))
    pooled, weights = attend(q, k, v)
    proj = pooled @ params.w_o
    out = layernorm_rows(proj, params.ln_o_gain, params.ln_o_bias)
    cache = BlockCache(text, context, t_n, c_n, q, k, v, weights, pooled, proj)
    return out, cache


def block_backward(params: XAttnParams, cache: BlockCache, d_out: np.ndarray):
    """``(grads, d_text, d_context)``, ``grads`` keyed like
    :meth:`XAttnParams.named`."""
    scale = 1.0 / math.sqrt(params.proj_dim)

    d_proj, d_go, d_bo = layernorm_rows_backward(d_out, cache.proj, params.ln_o_gain)
    d_wo = cache.pooled.T @ d_proj
    d_pooled = d_proj @ params.w_o.T

    d_v = cache.weights.T @ d_pooled
    d_weights = d_pooled @ cache.v.T
    d_logits = softmax_rows_backward(d_weights, cache.weights)
    d_q = (d_logits @ cache.k) * scale
    d_k = (d_logits.T @ cache.q) * scale

    d_wk = cache.c_n.T @ d_k
    d_wv = cache.c_n.T @ d_v
    d_cn = d_k @ params.w_k.T + d_v @ params.w_v.T
    d_context, d_gc, d_bc = layernorm_rows_backward(d_cn, cache.context, params.ln_c_gain)

    d_wq = cache.t_n.T @ d_q
    d_tn = d_q @ params.w_q.T
    d_text, d_gq, d_bq = layernorm_rows_backward(d_tn, cache.text, params.ln_q_gain)

    grads = {
        "w_q": d_wq, "w_k": d_wk, "w_v": d_wv, "w_o": d_wo,
        "ln_q_gain": d_gq, "ln_q_bias": d_bq,
        "ln_c_gain": d_gc, "ln_c_bias": d_bc,
        "ln_o_gain": d_go, "ln_o_bias": d_bo,
    }
    return grads, d_text, d_context


# ---------------------------------------------------------------------------
# the scoring tile: T query projections against C candidate contexts
# ---------------------------------------------------------------------------

def project_queries(params: XAttnParams, texts: np.ndarray, keep: bool = False):
    """``LN_q(texts) W_q`` as (D_p, T) columns, one padded product
    (:func:`tefal.linalg.padded_matmul`), so that a column does not depend
    on its position, and ``LN_q`` runs on C-contiguous rows, so that a
    row's sums do not depend on the layout of ``texts``.  With ``keep``, the
    pair ``(q, ln)``, ``ln`` the ``(t_n, xhat)`` of ``LN_q`` that
    :func:`project_queries_backward` takes."""
    texts = np.ascontiguousarray(_check_rows(params, texts, "text"))
    ln = layernorm_rows(texts, params.ln_q_gain, params.ln_q_bias, keep=keep)
    t_n = ln[0] if keep else ln
    q = np.ascontiguousarray(padded_matmul(params.w_q.T, t_n.T)[:, :len(texts)])
    return (q, ln) if keep else q


def project_queries_backward(params: XAttnParams, ln, d_q: np.ndarray
                             ) -> dict[str, np.ndarray]:
    """The ``w_q`` and ``LN_q`` gradients of :func:`project_queries`, from
    the ``ln`` it kept; the texts are data, so no text gradient is formed."""
    t_n, xhat = ln
    d_gq, d_bq = layernorm_affine_grads((params.w_q @ d_q).T, xhat)
    return {"w_q": t_n.T @ d_q.T, "ln_q_gain": d_gq, "ln_q_bias": d_bq}


def canonical_order(rows: np.ndarray) -> np.ndarray:
    """Entry (i, c) indexes candidate ``c``'s ``i``-th row in the order of
    :func:`canonical_rows`, in the flattened (n, C) axes."""
    first = rows[0]
    order = np.argsort(first, axis=0, kind="stable")
    sorted_first = np.take_along_axis(first, order, axis=0)
    if not np.all(sorted_first[1:] > sorted_first[:-1]):
        # a tie (or NaN) in feature 0: the later features decide
        order = np.lexsort(rows[::-1], axis=0)
    return order * rows.shape[2] + np.arange(rows.shape[2])


def canonical_rows(rows: np.ndarray) -> np.ndarray:
    """Each candidate's rows of a pair-last (m, n, C) stack, lexsorted by
    their m features.  Rows that tie in every feature are equal, so the
    result depends only on each candidate's multiset of rows, and
    fixed-order sums over it are bit-exact under any row permutation."""
    return np.take(np.reshape(rows, (len(rows), -1)), canonical_order(rows), axis=1)


@dataclass
class Candidates:
    """:func:`project_candidates` of C candidates; ``xhat`` only with ``keep``."""
    order: np.ndarray         # (n, C), canonical row i of candidate c
    contexts: np.ndarray      # (D, n, C)
    c_n: np.ndarray           # (D, n, C), LN_c(contexts)
    xhat: np.ndarray | None   # (D, n, C), the standardized contexts
    kv: np.ndarray            # (C, n, 3 D_p), K || M || M diag(g_o), rows in canonical order
    gram: np.ndarray          # (C, n, n), M M^T
    w_kv: np.ndarray          # (D, 2 D_p), W_k || W_v W_o C


@dataclass
class TileCache(Candidates):
    """Forward intermediates of :func:`block_forward_tile`, one (., T) item
    per candidate, context rows in canonical order."""
    q: np.ndarray             # (1, D_p, T) shared, or (C, D_p, T)
    weights: np.ndarray       # (C, n, T)
    inv: np.ndarray           # (C, T), LN_o's reciprocal standard deviation

    def caller_weights(self) -> np.ndarray:
        """The (n, C, T) attention weights in the caller's row order."""
        c, n, t = self.weights.shape
        out = np.empty((n * c, t))
        out[self.order.ravel()] = self.weights.transpose(1, 0, 2).reshape(n * c, t)
        return out.reshape(n, c, t)


def project_candidates(params: XAttnParams, contexts: np.ndarray,
                       keep: bool = False) -> Candidates:
    """The query-independent half of :func:`block_forward_tile` for (D, n, C)
    ``contexts``: ``LN_c`` and its canonical row order, then
    K || M || M diag(g_o) and the Gram M M^T, for M = rows W_v W_o C,
    ``g_o`` = ``ln_o_gain`` and C = I - 11^T / D_p the centring matrix.
    ``pooled W_o`` is linear in the weights w, so M^T w is ``LN_o``'s
    centred input and w^T (M M^T) w / D_p its variance (:func:`attend_tile`)."""
    p = params.proj_dim
    contexts = np.ascontiguousarray(contexts, dtype=np.float64)
    if contexts.ndim != 3 or contexts.shape[0] != params.dim:
        raise ShapeError(f"contexts must be ({params.dim}, n, C), got {contexts.shape}")
    c_n = layernorm_rows(contexts, params.ln_c_gain, params.ln_c_bias, axis=0, keep=keep)
    c_n, xhat = c_n if keep else (c_n, None)
    order = canonical_order(c_n)
    rows = np.take(c_n.reshape(params.dim, -1).T, order.T, axis=0)    # (C, n, D)
    vo = params.w_v @ params.w_o
    w_kv = np.concatenate([params.w_k, vo - vo.sum(axis=1, keepdims=True) / p], axis=1)
    kv = rows @ np.concatenate([w_kv, w_kv[:, p:] * params.ln_o_gain], axis=1)
    m = kv[:, :, p:2 * p]
    return Candidates(order, contexts, c_n, xhat, kv, m @ m.transpose(0, 2, 1), w_kv)


def attend_tile(params: XAttnParams, q: np.ndarray, cands: Candidates,
                cols: slice = slice(None), keep: bool = False):
    """``(e, scale, cache)`` of the query side of :func:`block_forward_tile`
    for ``cols`` of ``cands``, ``q`` (D_p, 1, T) or (D_p, C, T) for C
    ``cols``: the (C, n, T_pad) softmax exponentials e, as wide as ``q``
    (padded columns included), and the (C, 1, T_pad) scale whose product
    with them is the attention weights, each column scaled by its pair's
    ``LN_o`` reciprocal standard deviation; ``cache`` only with ``keep``,
    which needs all of ``cands``."""
    p, kv = params.proj_dim, cands.kv[cols]
    q = np.ascontiguousarray(q, dtype=np.float64)
    if q.ndim != 3 or q.shape[0] != p or q.shape[1] not in (1, len(kv)):
        raise ShapeError(f"q must be ({p}, 1, T) or ({p}, {len(kv)}, T), got {q.shape}")
    items = q.transpose(1, 0, 2)                                      # (1 or C, D_p, T)
    logits = padded_matmul(kv[:, :, :p], items)                       # (C, n, T_pad)
    logits *= 1.0 / math.sqrt(p)
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits, out=logits)
    # w = e r, so LN_o's variance is r^2 sum_n e (G e) / D_p, G the Gram
    r = 1.0 / e.sum(axis=1, keepdims=True)
    gram_e = padded_matmul(cands.gram[cols], e)
    var = np.multiply(gram_e, e, out=gram_e).sum(axis=1) * r[:, 0] ** 2
    inv = 1.0 / np.sqrt(var / p + LAYERNORM_EPS)
    t = q.shape[-1]
    cache = (TileCache(**vars(cands), q=items, weights=(e * r)[:, :, :t], inv=inv[:, :t])
             if keep else None)
    return e, r * inv[:, None], cache


def pooling_rows(blocks) -> np.ndarray:
    """The left operand of :func:`attend_and_pool` for the ``(params,
    cands)`` pairs of the blocks whose outputs are summed: per candidate,
    the rows M diag(g_o) of each block's :func:`project_candidates`, then
    one row of the blocks' summed ``LN_o`` biases, as (C, D_p, K) items, K
    the blocks' rows plus one."""
    p = blocks[0][0].proj_dim
    rows = [cands.kv[:, :, 2 * p:] for _, cands in blocks]
    bias = sum(params.ln_o_bias for params, _ in blocks)[None].repeat(len(rows[0]), axis=0)
    return np.concatenate([*rows, bias], axis=1).transpose(0, 2, 1)


def attend_and_pool(blocks, rows: np.ndarray, cols: slice = slice(None),
                    keep: bool = False):
    """``(out, caches)``: the (D_p, C, T_pad) sum of the outputs of the
    ``(params, q, cands)`` ``blocks`` for ``cols`` of their
    :func:`pooling_rows` ``rows``, in the same order, and each block's
    :func:`attend_tile` cache: one padded product of ``rows`` against the
    blocks' scaled weights, stacked over a last row of ones for the bias."""
    stacked, caches, start = None, [], 0
    for params, q, cands in blocks:
        e, scale, cache = attend_tile(params, q, cands, cols, keep)
        if stacked is None:
            stacked = np.empty((len(e), rows.shape[2], e.shape[2]))
            stacked[:, -1] = 1.0
        np.multiply(e, scale, out=stacked[:, start:start + e.shape[1]])
        start += e.shape[1]
        caches.append(cache)
    out = np.empty((rows.shape[1], len(stacked), stacked.shape[2]))
    padded_matmul(rows[cols], stacked, out=out.transpose(1, 0, 2))
    return out, caches


def block_forward_tile(params: XAttnParams, q: np.ndarray, contexts: np.ndarray,
                       keep: bool = True):
    """``(out, cache)``: the block for every (query, candidate) pair of a
    tile, pair-last: the (D_p, C, T) outputs and, with ``keep``, the
    :class:`TileCache` that :func:`block_backward_tile` reverses (else
    ``None``).  ``contexts`` is (D, n, C); ``q`` holds
    :func:`project_queries` columns, (D_p, 1, T) shared by every candidate
    (a dense tile) or (D_p, C, T), each candidate's own (a grouped tile).

    Tile invariance: a pair's output depends only on its own query and
    candidate, so no tiling, candidate block, subset or worker count
    changes a score.  Elementwise operations are exact.  Each candidate's
    rows go in canonical order (:func:`canonical_rows`), so any permutation
    of them gives the same bits, and its K || M || M diag(g_o) and Gram are
    fixed-shape items of a stacked ``matmul``, which numpy hands to BLAS
    one at a time.  The logits, the variance's Gram product and the pooling
    are :func:`tefal.linalg.padded_matmul` products, one column per query.
    The sums over the n context rows run over a (C, n, T_pad) array whose
    trailing axis is at least ``PAD`` wide, so numpy adds each column's
    terms in row order; the ``LN_c`` sums go through
    :func:`tefal.linalg.sum_leading`.  Fusion and cosine keep the same
    rules, so a score, too, depends only on its pair.
    """
    cands = project_candidates(params, contexts, keep=keep)
    out, (cache,) = attend_and_pool([(params, q, cands)], pooling_rows([(params, cands)]),
                                    keep=keep)
    return out[:, :, :q.shape[-1]], cache


def block_backward_tile(params: XAttnParams, cache: TileCache, d_out: np.ndarray,
                        context_grad: bool = True):
    """Reverse :func:`block_forward_tile` over all C x T pairs at once.

    Returns ``(grads, d_q, d_contexts)``: the candidate- and output-side
    entries of :meth:`XAttnParams.named`, summed over every pair; each
    pair's (D_p, C, T) query gradient, for the caller to sum per text and
    pass to :func:`project_queries_backward`; and the (D, n, C) context
    gradient in the caller's row order, or ``None`` with
    ``context_grad=False``, which leaves ``grads`` bit-identical.  The
    backward pass need only be deterministic, not tile-invariant, so its
    per-pair products are batched matrix products.
    """
    d, p = params.dim, params.proj_dim
    w, q, m = cache.weights, cache.q, cache.kv[:, :, p:2 * p]
    # LN_o's standardized input u inv, u = M^T w; u is centred, so d_u is
    # too, and d(W_v W_o) carries the centring C
    xhat = np.ascontiguousarray((m.transpose(0, 2, 1) @ w).transpose(1, 0, 2)) * cache.inv
    d_u, d_go, d_bo = standardized_backward(d_out, xhat, cache.inv, params.ln_o_gain, axis=0)
    d_u = d_u.transpose(1, 0, 2)                                        # (C, D_p, T)
    d_w = m @ d_u
    d_logits = w * (d_w - (d_w * w).sum(axis=1, keepdims=True))
    d_logits *= 1.0 / math.sqrt(p)
    d_q = (cache.kv[:, :, :p].transpose(0, 2, 1) @ d_logits).transpose(1, 0, 2)
    # d(K || M), mapped from canonical back to the caller's row order
    d_kv = np.empty((2 * p, cache.order.size))
    d_kv[:, cache.order] = np.concatenate([
        q @ d_logits.transpose(0, 2, 1), d_u @ w.transpose(0, 2, 1)],
        axis=1).transpose(1, 2, 0)

    d_wkv = cache.c_n.reshape(d, -1) @ d_kv.T
    d_cn = (cache.w_kv @ d_kv).reshape(cache.contexts.shape)
    if context_grad:
        d_contexts, d_gc, d_bc = layernorm_rows_backward(d_cn, cache.contexts,
                                                         params.ln_c_gain, axis=0)
    else:
        d_contexts = None
        d_gc, d_bc = layernorm_affine_grads(d_cn, cache.xhat, axis=0)
    d_vo = d_wkv[:, p:]
    grads = {    # in the order of XAttnParams.named()
        "w_k": d_wkv[:, :p], "w_v": d_vo @ params.w_o.T, "w_o": params.w_v.T @ d_vo,
        "ln_c_gain": d_gc, "ln_c_bias": d_bc,
        "ln_o_gain": d_go, "ln_o_bias": d_bo,
    }
    return grads, d_q, d_contexts
