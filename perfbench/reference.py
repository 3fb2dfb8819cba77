"""Plain reference computations that the benchmark checks tefal's outputs against.

They follow the formulas in the docstrings of ``tefal.attention`` and
``tefal.contrastive`` with ordinary numpy reductions, and share no code
with the program.  Only addition fusion over both modalities is covered,
which is what every benchmark checkpoint uses.
"""

import math

import numpy as np

LAYERNORM_EPS = 1e-5


def _layernorm(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LAYERNORM_EPS) * gain + bias


def block(params, texts, contexts):
    """One cross-attention block; text row ``m`` attends over ``contexts[m]``.

        q = LN(text) W_q
        k = LN(context) W_k,  v = LN(context) W_v
        pooled = softmax(q k^T / sqrt(d_p)) v
        out = LN(pooled W_o)
    """
    q = _layernorm(texts, params.ln_q_gain, params.ln_q_bias) @ params.w_q
    c = _layernorm(contexts, params.ln_c_gain, params.ln_c_bias)
    k = c @ params.w_k
    v = c @ params.w_v
    logits = np.einsum("md,mnd->mn", q, k) / math.sqrt(q.shape[1])
    weights = np.exp(logits - logits.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    pooled = np.einsum("mn,mnd->md", weights, v)
    return _layernorm(pooled @ params.w_o, params.ln_o_gain, params.ln_o_bias)


def pair_scores(model, corpus, queries, candidates) -> np.ndarray:
    """Cosine score of each (query text, candidate item) pair, addition fusion."""
    if model.modality != "both" or model.fusion.kind.value != "addition":
        raise ValueError("the reference covers addition fusion over both modalities")
    queries = np.asarray(queries, dtype=np.intp)
    candidates = np.asarray(candidates, dtype=np.intp)
    texts = corpus.texts[queries]
    fused = (block(model.video, texts, corpus.frames[candidates])
             + block(model.audio, texts, corpus.audio[candidates]))
    return np.sum(texts * fused, axis=1) / (
        np.linalg.norm(texts, axis=1) * np.linalg.norm(fused, axis=1))


def infonce(sim, tau: float) -> float:
    """L = -(1/B) sum_i [log softmax_j(tau sim[i, :])_i + log softmax_j(tau sim[:, i])_i]."""
    z = tau * np.asarray(sim)
    rows = z - np.log(np.sum(np.exp(z), axis=1, keepdims=True))
    cols = z - np.log(np.sum(np.exp(z), axis=0, keepdims=True))
    return float(-(np.trace(rows) + np.trace(cols)) / z.shape[0])


def stage1_scores(corpus, query: int, direction: str) -> np.ndarray:
    """Stage-1 cosine between texts and mean-pooled frames, for one query.

    For ``t2v`` the query is text ``query`` against every item's pooled
    frames; for ``v2t`` it is item ``query``'s pooled frames against every
    text.
    """
    pooled = corpus.frames.mean(axis=1)
    texts = corpus.texts
    if direction == "t2v":
        a, b = texts[query][None, :], pooled
    else:
        a, b = pooled[query][None, :], texts
    return (b @ a[0]) / (np.linalg.norm(a) * np.linalg.norm(b, axis=1))


def rank_bounds(scores, truth: int, eps: float) -> tuple[int, int]:
    """Lowest and highest 1-based rank of ``truth`` under descending score
    when each score may be off by ``eps`` (so near-ties may go either way)."""
    s = scores[truth]
    if not np.isfinite(s):
        return 0, -1
    others = np.ones(len(scores), dtype=bool)
    others[truth] = False
    lo = 1 + int(np.sum((scores > s + eps) & others))
    hi = 1 + int(np.sum((scores > s - eps) & others))
    return lo, hi


def query_rank_bounds(model, corpus, query: int, direction: str,
                      k: int | None, eps: float) -> tuple[int, int] | None:
    """Bounds on the rank ``evaluate`` must give ``query``; None when the
    shortlist is ambiguous within ``eps`` and no bound holds."""
    n = len(corpus)
    everyone = np.arange(n)
    ids = np.asarray(corpus.ids)

    def model_scores(items):
        if direction == "t2v":
            return pair_scores(model, corpus, np.full(len(items), query), items)
        return pair_scores(model, corpus, items, np.full(len(items), query))

    if k is None or k >= n:
        return rank_bounds(model_scores(everyone), query, eps)

    s1 = stage1_scores(corpus, query, direction)
    order = np.lexsort((ids, -s1))
    if abs(s1[order[k - 1]] - s1[order[k]]) <= eps:
        return None
    shortlist = order[:k]
    if query not in shortlist:
        return rank_bounds(s1, query, eps)
    truth = int(np.nonzero(shortlist == query)[0][0])
    return rank_bounds(model_scores(shortlist), truth, eps)
