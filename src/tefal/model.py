"""The full retrieval model: two attention blocks, fusion, and similarity.

Every candidate embedding is conditioned on the query text, so a similarity
matrix over T queries and V candidates costs one block evaluation per
(query, candidate) pair.  Scoring computes each block's query projection
``LN_q(text) W_q`` once per text, then walks the candidates in tiles of
about ``TILE_PAIRS`` pairs: :func:`score_tile` runs
:func:`tefal.attention.block_forward_tile` on a tile, fuses the pairs'
embeddings and takes their cosine with the query texts, every array
pair-last (features, C, T).  A tile is dense (every candidate against the
same queries, as in exhaustive scoring) or grouped (each candidate against
its own, as in the stage-2 re-rank); both run the same kernel.  The xattn
fusion block runs on it too, as a grouped tile of the pairs.  Every
feature or row sum runs in one fixed order for any tile shape, so any
tiling (exhaustive scoring, the stage-2 re-rank, a query or candidate
subset, a single pair, any worker count) gives the same bits for the same
pair.

Training scores its B x B batch as one tile through the same
:func:`score_tile` path, keeping the forward intermediates
(``keep=True``); :func:`batch_loss_and_grads` then reverses cosine and
fusion on the B^2 pairs and each block once with
:func:`tefal.attention.block_backward_tile`, and each query projection
once per text with :func:`tefal.attention.project_queries_backward`.
:func:`candidate_scores`, one :func:`tefal.attention.block_forward` call
per block and candidate, is the forward-only per-candidate reference that
the tests compare :func:`score_tile` against; no library path calls it.

``modality`` selects what the fused embedding is built from: ``"both"``
(the configured fusion of the two conditioned embeddings), ``"video"``
(conditioned video only), or ``"audio"`` (conditioned audio only); the two
single-modality settings are the ablation models.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .attention import (
    XAttnParams,
    block_backward_tile,
    block_forward,
    block_forward_tile,
    canonical_rows,
    project_queries,
    project_queries_backward,
)
from .contrastive import (
    TAU_INIT,
    Temperature,
    cosine_rows,
    cosine_rows_backward,
    infonce,
)
from .corpus import Corpus
from .fusion import FusionKind, FusionParams, fuse_backward, fuse_forward
from .linalg import ShapeError, sum_leading

__all__ = ["RetrievalModel", "create_model", "named_parameters",
           "candidate_scores", "Queries", "query_rows", "score_tile",
           "map_tasks", "similarity_matrix", "batch_loss_and_grads"]

MODALITIES = ("both", "video", "audio")

# (query, candidate) pairs per scoring tile: a tile is max(1, TILE_PAIRS // T)
# candidates wide
TILE_PAIRS = 2048


@dataclass
class RetrievalModel:
    video: XAttnParams
    audio: XAttnParams
    fusion: FusionParams
    temperature: Temperature
    modality: str = "both"

    @property
    def dim(self) -> int:
        return self.video.dim

    @property
    def proj_dim(self) -> int:
        return self.video.proj_dim


def create_model(seed: int, dim: int, proj_dim: int | None = None,
                 fusion: FusionKind | str = FusionKind.ADDITION,
                 modality: str = "both", tau: float = TAU_INIT) -> RetrievalModel:
    """Build a freshly initialized model.

    The query text enters the similarity directly, so the projection width
    must equal the embedding width; ``proj_dim`` defaults to ``dim`` and any
    other value is rejected.
    """
    if proj_dim is None:
        proj_dim = dim
    if proj_dim != dim:
        raise ShapeError(
            f"cosine similarity compares raw text rows (width {dim}) with fused "
            f"embeddings (width {proj_dim}); the widths must match")
    if modality not in MODALITIES:
        raise ValueError(f"modality must be one of {MODALITIES}, got {modality!r}")
    if isinstance(fusion, str):
        fusion = FusionKind.parse(fusion)
    rng = np.random.default_rng(seed)
    return RetrievalModel(
        video=XAttnParams.create(rng, dim, proj_dim),
        audio=XAttnParams.create(rng, dim, proj_dim),
        fusion=FusionParams.create(rng, fusion, dim, proj_dim),
        temperature=Temperature.from_tau(tau),
        modality=modality,
    )


def _uses_video(model: RetrievalModel) -> bool:
    return model.modality != "audio"


def _uses_audio_block(model: RetrievalModel) -> bool:
    if model.modality == "audio":
        return True
    if model.modality == "video":
        return False
    return model.fusion.kind in (FusionKind.ADDITION, FusionKind.CONCAT_FC,
                                 FusionKind.XATTN)


def _uses_xattn(model: RetrievalModel) -> bool:
    return model.modality == "both" and model.fusion.kind == FusionKind.XATTN


def named_parameters(model: RetrievalModel, trainable_only: bool = True
                     ) -> dict[str, np.ndarray]:
    """Flat name -> array view of the model's parameters.

    With ``trainable_only`` the dict is restricted to parameters that the
    configured modality and fusion kind actually route gradients to.
    """
    out: dict[str, np.ndarray] = {}
    if not trainable_only or _uses_video(model):
        out.update({f"video.{k}": v for k, v in model.video.named().items()})
    if not trainable_only or _uses_audio_block(model):
        out.update({f"audio.{k}": v for k, v in model.audio.named().items()})
    if not trainable_only or model.modality == "both":
        out.update({f"fusion.{k}": v for k, v in model.fusion.named().items()})
    out["temperature.log_scale"] = model.temperature.log_scale
    return out


def candidate_scores(model: RetrievalModel, texts: np.ndarray, corpus: Corpus,
                     j: int):
    """Cosine scores of candidate ``j`` against every query row, as
    ``(scores, cache)`` from :func:`tefal.contrastive.cosine_rows`.

    Forward only, one :func:`tefal.attention.block_forward` call per block:
    the per-candidate reference for :func:`score_tile`.
    """
    texts = np.asarray(texts, dtype=np.float64)
    kind = model.fusion.kind
    if model.modality == "video":
        fused, _ = block_forward(model.video, texts, corpus.frames[j])
    elif model.modality == "audio":
        fused, _ = block_forward(model.audio, texts, corpus.audio[j])
    elif kind == FusionKind.STACKING:
        context = np.concatenate(
            [corpus.frames[j], corpus.summary_rows()[j:j + 1]], axis=0)
        fused, _ = block_forward(model.video, texts, context)
    elif kind == FusionKind.LATE:
        e_v, _ = block_forward(model.video, texts, corpus.frames[j])
        token_mean = corpus.audio[j].mean(axis=0)[:, None]
        fused = fuse_forward(model.fusion, video_cond=e_v.T,
                             audio_token_mean=token_mean)[0].T
    else:
        e_v, _ = block_forward(model.video, texts, corpus.frames[j])
        e_a, _ = block_forward(model.audio, texts, corpus.audio[j])
        fused = fuse_forward(model.fusion, video_cond=e_v.T, audio_cond=e_a.T,
                             queries=query_rows(model, texts).xattn)[0].T
    return cosine_rows(texts.T, fused.T)


@dataclass
class Queries:
    """Query texts and each used block's projection ``LN_q(text) W_q``
    (``xattn`` is the xattn fusion block's), one column per text."""
    texts: np.ndarray
    video: np.ndarray | None
    audio: np.ndarray | None
    xattn: np.ndarray | None

    def rows(self, index) -> "Queries":
        return Queries(*(None if x is None else np.take(x, index, axis=-1) for x in (
            self.texts, self.video, self.audio, self.xattn)))


def query_rows(model: RetrievalModel, texts: np.ndarray) -> Queries:
    """Project the query texts once for every block the model uses."""
    texts = np.asarray(texts, dtype=np.float64)
    return Queries(np.ascontiguousarray(texts.T),
                   project_queries(model.video, texts) if _uses_video(model) else None,
                   project_queries(model.audio, texts) if _uses_audio_block(model)
                   else None,
                   project_queries(model.fusion.xattn, texts) if _uses_xattn(model)
                   else None)


@dataclass
class TileTape:
    """What :func:`batch_loss_and_grads` reverses: each used block's
    :class:`tefal.attention.TileCache`, the fusion cache (``None`` when one
    block's output is the fused embedding) and the cosine cache."""
    blocks: dict
    fusion: object
    cosine: object


def score_tile(model: RetrievalModel, queries: Queries, corpus: Corpus,
               cols: np.ndarray, keep: bool = False):
    """(T, C) cosine scores of query rows against candidates ``cols``; with
    ``keep``, the pair ``(scores, TileTape)``.

    A dense tile scores every candidate against the same T queries
    (``queries`` arrays of shape (., T), one shared block operand).  A
    grouped tile gives each candidate its own T queries (arrays of shape
    (., C, T), from ``queries.rows`` with a (C, T) index), and entry (t, c)
    scores candidate ``cols[c]`` against its ``t``-th query.  The xattn
    fusion block is a grouped tile of the pairs: one query and the context
    [e_v, e_a] per pair.
    """
    cols = np.asarray(cols, dtype=np.intp)
    kind = model.fusion.kind
    blocks: dict = {}
    fusion_cache = None

    def per_pair(x):
        # a dense tile's (., T) columns broadcast over the candidates
        return x if x.ndim == 3 else x[:, None, :]

    def block(name, rows):
        # the candidates' (C, n, D) context rows, pair-last as (D, n, C)
        params, q, contexts = getattr(model, name), getattr(queries, name), rows.T
        if not keep:
            return block_forward_tile(params, q, contexts)
        out, blocks[name] = block_forward_tile(params, q, contexts, keep=True)
        return out

    if model.modality == "audio":
        fused = block("audio", corpus.audio[cols])
    elif model.modality == "video":
        fused = block("video", corpus.frames[cols])
    elif kind == FusionKind.STACKING:
        # the frames plus the audio summary row
        fused = block("video", np.concatenate(
            [corpus.frames[cols], corpus.summary_rows()[cols][:, None, :]], axis=1))
    elif kind == FusionKind.LATE:
        e_v = block("video", corpus.frames[cols])
        tokens = canonical_rows(corpus.audio[cols].T)
        token_mean = sum_leading(tokens.transpose(1, 0, 2)) / tokens.shape[1]
        fused, fusion_cache = fuse_forward(
            model.fusion, video_cond=e_v, audio_token_mean=token_mean[:, :, None])
    else:
        e_v = block("video", corpus.frames[cols])
        e_a = block("audio", corpus.audio[cols])
        fused, fusion_cache = fuse_forward(
            model.fusion, video_cond=e_v, audio_cond=e_a,
            queries=None if queries.xattn is None else per_pair(queries.xattn))
    scores, cos_cache = cosine_rows(per_pair(queries.texts), fused)
    if not keep:
        return scores.T
    return scores.T, TileTape(blocks, fusion_cache, cos_cache)


def map_tasks(fn, tasks: list, workers: int = 1) -> list:
    """``[fn(task) for task in tasks]``, on a thread pool when ``workers > 1``."""
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(task) for task in tasks]


def similarity_matrix(model: RetrievalModel, corpus: Corpus,
                      query_texts: np.ndarray | None = None,
                      candidates: np.ndarray | None = None,
                      workers: int = 1) -> np.ndarray:
    """Dense T x V matrix of text-conditioned cosine similarities.

    The candidates are scored in tiles of ``max(1, TILE_PAIRS // T)``
    columns.  Tiles are independent, so they may be computed by a worker
    pool; every score depends only on its own pair, which keeps the output
    identical for any worker count and any query or candidate subset.
    """
    queries = query_rows(model, corpus.texts if query_texts is None else query_texts)
    if candidates is None:
        candidates = np.arange(len(corpus))
    candidates = np.asarray(candidates, dtype=np.intp)
    width = max(1, TILE_PAIRS // queries.texts.shape[-1])
    tiles = [candidates[i:i + width] for i in range(0, len(candidates), width)]
    blocks = map_tasks(lambda cols: score_tile(model, queries, corpus, cols),
                       tiles, workers)
    return np.concatenate(blocks, axis=1) if blocks \
        else np.empty((queries.texts.shape[-1], 0))


def batch_loss_and_grads(model: RetrievalModel, corpus: Corpus,
                         indices: np.ndarray):
    """Symmetric InfoNCE loss and parameter gradients for one mini-batch.

    The batch items serve as both queries and candidates; entry (i, j) of
    the similarity matrix scores candidate j's embedding conditioned on
    text i.  The batch is one (B, B) :func:`score_tile`, so ``sim`` equals
    :func:`similarity_matrix` on the same queries and candidates bit for
    bit.  The backward pass reverses cosine and fusion on the pair-last B^2
    pairs and each block once, summing over all pairs in a fixed order, so
    the result is deterministic.
    """
    indices = np.asarray(indices, dtype=np.intp)
    texts = corpus.texts[indices]
    queries = query_rows(model, texts)
    sim, tape = score_tile(model, queries, corpus, indices, keep=True)

    loss, d_sim, d_log_scale = infonce(sim, model.temperature)

    grads: dict[str, np.ndarray] = {"temperature.log_scale": d_log_scale}

    def add(prefix, block_grads):
        grads.update({f"{prefix}.{k}": v for k, v in block_grads.items()})

    d_fused = cosine_rows_backward(d_sim.T, tape.cosine)
    d_cond = {"video": d_fused, "audio": d_fused}
    if tape.fusion is not None:
        own, d_cond["video"], d_cond["audio"], d_q = fuse_backward(
            model.fusion, tape.fusion, d_fused)
        add("fusion", own)
        if d_q is not None:
            add("fusion.xattn", project_queries_backward(
                model.fusion.xattn, texts, d_q.sum(axis=1)))
    for name, cache in tape.blocks.items():
        params = getattr(model, name)
        block_grads, d_q, _ = block_backward_tile(params, cache, d_cond[name])
        add(name, block_grads)
        add(name, project_queries_backward(params, texts, d_q.sum(axis=1)))
    return loss, grads, sim
