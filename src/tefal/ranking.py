"""Ranking, retrieval metrics, two-stage re-ranking, and score post-processing.

Ground truth follows the aligned-corpus convention: query i's correct
candidate is item i.  Ties in similarity are always broken by ascending
item id, which makes every ranking deterministic across runs.
"""

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import ConfigError
from .corpus import Corpus
from .linalg import ShapeError, as_matrix
from .model import (
    RetrievalModel,
    map_tasks,
    query_rows,
    score_tile,
    similarity_matrix,
)

__all__ = [
    "RankingMetrics", "EvalStats", "NonFiniteScoreError", "mean_pool",
    "compute_metrics", "ranks_from_similarity", "rank_exhaustive",
    "rerank_two_stage", "dual_softmax_postprocess", "resolve_workers",
]


class NonFiniteScoreError(ValueError):
    """A similarity score to be ranked is NaN or infinite."""


def _check_finite(scores: np.ndarray, ids, what: str) -> None:
    """Reject a (queries x candidates) score array with a non-finite entry,
    naming the first query it occurs for."""
    bad = ~np.isfinite(scores)
    if np.any(bad):
        row = int(np.nonzero(bad.any(axis=1))[0][0])
        raise NonFiniteScoreError(
            f"{what} for query {row} ({ids[row]}) has a non-finite score")


def resolve_workers(requested: int = 1) -> int:
    """Worker count for query/candidate parallelism, capped by TEFAL_THREADS."""
    workers = max(1, int(requested))
    cap = os.environ.get("TEFAL_THREADS")
    if cap:
        try:
            cap_value = int(cap)
        except ValueError:
            raise ConfigError(
                f"TEFAL_THREADS must be an integer, got {cap!r}") from None
        workers = min(workers, max(1, cap_value))
    return workers


@dataclass
class RankingMetrics:
    """Recall percentages plus median and mean rank for one direction."""
    r1: float
    r5: float
    r10: float
    mdr: float
    mnr: float
    direction: str = "t2v"

    def as_dict(self) -> dict[str, float]:
        return {"R1": self.r1, "R5": self.r5, "R10": self.r10,
                "MdR": self.mdr, "MnR": self.mnr}


@dataclass
class EvalStats:
    """Instrumentation counters: work done by each retrieval stage."""
    stage1_comparisons: int = 0
    stage2_model_evals: int = 0


def mean_pool(frames: np.ndarray) -> np.ndarray:
    """Column mean of the frame rows: the cheap unconditioned video vector."""
    frames = as_matrix(frames, "frames")
    return frames.mean(axis=0, keepdims=True)


def compute_metrics(ranks, candidate_count: int, direction: str = "t2v"
                    ) -> RankingMetrics:
    """R@1/5/10 (percent), median rank (lower middle for even counts), and
    mean rank.  Every rank must lie in [1, candidate_count]."""
    ranks = np.asarray(ranks)
    if ranks.size == 0:
        raise ValueError("no ranks to aggregate")
    if np.any(ranks < 1) or np.any(ranks > candidate_count):
        bad = ranks[(ranks < 1) | (ranks > candidate_count)]
        raise ValueError(
            f"ranks must lie in [1, {candidate_count}], got {bad[:5].tolist()}")
    ranks = ranks.astype(np.float64)
    ordered = np.sort(ranks)
    n = len(ranks)
    return RankingMetrics(
        r1=100.0 * int(np.sum(ranks <= 1)) / n,
        r5=100.0 * int(np.sum(ranks <= 5)) / n,
        r10=100.0 * int(np.sum(ranks <= 10)) / n,
        mdr=float(ordered[(n - 1) // 2]),
        mnr=float(np.mean(ranks)),
        direction=direction,
    )


def _rank_of_truth(scores: np.ndarray, truth: int, ids: np.ndarray) -> int:
    """1-based rank of ``truth`` under descending score, ties by ascending id."""
    s = scores[truth]
    higher = int(np.sum(scores > s))
    tied = (scores == s)
    tied[truth] = False
    tied_before = int(np.sum(tied & (ids < ids[truth])))
    return 1 + higher + tied_before


def ranks_from_similarity(sim: np.ndarray, ids) -> np.ndarray:
    """Per-row rank of the diagonal entry of a square similarity matrix.

    Raises :class:`NonFiniteScoreError` if any score is NaN or infinite: a
    NaN compares false with everything and would rank its truth first.
    """
    sim = np.asarray(sim, dtype=np.float64)
    if sim.ndim != 2 or sim.shape[0] != sim.shape[1]:
        raise ShapeError(f"aligned similarity matrix must be square, got {sim.shape}")
    ids = np.asarray(ids)
    _check_finite(sim, ids, "similarity row")
    return np.array([_rank_of_truth(sim[i], i, ids) for i in range(sim.shape[0])])


@dataclass
class RankingResult:
    ranks: np.ndarray
    sim: np.ndarray | None
    stats: EvalStats


def rank_exhaustive(model: RetrievalModel, corpus: Corpus, workers: int = 1,
                    postprocess: Callable[[np.ndarray], np.ndarray] | None = None
                    ) -> RankingResult:
    """Score every query against every candidate with the full model.

    ``postprocess`` (e.g. a dual-softmax rescorer) is applied to the dense
    matrix before ranking.  Cost is one model evaluation per (query,
    candidate) pair.
    """
    if len(corpus) == 0:
        raise ValueError("cannot rank over an empty corpus")
    workers = resolve_workers(workers)
    sim = similarity_matrix(model, corpus, workers=workers)
    stats = EvalStats(stage2_model_evals=sim.size)
    scored = postprocess(sim) if postprocess is not None else sim
    return RankingResult(ranks_from_similarity(scored, corpus.ids), sim, stats)


def _stage1_similarity(corpus: Corpus, query_texts: np.ndarray) -> np.ndarray:
    pooled = corpus.frames.mean(axis=1)
    q_norm = np.linalg.norm(query_texts, axis=1, keepdims=True)
    p_norm = np.linalg.norm(pooled, axis=1, keepdims=True)
    q = np.where(q_norm > 0, query_texts / np.where(q_norm > 0, q_norm, 1.0), 0.0)
    p = np.where(p_norm > 0, pooled / np.where(p_norm > 0, p_norm, 1.0), 0.0)
    return q @ p.T


def rerank_two_stage(model: RetrievalModel, corpus: Corpus, k: int,
                     workers: int = 1, direction: str = "t2v",
                     shortlist_provider: Callable[[Corpus, np.ndarray], np.ndarray]
                     | None = None) -> RankingResult:
    """Mean-pool shortlist, then re-rank only the top-k with the full model.

    Stage 1 orders all candidates by cosine between the query texts and the
    mean-pooled frames; stage 2 re-scores the k-item shortlist with the
    text-conditioned model.  Items outside the shortlist keep their stage-1
    relative order, below the shortlist.  With k equal to the corpus size
    the result matches :func:`rank_exhaustive` exactly.

    ``shortlist_provider`` swaps the stage-1 scorer: it receives the corpus
    and the query texts and returns a (texts x candidates) score matrix.
    The default exact mean-pool scan can thus be replaced by an approximate
    nearest-neighbor index without touching stage 2.

    ``direction="v2t"`` runs the mirrored problem: each video query
    shortlists texts by stage-1 score and the model re-scores those
    (text, video) pairs.
    """
    n = len(corpus)
    if n == 0:
        raise ValueError("cannot rank over an empty corpus")
    if not 1 <= k <= n:
        raise ValueError(f"shortlist size k must lie in [1, {n}], got {k}")
    if direction not in ("t2v", "v2t"):
        raise ValueError(f"direction must be t2v or v2t, got {direction!r}")
    workers = resolve_workers(workers)
    ids = np.asarray(corpus.ids)
    texts = corpus.texts

    provider = shortlist_provider if shortlist_provider is not None \
        else _stage1_similarity
    stage1 = np.asarray(provider(corpus, texts), dtype=np.float64)
    if stage1.shape != (n, n):
        raise ShapeError(f"shortlist provider returned shape {stage1.shape}, "
                         f"expected ({n}, {n})")
    if direction == "v2t":
        stage1 = stage1.T
    stats = EvalStats(stage1_comparisons=stage1.size)
    # descending score, ties by ascending id
    order1 = np.stack([np.lexsort((ids, -stage1[i])) for i in range(n)])
    shortlists = order1[:, :k]

    queries = query_rows(model, texts)
    if direction == "t2v":
        # group the (query, candidate) pairs by candidate: one tile per
        # candidate, over the queries that shortlisted it (ascending)
        order = np.argsort(shortlists.ravel(), kind="stable")
        cols, starts = np.unique(shortlists.ravel()[order], return_index=True)
        tasks = list(zip(cols.tolist(), np.split(order, starts[1:])))
    else:
        # each video query scores its shortlisted texts in one tile
        tasks = [(j, j * k + np.arange(k)) for j in range(n)]

    def score_group(task):
        j, slots = task
        rows = slots // k if direction == "t2v" else shortlists[j]
        return slots, score_tile(model, queries.rows(rows), corpus, [j])[:, 0]

    # stage2[q, s] scores query q against its s-th shortlisted item
    stage2 = np.empty(n * k)
    for slots, scores in map_tasks(score_group, tasks, workers):
        stage2[slots] = scores
    stage2 = stage2.reshape(n, k)
    stats.stage2_model_evals += stage2.size
    _check_finite(stage2, ids, "shortlist")

    ranks = np.empty(n, dtype=np.intp)
    for qi in range(n):
        short = shortlists[qi]
        if qi in short:
            reorder = np.lexsort((ids[short], -stage2[qi]))
            ranks[qi] = 1 + int(np.nonzero(short[reorder] == qi)[0][0])
        else:
            tail = order1[qi, k:]
            ranks[qi] = k + 1 + int(np.nonzero(tail == qi)[0][0])
    return RankingResult(ranks, None, stats)


def dual_softmax_postprocess(sim: np.ndarray, dsl_temp: float) -> np.ndarray:
    """Rescale a T x V score matrix by its softmax over the query axis.

    Each entry is multiplied by the column-wise softmax of ``sim * dsl_temp``,
    sharpening scores that are distinctive for their query before ranking.
    """
    if dsl_temp <= 0:
        raise ValueError(f"dsl_temp must be positive, got {dsl_temp}")
    sim = as_matrix(sim, "sim")
    z = sim * dsl_temp
    z = z - z.max(axis=0, keepdims=True)
    e = np.exp(z)
    return sim * (e / e.sum(axis=0, keepdims=True))
