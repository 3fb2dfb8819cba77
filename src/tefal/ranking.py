"""Ranking, retrieval metrics, two-stage re-ranking, score post-processing,
and :func:`evaluate`, which ranks a corpus in both directions.

Query i's correct candidate is item i.  Ties in similarity are broken by
ascending item id.
"""

from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .corpus import Corpus
from .linalg import (ShapeError, as_matrix, is_integer, pad_pairs, padded_matmul,
                     require_int, require_real)
from .model import (
    RetrievalModel,
    map_tasks,
    query_rows,
    resolve_workers,
    score_pairs,
    similarity_matrix,
)

__all__ = [
    "RankingMetrics", "EvalStats", "EvalResult", "NonFiniteScoreError", "compute_metrics",
    "ranks_from_similarity", "rank_exhaustive", "rerank_two_stage",
    "dual_softmax_postprocess", "evaluate",
]


class NonFiniteScoreError(ValueError):
    """A similarity score to be ranked is NaN or infinite."""


# scores per block of the row-wise scans, so that their temporaries stay a
# few MB whatever the corpus size; stage 1 splits it between its workers, so
# that the blocks they hold at once sum to at most this, or one chunk of rows
BLOCK_ELEMENTS = 1 << 19

# rows per chunk of the stage-1 kernel (see _row_scores)
_CHUNK_ROWS = 64

# text-to-video and video-to-text retrieval
DIRECTIONS = ("t2v", "v2t")


def _row_blocks(rows: int, cols: int) -> list[slice]:
    step = max(1, BLOCK_ELEMENTS // max(1, cols))
    return [slice(start, min(start + step, rows)) for start in range(0, rows, step)]


def _check_finite(scores: np.ndarray, ids, what: str, first_row: int = 0) -> None:
    """Reject scores with a non-finite entry, naming the first query it
    occurs for; row 0 of ``scores`` is query ``first_row``."""
    bad = ~np.isfinite(scores)
    if np.any(bad):
        row = first_row + int(np.nonzero(bad.any(axis=1))[0][0])
        raise NonFiniteScoreError(f"{what} for query {row} ({ids[row]}) has a non-finite score")


def _id_ranks(ids: np.ndarray) -> np.ndarray:
    """Each id's position in ascending id order (equal ids share one), so
    integer comparisons of ranks break ties exactly as the ids would."""
    return np.unique(ids, return_inverse=True)[1]


def _ranks_in_rows(scores: np.ndarray, truth: np.ndarray,
                   id_rank: np.ndarray) -> np.ndarray:
    """1-based rank of entry ``truth[r]`` within each row ``r`` of
    ``scores`` (``id_rank`` per column, or per entry): one plus the entries
    with a higher score, and the equal-scoring ones with a smaller id rank."""
    rows = np.arange(len(truth))
    id_rank = np.broadcast_to(id_rank, scores.shape)
    mine, my_id_rank = scores[rows, truth][:, None], id_rank[rows, truth][:, None]
    ahead = (scores > mine) | ((scores == mine) & (id_rank < my_id_rank))
    return 1 + np.count_nonzero(ahead, axis=1)


@dataclass
class RankingMetrics:
    """Recall percentages plus median and mean rank for one direction."""
    r1: float
    r5: float
    r10: float
    mdr: float
    mnr: float

    def as_dict(self) -> dict[str, float]:
        return {"R1": self.r1, "R5": self.r5, "R10": self.r10,
                "MdR": self.mdr, "MnR": self.mnr}


@dataclass
class EvalStats:
    """Work done by each retrieval stage."""
    stage1_comparisons: int = 0
    stage2_model_evals: int = 0


def compute_metrics(ranks, candidate_count: int) -> RankingMetrics:
    """R@1/5/10 (percent), median rank (lower middle for even counts), and
    mean rank of a 1-D array of integer ranks, each in [1, candidate_count],
    an integer by :func:`tefal.linalg.require_int` from 1."""
    require_int(candidate_count, "candidate_count", minimum=1)
    ranks = np.asarray(ranks)
    if ranks.ndim != 1:
        raise ShapeError(f"ranks must be 1-D, got shape {ranks.shape}")
    if ranks.size == 0:
        raise ValueError("no ranks to aggregate")
    if not is_integer(ranks):
        raise ValueError(f"ranks must be whole numbers, got {ranks.dtype} ranks")
    bad = ranks[(ranks < 1) | (ranks > candidate_count)]
    if len(bad):
        raise ValueError(f"ranks must lie in [1, {candidate_count}], got {bad[:5].tolist()}")
    n = len(ranks)
    recalls = (100.0 * int(np.count_nonzero(ranks <= top)) / n for top in (1, 5, 10))
    return RankingMetrics(*recalls, mdr=float(np.sort(ranks)[(n - 1) // 2]),
                          mnr=float(np.mean(ranks)))


def ranks_from_similarity(sim: np.ndarray, ids) -> np.ndarray:
    """Per-row rank of the diagonal entry of a square similarity matrix.
    A NaN compares false with everything and would rank its truth first,
    so a non-finite score raises :class:`NonFiniteScoreError`."""
    sim = np.asarray(sim, dtype=np.float64)
    if sim.ndim != 2 or sim.shape[0] != sim.shape[1]:
        raise ShapeError(f"aligned similarity matrix must be square, got {sim.shape}")
    ids = np.asarray(ids)
    if ids.shape != sim.shape[:1]:
        raise ShapeError(f"a {sim.shape} similarity matrix needs ids of shape {sim.shape[:1]}, "
                         f"got {ids.shape}")
    id_rank = _id_ranks(ids)
    ranks = np.empty(sim.shape[0], dtype=np.intp)
    for rows in _row_blocks(*sim.shape):
        block = sim[rows]
        _check_finite(block, ids, "similarity row", rows.start)
        ranks[rows] = _ranks_in_rows(block, np.arange(rows.start, rows.stop), id_rank)
    return ranks


@dataclass
class RankingResult:
    ranks: np.ndarray
    stats: EvalStats


def rank_exhaustive(model: RetrievalModel, corpus: Corpus,
                    workers: int | None = None) -> RankingResult:
    """Text-to-video ranks of every query against every candidate: those of
    the dense :func:`tefal.model.similarity_matrix`, as :func:`evaluate`
    ranks it."""
    sim = similarity_matrix(model, corpus, workers=workers)
    return RankingResult(ranks_from_similarity(sim, corpus.ids),
                         EvalStats(stage2_model_evals=len(corpus) ** 2))


def _stage1_rows(corpus: Corpus) -> tuple[np.ndarray, np.ndarray]:
    """Stage 1's unit-norm text rows and mean-pooled frame rows (a zero row
    stays zero).  A non-finite row raises :class:`NonFiniteScoreError`, so
    the stage-1 scores need no check of their own."""
    rows = corpus.texts, corpus.frames.mean(axis=1)
    norms = [np.linalg.norm(x, axis=1, keepdims=True) for x in rows]
    bad = np.nonzero(~np.isfinite(norms[0] + norms[1]))[0]
    if len(bad):
        raise NonFiniteScoreError(f"stage-1 text or pooled-frame row of item {bad[0]} "
                                  f"({corpus.ids[bad[0]]}) is not finite")
    return tuple(np.where(norm > 0, x / np.where(norm > 0, norm, 1.0), 0.0)
                 for x, norm in zip(rows, norms))


def _row_scores(queries: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Dot products of each query row with every candidate column of the
    (D, N) ``columns``: one :func:`tefal.linalg.padded_matmul` of
    fixed-shape (_CHUNK_ROWS, D) chunks of the queries, zero-padded to whole
    chunks, so that its determinism argument holds.  Blocks of rows that
    start at multiples of ``_CHUNK_ROWS`` keep a row at one offset in its
    chunk.  So a row's scores depend only on the row, the candidates and
    the BLAS build: not on the block size, the other rows, the BLAS thread
    count or the worker count, and no (n, n) array is held.
    """
    q = np.concatenate([queries, np.zeros((-len(queries) % _CHUNK_ROWS, queries.shape[1]))])
    scores = padded_matmul(q.reshape(-1, _CHUNK_ROWS, q.shape[1]), columns)
    return scores.reshape(len(q), -1)[:len(queries), :columns.shape[1]]


def _stage1_shortlists(score_rows: Callable[[slice], np.ndarray], k: int,
                       ids: np.ndarray, id_rank: np.ndarray, workers: int):
    """``(shortlists, ranks)``: each query's k best candidates by stage-1
    score, ties by ascending id, and the stage-1 rank of each query's truth
    where it falls outside its shortlist, 0 where inside.
    ``score_rows(rows)`` gives one block of whole chunks of query rows
    (determinism: :func:`_row_scores`).  Blocks run on :func:`map_tasks`
    workers, as many as hold at most ``BLOCK_ELEMENTS`` scores together
    (or one chunk of rows), and write disjoint rows of the result.  The
    shortlists equal the first k columns of a full lexsort.
    """
    n = len(ids)
    shortlists = np.empty((n, k), dtype=np.intp)
    ranks = np.zeros(n, dtype=np.intp)
    chunks = max(1, BLOCK_ELEMENTS // n // _CHUNK_ROWS)
    workers = min(workers, chunks)
    step = chunks // workers * _CHUNK_ROWS

    def scan(start: int) -> None:
        rows = slice(start, min(start + step, n))
        block = score_rows(rows)
        top = np.argpartition(block, n - k, axis=1)[:, n - k:]
        kth = np.take_along_axis(block, top, axis=1).min(axis=1, keepdims=True)
        # where the k-th score ties with a column left out, the partition's
        # pick is arbitrary: take every higher score, then the ties by id
        tied = np.count_nonzero(block >= kth, axis=1) > k
        if np.any(tied):
            key = np.where(block[tied] > kth[tied], -1,
                           np.where(block[tied] == kth[tied], id_rank, n))
            top[tied] = np.argpartition(key, k - 1, axis=1)[:, :k]
        scores = np.take_along_axis(block, top, axis=1)
        order = np.lexsort((id_rank[top], -scores), axis=1)
        shortlists[rows] = np.take_along_axis(top, order, axis=1)

        truth = np.arange(rows.start, rows.stop)
        missed = ~np.any(shortlists[rows] == truth[:, None], axis=1)
        if np.any(missed):
            ranks[truth[missed]] = _ranks_in_rows(block[missed], truth[missed],
                                                  id_rank)

    map_tasks(scan, range(0, n, step), workers)
    return shortlists, ranks


def rerank_two_stage(model: RetrievalModel, corpus: Corpus, k: int,
                     workers: int | None = None) -> RankingResult:
    """Text-to-video ranks: a k-item shortlist per query by cosine with the
    mean-pooled frames (stage 1, :func:`_row_scores`), re-scored with the
    full model (stage 2).  Items outside the shortlist keep their stage-1
    order below it; a truth there gets its stage-1 rank.  Stage 2 runs the
    kernel of exhaustive scoring (:func:`tefal.attention.block_forward_tile`),
    so with k equal to the corpus size the result matches
    :func:`rank_exhaustive` exactly, for any worker count.
    """
    (ranks,), stats = _rerank(model, corpus, k, workers, ("t2v",))
    return RankingResult(ranks, stats)


def _rerank(model: RetrievalModel, corpus: Corpus, k: int, workers: int | None,
            directions: tuple[str, ...]) -> tuple[list, EvalStats]:
    """Each direction's two-stage ranks, with one stage-2 pass over the
    distinct (text, video) pairs of all the shortlists, which
    ``stats.stage2_model_evals`` counts (tile invariance makes sharing a
    pair change no rank: :func:`tefal.attention.block_forward_tile`)."""
    n = len(corpus)
    require_int(k, "shortlist size k", minimum=1, maximum=n)
    workers = resolve_workers(workers)
    ids = np.asarray(corpus.ids)
    id_rank = _id_ranks(ids)

    text_rows, video_rows = _stage1_rows(corpus)
    rows = {"t2v": (text_rows, video_rows), "v2t": (video_rows, text_rows)}
    stats = EvalStats(stage1_comparisons=len(directions) * n * n)
    stage1_out = []
    for queries, candidates in (rows[d] for d in directions):
        # the candidates padded once, for every block
        columns = pad_pairs(candidates.T)
        stage1_out.append(_stage1_shortlists(
            lambda block: _row_scores(queries[block], columns)[:, :n], k, ids, id_rank,
            workers))

    # slot s of query q's shortlist pairs text t with video v under the key
    # v * n + t; the sorted distinct keys come grouped by video
    owners = np.repeat(np.arange(n), k)
    keys = np.concatenate([
        shortlists.ravel() * n + owners if d == "t2v" else owners * n + shortlists.ravel()
        for d, (shortlists, _) in zip(directions, stage1_out)])
    pairs, inverse = np.unique(keys, return_inverse=True)
    scores = score_pairs(model, query_rows(model, corpus.texts), corpus, pairs % n,
                         pairs // n, workers)
    stats.stage2_model_evals = len(pairs)

    all_ranks = []
    for (shortlists, ranks), slots in zip(stage1_out, np.split(inverse, len(directions))):
        # stage2[q, s] scores query q against its s-th shortlisted item
        stage2 = scores[slots].reshape(n, k)
        _check_finite(stage2, ids, "shortlist")
        inside = np.nonzero(ranks == 0)[0]
        truth_slot = np.argmax(shortlists[inside] == inside[:, None], axis=1)
        ranks[inside] = _ranks_in_rows(stage2[inside], truth_slot,
                                       id_rank[shortlists[inside]])
        all_ranks.append(ranks)
    return all_ranks, stats


def dual_softmax_postprocess(sim: np.ndarray, dsl_temp: float) -> np.ndarray:
    """Each entry of a T x V score matrix times the column-wise softmax of
    ``sim * dsl_temp``, which sharpens scores distinctive for their query."""
    _check_dsl_temp(dsl_temp)
    sim = as_matrix(sim, "sim")
    # in place on one (T, V) array, as the caller holds sim beside it
    out = sim * dsl_temp
    out -= out.max(axis=0, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=0, keepdims=True)
    out *= sim
    return out


def _check_dsl_temp(dsl_temp: float) -> None:
    """Reject a dual-softmax temperature that fails
    :func:`tefal.linalg.require_real` or is not positive."""
    require_real(dsl_temp, "dsl_temp")
    if not dsl_temp > 0:
        raise ValueError(f"dsl_temp must be positive, got {dsl_temp}")


@dataclass
class EvalResult:
    t2v: RankingMetrics
    v2t: RankingMetrics
    ranks_t2v: np.ndarray
    ranks_v2t: np.ndarray
    stats: EvalStats
    postprocess: list[str] = field(default_factory=list)
    k: int | None = None

    def as_dict(self) -> dict:
        return {
            "items": int(len(self.ranks_t2v)),
            "k": None if self.k is None else int(self.k),
            "postprocess": self.postprocess,
            "metrics": {"t2v": self.t2v.as_dict(), "v2t": self.v2t.as_dict()},
            "stats": asdict(self.stats),
            "ranks": {"t2v": [int(r) for r in self.ranks_t2v],
                      "v2t": [int(r) for r in self.ranks_v2t]},
        }


def evaluate(model: RetrievalModel, corpus: Corpus, k: int | None = None,
             dsl_temp: float | None = None, workers: int | None = None) -> EvalResult:
    """Rank the corpus in both directions and aggregate metrics.

    Exhaustive scoring ranks the dense (n, n) :func:`similarity_matrix`
    and its transpose (:func:`ranks_from_similarity`), each re-scored with
    dual softmax first when ``dsl_temp`` is given; a bad ``dsl_temp``, or
    one given with ``k``, is rejected before any scoring.  ``k`` switches
    to :func:`rerank_two_stage` in both directions, which holds no (n, n)
    matrix.  No ``workers`` count (:func:`tefal.model.resolve_workers`)
    changes a rank.
    """
    if dsl_temp is not None:
        _check_dsl_temp(dsl_temp)
        if k is not None:
            raise ValueError("dual-softmax post-processing needs the dense "
                             "similarity matrix; drop k or drop dsl_temp")
    workers = resolve_workers(workers)
    n = len(corpus)
    postprocess: list[str] = []
    stats = EvalStats(stage2_model_evals=n * n)

    if k is not None:
        (ranks_t2v, ranks_v2t), stats = _rerank(model, corpus, k, workers, DIRECTIONS)
    else:
        sim = similarity_matrix(model, corpus, workers=workers)
        if dsl_temp is not None:
            # dual softmax spreads a non-finite score over its column; name its row
            _check_finite(sim, corpus.ids, "similarity row")
            postprocess.append(f"dsl(temp={dsl_temp:g})")
        ranks_t2v, ranks_v2t = (
            ranks_from_similarity(s if dsl_temp is None else dual_softmax_postprocess(s, dsl_temp),
                                  corpus.ids)
            for s in (sim, sim.T))

    return EvalResult(
        t2v=compute_metrics(ranks_t2v, n),
        v2t=compute_metrics(ranks_v2t, n),
        ranks_t2v=ranks_t2v,
        ranks_v2t=ranks_v2t,
        stats=stats,
        postprocess=postprocess,
        k=k,
    )
