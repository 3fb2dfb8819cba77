"""The full retrieval model: attention blocks, fusion, and similarity.

A model kind, its ``modality`` and fusion kind, decides which attention
blocks run (:func:`_blocks`: one modality's own block, or those
``_FUSION_BLOCKS`` names) over which context rows (:func:`_contexts`:
stacking adds the audio summary row to the frames); every other function
reads that one table.

Every candidate embedding is conditioned on the query text, so T queries
against V candidates cost one block evaluation per pair.  Exhaustive
scoring (:func:`similarity_matrix`), stage 2 (:func:`score_pairs`) and
training (:func:`batch_loss_and_grads`) all score through
:func:`score_tile`, on tiles planned here alone; :func:`candidate_scores`
is the per-candidate reference that the tests compare it against.
"""

import contextlib
import ctypes
import functools
import glob
import os
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attention import (
    XAttnParams,
    attend_and_pool,
    block_backward_tile,
    block_forward,
    canonical_rows,
    pooling_rows,
    project_candidates,
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
from .config import MODALITIES, ConfigError
from .corpus import Corpus
from .fusion import FusionKind, FusionParams, fuse_backward, fuse_forward
from .linalg import ShapeError, pad_pairs, padded_width, require_int, sum_leading

__all__ = ["RetrievalModel", "MODEL_KINDS", "create_model", "named_parameters",
           "candidate_scores", "Queries", "query_rows", "score_tile", "candidate_blocks",
           "pair_tiles", "score_pairs", "resolve_workers", "map_tasks",
           "similarity_matrix", "batch_loss_and_grads", "uses_summary_rows"]

# (query, candidate) pairs per dense sub-tile or grouped tile, counted padded
TILE_PAIRS = 8192
# candidates per score_tile call: an exhaustive block, or at most in a
# grouped tile, as score_tile projects all of a call's candidates at once
CANDIDATE_BLOCK = 64


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
    """A freshly initialized model.  The cosine compares the query text with
    the fused embedding, so ``proj_dim`` must equal ``dim``.  A ``seed`` that
    fails :func:`tefal.linalg.require_int` from 0 raises ValueError, a ``dim``
    or ``proj_dim`` that fails it from 1 a ShapeError."""
    require_int(seed, "seed")
    require_int(dim, "dim", minimum=1, error=ShapeError)
    if proj_dim is None:
        proj_dim = dim
    require_int(proj_dim, "proj_dim", minimum=1, error=ShapeError)
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


# the blocks each fusion kind runs over both modalities, in parameter order
_FUSION_BLOCKS = {FusionKind.ADDITION: ("video", "audio"), FusionKind.LATE: ("video",),
                  FusionKind.CONCAT_FC: ("video", "audio"),
                  FusionKind.XATTN: ("video", "audio"),
                  FusionKind.STACKING: ("video",)}
# the seven model kinds, (modality, fusion): every fusion over both
# modalities, then each single modality, whose fusion runs no block
MODEL_KINDS = tuple([("both", kind.value) for kind in _FUSION_BLOCKS]
                    + [(modality, "addition") for modality in MODALITIES[1:]])


def _blocks(model: RetrievalModel) -> tuple[str, ...]:
    """Names of the attention blocks the model runs, in parameter order."""
    if model.modality != "both":
        return (model.modality,)
    return _FUSION_BLOCKS[model.fusion.kind]


def uses_summary_rows(model: RetrievalModel) -> bool:
    """Whether the video block also attends over the audio summary row."""
    return model.modality == "both" and model.fusion.kind == FusionKind.STACKING


def _contexts(model: RetrievalModel, corpus: Corpus, cols) -> dict[str, np.ndarray]:
    """Each video or audio block's (C, n, D) context rows for candidates ``cols``."""
    sources = {"video": corpus.frames, "audio": corpus.audio}
    out = {name: sources[name][cols] for name in _blocks(model) if name in sources}
    if uses_summary_rows(model):
        out["video"] = np.concatenate(
            [out["video"], corpus.summary_rows()[cols][:, None, :]], axis=1)
    return out


def _summed(model: RetrievalModel) -> bool:
    """Whether the fused embedding is the sum of the block outputs: under
    addition, and where one block's output is the fused embedding (one
    modality, or stacking)."""
    return model.modality != "both" or model.fusion.kind in (FusionKind.ADDITION,
                                                              FusionKind.STACKING)


def _fuse(model: RetrievalModel, outputs: dict, texts, token_mean, keep: bool = False):
    """``(fused, saved)``: where :func:`_summed`, the sum of ``outputs``, a
    lone output as it is, and ``saved`` is ``None``; otherwise
    :func:`tefal.fusion.fuse_forward` of the video block's output and the
    audio block's, or for late fusion ``token_mean()``."""
    if _summed(model):
        first, *rest = outputs.values()
        return sum(rest, first), None
    audio = token_mean() if model.fusion.kind == FusionKind.LATE else outputs["audio"]
    return fuse_forward(model.fusion, outputs["video"], audio, texts, keep)


def named_parameters(model: RetrievalModel, trainable_only: bool = True
                     ) -> dict[str, np.ndarray]:
    """Flat name -> array view of the model's parameters; with
    ``trainable_only``, only those of the blocks and fusion the model runs."""
    out: dict[str, np.ndarray] = {}
    for name in ("video", "audio"):
        if not trainable_only or name in _blocks(model):
            out.update({f"{name}.{k}": v for k, v in getattr(model, name).named().items()})
    if not trainable_only or model.modality == "both":
        out.update({f"fusion.{k}": v for k, v in model.fusion.named().items()})
    out["temperature.log_scale"] = model.temperature.log_scale
    return out


def candidate_scores(model: RetrievalModel, texts: np.ndarray, corpus: Corpus,
                     j: int):
    """``(scores, cache)`` of candidate ``j`` against every text, one
    :func:`tefal.attention.block_forward` call per block."""
    texts = np.asarray(texts, dtype=np.float64)
    outputs = {name: block_forward(getattr(model, name), texts, rows[0])[0].T
               for name, rows in _contexts(model, corpus, [j]).items()}
    fused, _ = _fuse(model, outputs, texts.T, lambda: corpus.audio[j].mean(axis=0)[:, None])
    return cosine_rows(texts.T, fused)


@dataclass
class Queries:
    """Query texts and each block's ``LN_q(text) W_q``, (., 1, T) columns that
    broadcast over a tile's candidates; ``ln``, each block's kept ``LN_q``."""
    texts: np.ndarray
    blocks: dict[str, np.ndarray]
    ln: dict | None = None

    def rows(self, index) -> "Queries":
        """Each candidate's own queries: (., C, T) for a (C, T) ``index``."""
        return Queries(np.take(self.texts[:, 0], index, axis=-1),
                       {name: np.take(q[:, 0], index, axis=-1)
                        for name, q in self.blocks.items()})


def query_rows(model: RetrievalModel, texts: np.ndarray, keep: bool = False) -> Queries:
    """Project the query texts once for every block the model runs; with
    ``keep``, keep each block's ``LN_q`` for
    :func:`tefal.attention.project_queries_backward`."""
    texts = np.asarray(texts, dtype=np.float64)
    blocks = {name: project_queries(getattr(model, name), texts, keep)
              for name in _blocks(model)}
    columns = np.ascontiguousarray(texts.T)[:, None]
    if not keep:
        return Queries(columns, {name: q[:, None] for name, q in blocks.items()})
    return Queries(columns, {name: q[:, None] for name, (q, _) in blocks.items()},
                   {name: ln for name, (_, ln) in blocks.items()})


@dataclass
class TileTape:
    """What :func:`batch_loss_and_grads` reverses: each block's
    :class:`tefal.attention.TileCache`, what fusion saved and the cosine cache."""
    blocks: dict
    fusion: object
    cosine: object


def score_tile(model: RetrievalModel, queries: Queries, corpus: Corpus,
               cols: np.ndarray, keep: bool = False):
    """(T, C) cosine scores of query rows against candidates ``cols``; with
    ``keep``, the pair ``(scores, TileTape)``.

    ``queries`` arrays of shape (., 1, T), from :func:`query_rows`, score
    every candidate against the same T queries (a dense tile); of shape
    (., C, T), from ``queries.rows`` with a (C, T) index, entry (t, c)
    scores ``cols[c]`` against its ``t``-th query (a grouped tile).  The
    candidates are projected at once, so a caller passes at most
    ``CANDIDATE_BLOCK`` of them, except training's one batch; a dense tile
    attends in sub-tiles of at most ``TILE_PAIRS`` padded pairs, unless
    ``keep``.  Addition's two blocks pool as one product; any other kind's
    blocks pool alone and fuse post hoc.
    """
    cols = np.asarray(cols, dtype=np.intp)
    cands = {name: project_candidates(getattr(model, name), rows.T, keep)
             for name, rows in _contexts(model, corpus, cols).items()}
    # the blocks whose outputs are summed pool as one product: addition's
    # two, or any one block alone
    groups = [tuple(cands)] if _summed(model) else [(name,) for name in cands]
    rows = {g: pooling_rows([(getattr(model, n), cands[n]) for n in g]) for g in groups}

    @functools.cache
    def token_means():
        tokens = canonical_rows(corpus.audio[cols].T)
        return (sum_leading(tokens.transpose(1, 0, 2)) / tokens.shape[1])[:, :, None]

    t = queries.texts.shape[-1]
    width = max(1, len(cols) if keep or queries.texts.shape[1] > 1
                else TILE_PAIRS // padded_width(t))
    # padded once for every sub-tile; attend_tile keeps the padded columns
    q = {n: queries.blocks[n] if keep else pad_pairs(queries.blocks[n]) for n in cands}

    def sub_tile(tile):
        # a function, so that no sub-tile's outputs outlive it unless kept
        outputs, caches = {}, {}
        for g in groups:
            out, group_caches = attend_and_pool(
                [(getattr(model, n), q[n], cands[n]) for n in g], rows[g], tile, keep)
            outputs[g[0]] = out[:, :, :t]
            caches.update(zip(g, group_caches))
        fused, fusion_saved = _fuse(model, outputs, queries.texts,
                                    lambda: token_means()[:, tile], keep)
        tile_scores, cos_cache = cosine_rows(queries.texts, fused)
        return tile_scores.T, (TileTape(caches, fusion_saved, cos_cache) if keep else None)

    scores = np.empty((t, len(cols)))
    for start in range(0, len(cols), width):
        tile = slice(start, start + width)
        scores[:, tile], tape = sub_tile(tile)
    return (scores, tape) if keep else scores


def candidate_blocks(n: int) -> list[slice]:
    """Slices of ``CANDIDATE_BLOCK`` candidates that cover ``range(n)``."""
    return [slice(start, min(start + CANDIDATE_BLOCK, n))
            for start in range(0, n, CANDIDATE_BLOCK)]


def pair_tiles(cands: np.ndarray) -> list[np.ndarray]:
    """Grouped tiles of the pairs with sorted candidates ``cands``, largest group
    first, each of at most ``CANDIDATE_BLOCK`` candidates and ``TILE_PAIRS``
    padded slots (or one group): (C, W) pair slots, row c one candidate's
    pairs, then its last pair repeated up to the
    :func:`tefal.linalg.padded_width` of the tile's largest group.  A tile of
    lone pairs keeps W = 1, so that each pair is scored once."""
    _, starts, sizes = np.unique(cands, return_index=True, return_counts=True)
    largest_first = np.argsort(-sizes, kind="stable")
    starts, sizes = starts[largest_first], sizes[largest_first]
    tiles, first = [], 0
    while first < len(sizes):
        largest = int(sizes[first])
        fits = TILE_PAIRS // padded_width(largest)
        tile = slice(first, first + max(1, min(CANDIDATE_BLOCK, fits)))
        width = padded_width(largest) if largest > 1 else 1
        tiles.append(starts[tile, None] + np.minimum(np.arange(width), sizes[tile, None] - 1))
        first = tile.stop
    return tiles


def score_pairs(model: RetrievalModel, queries: Queries, corpus: Corpus,
                texts: np.ndarray, cands: np.ndarray, workers: int | None) -> np.ndarray:
    """Scores of the pairs (query ``texts[i]``, ``cands[i]``), ``cands``
    sorted, as stage 2 scores its shortlists: one :func:`score_tile` per
    :func:`pair_tiles` tile, by :func:`map_tasks`."""
    def score(slots):
        scores = score_tile(model, queries.rows(texts[slots]), corpus, cands[slots[:, 0]])
        real = np.diff(slots, axis=1, prepend=-1) > 0    # a padding slot repeats
        return slots[real], scores.T[real]

    out = np.empty(len(cands))
    for slots, scores in map_tasks(score, pair_tiles(cands), workers):
        out[slots] = scores
    return out


def resolve_workers(requested: int | None = None) -> int:
    """Worker count: ``requested``, or by default the CPUs this process may
    run on, capped by TEFAL_THREADS; a count in either that fails
    :func:`tefal.linalg.require_int` from 1 is a :class:`tefal.config.ConfigError`."""
    if requested is None:
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    else:
        require_int(requested, "threads", minimum=1, error=ConfigError)
        workers = int(requested)
    cap = os.environ.get("TEFAL_THREADS")
    if cap:
        try:
            cap_value = int(cap)
        except ValueError:
            raise ConfigError(
                f"TEFAL_THREADS must be an integer, got {cap!r}") from None
        require_int(cap_value, "TEFAL_THREADS", minimum=1, error=ConfigError)
        workers = min(workers, cap_value)
    return workers


@functools.cache
def _openblas_threads():
    """``(get, set)`` of the thread count of numpy's bundled OpenBLAS, or
    ``None`` where numpy bundles none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            try:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


# the BLAS thread count is the process's, so its users are counted here
_blas_lock = threading.Lock()
_blas_users = 0
_blas_saved = None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold the BLAS to one thread; the first of nested or concurrent users
    saves the count and the last one restores it."""
    global _blas_users, _blas_saved
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    with _blas_lock:
        if _blas_users == 0:
            _blas_saved = get()
            set_(1)
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0:
                set_(_blas_saved)


def map_tasks(fn, tasks, workers: int | None = None) -> list:
    """``[fn(task) for task in tasks]``, the tasks submitted in order to a
    pool of ``resolve_workers(workers)`` threads.  Once all are done, or
    one has failed, the results are read in task order; the first failure
    read, the first in task order, cancels the tasks not yet started and
    is raised, as the serial loop would.

    While two or more workers run, numpy's OpenBLAS runs one thread: its
    own threads, spinning between calls, would take the workers' CPUs.  The
    previous count comes back on exit.  One worker, or one task, runs on the
    calling thread and leaves the BLAS alone."""
    tasks = list(tasks)
    workers = min(resolve_workers(workers), len(tasks))
    if workers <= 1:
        return [fn(task) for task in tasks]
    with _one_blas_thread(), ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, task) for task in tasks]
        # one wake-up for the whole map, not one per task, which would
        # take the GIL from the workers as each task ends
        wait(futures, return_when=FIRST_EXCEPTION)
        try:
            return [future.result() for future in futures]
        finally:
            for future in futures:
                future.cancel()


def similarity_matrix(model: RetrievalModel, corpus: Corpus,
                      query_texts: np.ndarray | None = None,
                      candidates: np.ndarray | None = None,
                      workers: int | None = None) -> np.ndarray:
    """Dense T x V matrix of text-conditioned cosine similarities: one
    :func:`score_tile` per :func:`candidate_blocks` block, by :func:`map_tasks`
    on ``workers`` threads, each holding one tile's temporaries beside the
    shared matrix.  Tile invariance
    (:func:`tefal.attention.block_forward_tile`) makes the result the same
    for any worker count.  Candidates not integers in [0, n) raise ValueError."""
    candidates = corpus.item_indices(
        np.arange(len(corpus)) if candidates is None else candidates, "candidate")
    queries = query_rows(model, corpus.texts if query_texts is None else query_texts)
    out = np.empty((queries.texts.shape[-1], len(candidates)))

    def score_block(block):
        out[:, block] = score_tile(model, queries, corpus, candidates[block])

    map_tasks(score_block, candidate_blocks(len(candidates)), workers)
    return out


def batch_loss_and_grads(model: RetrievalModel, corpus: Corpus,
                         indices: np.ndarray):
    """``(loss, grads, sim)``: symmetric InfoNCE loss and parameter
    gradients for one mini-batch, scored as one (B, B) :func:`score_tile`.
    So ``sim`` equals :func:`similarity_matrix` of the batch bit for bit
    (:func:`tefal.attention.block_forward_tile`).  The texts and the video
    and audio contexts are corpus rows, so no gradient is formed for them.
    Indices not integers in [0, n) raise ValueError."""
    indices = corpus.item_indices(indices, "batch item")
    queries = query_rows(model, corpus.texts[indices], keep=True)
    sim, tape = score_tile(model, queries, corpus, indices, keep=True)

    loss, d_sim, d_log_scale = infonce(sim, model.temperature)

    grads: dict[str, np.ndarray] = {"temperature.log_scale": d_log_scale}

    def add(prefix, block_grads):
        grads.update({f"{prefix}.{k}": v for k, v in block_grads.items()})

    d_fused = cosine_rows_backward(d_sim.T, tape.cosine)
    d_cond = {"video": d_fused, "audio": d_fused}
    if tape.fusion is not None:
        own, d_cond["video"], d_cond["audio"] = fuse_backward(model.fusion, tape.fusion, d_fused)
        add("fusion", own)
    for name, cache in tape.blocks.items():
        params = getattr(model, name)
        block_grads, d_q, _ = block_backward_tile(params, cache, d_cond[name], context_grad=False)
        add(name, block_grads)
        add(name, project_queries_backward(params, queries.ln[name], d_q.sum(axis=1)))
    return loss, grads, sim
