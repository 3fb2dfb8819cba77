"""Mini-batch contrastive training and the evaluation entry point.

One step: pairwise forward over the batch (every candidate conditioned on
every query text), symmetric InfoNCE loss, explicit backward, global
gradient-norm clipping, and an Adam update with decoupled weight decay and
optional cosine learning-rate decay.  Batches are drawn without replacement
each epoch and the last partial batch is dropped, so the in-batch negative
count is stable.  Everything is deterministic given the seed.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import ConfigError, TrainConfig
from .corpus import Corpus
from .model import (
    RetrievalModel,
    batch_loss_and_grads,
    create_model,
    named_parameters,
)
from .ranking import (
    EvalStats,
    RankingMetrics,
    check_dsl_temp,
    compute_metrics,
    dual_softmax_postprocess,
    rank_exhaustive,
    ranks_from_similarity,
    rerank_both_directions,
    resolve_workers,
)

__all__ = ["TrainingDiverged", "AdamW", "TrainResult", "EvalResult",
           "train", "evaluate"]


class TrainingDiverged(RuntimeError):
    """The loss became non-finite; carries the step and batch item ids."""


class AdamW:
    """Adam with decoupled weight decay over a dict of named parameters,
    updated in place; ``steps`` counts the updates made."""

    def __init__(self, learning_rate: float = 1e-4, beta1: float = 0.9,
                 beta2: float = 0.98, eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.steps = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             lr_scale: float = 1.0) -> None:
        t = self.steps + 1
        lr = self.learning_rate * lr_scale
        for name, param in params.items():
            g = grads[name]
            m = self._m.setdefault(name, np.zeros_like(param))
            v = self._v.setdefault(name, np.zeros_like(param))
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            param -= lr * (m_hat / (np.sqrt(v_hat) + self.eps)
                           + self.weight_decay * param)
        self.steps = t


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float):
    """``(clipped, norm)``: ``grads`` scaled so their global L2 norm is at
    most ``max_norm``, and the pre-clip norm.  The squares are summed in
    ``grads``' order; the inputs are never written to."""
    norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
    if norm > max_norm:
        grads = {name: g * (max_norm / norm) for name, g in grads.items()}
    return grads, norm


@dataclass
class TrainResult:
    model: RetrievalModel
    history: list[dict]
    config: TrainConfig
    steps: int = 0


def train(config: TrainConfig, corpus: Corpus) -> TrainResult:
    """Train a model described by ``config`` on ``corpus``.

    Returns the trained model with a per-epoch log: mean loss, temperature,
    mean pre-clip gradient norm and mean learning-rate scale over the
    epoch's steps (plus R@1 probes when ``eval_every`` is set).  The log
    holds no wall times, so the same config gives the same log.
    """
    config.validate()
    if corpus.dim != config.dim:
        raise ConfigError(
            f"corpus embeds {corpus.dim} dims but config.dim is {config.dim}")
    if config.fusion == "stacking" and corpus.summary_tokens is None:
        raise ConfigError("stacking fusion needs audio summary rows, which this "
                          "corpus does not carry")
    if config.batch_size > len(corpus):
        raise ConfigError(
            f"batch_size {config.batch_size} exceeds corpus size {len(corpus)}")

    model = create_model(
        seed=config.seed, dim=config.dim, proj_dim=config.proj_dim,
        fusion=config.fusion, modality=config.modality,
        tau=config.temperature_init, output_affine=config.output_affine)
    params = named_parameters(model, trainable_only=True)
    optimizer = AdamW(learning_rate=config.learning_rate, beta1=config.beta1,
                      beta2=config.beta2, eps=config.adam_eps,
                      weight_decay=config.weight_decay)

    shuffle_rng = np.random.default_rng(config.seed)
    steps_per_epoch = len(corpus) // config.batch_size
    total_steps = max(1, config.epochs * steps_per_epoch)
    history: list[dict] = []

    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(corpus))
        losses, grad_norms, lr_scales = [], [], []
        for b in range(steps_per_epoch):
            batch = order[b * config.batch_size:(b + 1) * config.batch_size]
            loss, grads, _ = batch_loss_and_grads(model, corpus, batch)
            if not math.isfinite(loss):
                ids = [corpus.ids[i] for i in batch]
                raise TrainingDiverged(
                    f"non-finite loss at step {optimizer.steps} (epoch {epoch}); "
                    f"batch items: {ids}")
            # the norm sums in parameter order
            grads, norm = clip_global_norm({name: grads[name] for name in params},
                                           config.grad_clip)
            grad_norms.append(norm)
            lr_scale = (0.5 * (1.0 + math.cos(math.pi * optimizer.steps / total_steps))
                        if config.cosine_decay else 1.0)
            optimizer.step(params, grads, lr_scale)
            model.temperature.project_()
            losses.append(loss)
            lr_scales.append(lr_scale)
        entry = {"epoch": epoch, "loss": float(np.mean(losses)) if losses else None,
                 "tau": model.temperature.value,
                 "grad_norm": float(np.mean(grad_norms)) if grad_norms else None,
                 "lr_scale": float(np.mean(lr_scales)) if lr_scales else None}
        if config.eval_every and (epoch + 1) % config.eval_every == 0:
            probe = evaluate(model, corpus, workers=config.threads)
            entry["r1_t2v"] = probe.t2v.r1
        history.append(entry)

    return TrainResult(model=model, history=history, config=config,
                       steps=optimizer.steps)


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
            "k": self.k,
            "postprocess": self.postprocess,
            "metrics": {"t2v": self.t2v.as_dict(), "v2t": self.v2t.as_dict()},
            "stats": asdict(self.stats),
            "ranks": {"t2v": [int(r) for r in self.ranks_t2v],
                      "v2t": [int(r) for r in self.ranks_v2t]},
        }


def evaluate(model: RetrievalModel, corpus: Corpus, k: int | None = None,
             dsl_temp: float | None = None, workers: int = 1) -> EvalResult:
    """Rank the corpus in both directions and aggregate metrics.

    ``k`` switches from exhaustive scoring to two-stage re-ranking with a
    k-item shortlist (:func:`tefal.ranking.rerank_both_directions`): a
    (text, video) pair that both directions shortlist is scored once, and
    ``stats.stage2_model_evals`` counts the distinct pairs scored, at most
    2·n·k.  ``dsl_temp`` enables dual-softmax re-scoring of the dense
    matrix, which requires the exhaustive path.  A bad ``dsl_temp``, or one
    given with ``k``, is rejected before any scoring.
    """
    if len(corpus) == 0:
        raise ValueError("cannot evaluate an empty corpus")
    if dsl_temp is not None:
        check_dsl_temp(dsl_temp)
        if k is not None:
            raise ValueError("dual-softmax post-processing needs the dense "
                             "similarity matrix; drop k or drop dsl_temp")
    workers = resolve_workers(workers)
    n = len(corpus)
    postprocess: list[str] = []

    if k is None:
        result = rank_exhaustive(model, corpus, workers=workers)
        sim = result.sim
        stats = result.stats
        if dsl_temp is not None:
            postprocess.append(f"dsl(temp={dsl_temp:g})")
            ranks_t2v = ranks_from_similarity(
                dual_softmax_postprocess(sim, dsl_temp), corpus.ids)
            ranks_v2t = ranks_from_similarity(
                dual_softmax_postprocess(sim.T, dsl_temp), corpus.ids)
        else:
            ranks_t2v = result.ranks
            ranks_v2t = ranks_from_similarity(sim.T, corpus.ids)
    else:
        ranks_t2v, ranks_v2t, stats = rerank_both_directions(model, corpus, k,
                                                             workers=workers)

    return EvalResult(
        t2v=compute_metrics(ranks_t2v, n, "t2v"),
        v2t=compute_metrics(ranks_v2t, n, "v2t"),
        ranks_t2v=ranks_t2v,
        ranks_v2t=ranks_v2t,
        stats=stats,
        postprocess=postprocess,
        k=k,
    )
