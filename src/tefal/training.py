"""Mini-batch contrastive training.

One step: pairwise forward over the batch, symmetric InfoNCE loss, explicit
backward, global gradient-norm clipping, and an Adam update with decoupled
weight decay and optional cosine learning-rate decay.  Batches are drawn
without replacement each epoch and the last partial batch is dropped.
Everything is deterministic given the seed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, TrainConfig
from .corpus import Corpus
from .model import (
    RetrievalModel,
    batch_loss_and_grads,
    create_model,
    named_parameters,
    uses_summary_rows,
)
from .ranking import evaluate

__all__ = ["TrainingDiverged", "AdamW", "TrainResult", "train"]


class TrainingDiverged(RuntimeError):
    """The loss became non-finite; carries the step and batch item ids."""


class AdamW:
    """Adam with decoupled weight decay over a dict of named parameters,
    updated in place; ``steps`` counts the updates made.

    The moments are one flat vector each, in the order of the first step's
    ``params``, which every later step must repeat.  Each update runs once
    over the concatenated gradients; it is elementwise, so the parameters
    get the bits of one update per array.
    """

    def __init__(self, learning_rate: float = 1e-4, beta1: float = 0.9,
                 beta2: float = 0.98, eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.steps = 0
        self._names: list[str] = []
        self._m = self._v = np.zeros(0)

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             lr_scale: float = 1.0) -> None:
        if not self.steps:
            self._names = list(params)
            self._m = np.zeros(sum(param.size for param in params.values()))
            self._v = np.zeros_like(self._m)
        elif list(params) != self._names:
            raise ValueError("AdamW.step needs the parameter names of its first "
                             "step, in the same order")
        t = self.steps + 1
        g = _concat(grads[name] for name in params)
        m, v = self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        m_hat = m / (1.0 - self.beta1 ** t)
        v_hat = v / (1.0 - self.beta2 ** t)
        update = m_hat / (np.sqrt(v_hat) + self.eps)
        if self.weight_decay:
            update += self.weight_decay * _concat(params.values())
        update *= self.learning_rate * lr_scale
        for name, part in _views(update, params).items():
            params[name] -= part
        self.steps = t


def _concat(arrays) -> np.ndarray:
    """The arrays raveled and concatenated in order (empty for none)."""
    return np.concatenate([np.zeros(0), *(a.ravel() for a in arrays)])


def _views(flat: np.ndarray, arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Each array's part of ``flat``, their :func:`_concat`, shaped like it."""
    views, start = {}, 0
    for name, a in arrays.items():
        views[name] = flat[start:start + a.size].reshape(a.shape)
        start += a.size
    return views


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float):
    """``(clipped, norm)``: ``grads`` itself when its L2 norm is at most
    ``max_norm``, else each array scaled by ``max_norm / norm``; and the
    pre-clip norm.  The norm adds each array's own sum of squares in order,
    so it has the bits of a per-array norm for any memory layout."""
    norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
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
    """Train a model on ``corpus``.  The per-epoch log holds the mean loss,
    tau, mean pre-clip gradient norm and mean learning-rate scale (and an
    R@1 probe every ``eval_every`` epochs), and no wall times."""
    config.validate()
    for key, value in corpus.geometry.items():
        if getattr(config, key) != value:
            raise ConfigError(f"the corpus has {key} {value} but config.{key} is "
                              f"{getattr(config, key)}")
    if config.batch_size > len(corpus):
        raise ConfigError(
            f"batch_size {config.batch_size} exceeds corpus size {len(corpus)}")

    model = create_model(
        seed=config.seed, dim=config.dim, proj_dim=config.proj_dim,
        fusion=config.fusion, modality=config.modality,
        tau=config.temperature_init)
    if uses_summary_rows(model) and corpus.summary_tokens is None:
        raise ConfigError("stacking fusion needs audio summary rows, which this "
                          "corpus does not carry")
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
        entry = {"epoch": epoch, "loss": float(np.mean(losses)),
                 "tau": model.temperature.value, "grad_norm": float(np.mean(grad_norms)),
                 "lr_scale": float(np.mean(lr_scales))}
        if config.eval_every and (epoch + 1) % config.eval_every == 0:
            probe = evaluate(model, corpus)
            entry["r1_t2v"] = probe.t2v.r1
        history.append(entry)

    return TrainResult(model=model, history=history, config=config,
                       steps=optimizer.steps)
