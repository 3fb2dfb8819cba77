"""Finite-difference verification of every backward rule in the engine.

Each check perturbs every coordinate of every input/parameter with central
differences and compares against the analytic gradients, reporting the worst
relative error (see :func:`relative_error`) against ``PRIMITIVE_TOL``, or
the looser ``END_TO_END_TOL`` for the loss checks, which stack many rules.
"""

from dataclasses import dataclass

import numpy as np

from .attention import (
    XAttnParams,
    block_backward_tile,
    block_forward_tile,
    project_queries,
    project_queries_backward,
)
from .contrastive import Temperature, cosine_rows, cosine_rows_backward, infonce
from .corpus import synth_corpus
from .fusion import FusionKind, FusionParams, fuse_backward, fuse_forward
from .linalg import (layernorm_rows, layernorm_rows_backward, require_int, softmax_rows,
                     softmax_rows_backward)
from .model import (MODEL_KINDS, batch_loss_and_grads, create_model, named_parameters,
                    query_rows, score_tile)

__all__ = ["CheckResult", "run_grad_checks", "end_to_end_check", "relative_error",
           "finite_difference_gradients"]

PRIMITIVE_TOL = 1e-4
END_TO_END_TOL = 1e-3
FD_STEP = 1e-5


@dataclass
class CheckResult:
    name: str
    error: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.error < self.threshold


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max elementwise |a - n| / max(|a|, |n|, 1e-3); the floor makes the
    measure absolute near zero, where a pure ratio would amplify
    finite-difference noise on vanishing gradients."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
    return float(np.max(np.abs(analytic - numeric) / denom))


def finite_difference_gradients(forward, inputs):
    """Central-difference gradients of the scalar ``forward()`` w.r.t. every
    array of ``inputs``, each perturbed in place and restored."""
    grads = []
    for x in inputs:
        g = np.zeros_like(x)
        for i in range(x.size):
            orig = x.flat[i]
            x.flat[i] = orig + FD_STEP
            hi = forward()
            x.flat[i] = orig - FD_STEP
            lo = forward()
            x.flat[i] = orig
            g.flat[i] = (hi - lo) / (2.0 * FD_STEP)
        grads.append(g)
    return grads


def _fd_scalar(arrays: dict, forward, analytic: dict) -> float:
    """Worst relative error between ``analytic`` grads and central
    differences of ``forward()`` w.r.t. every array in ``arrays``."""
    numeric = finite_difference_gradients(forward, list(arrays.values()))
    return max(relative_error(analytic[name], g) for name, g in zip(arrays, numeric))


def _primitive_check(forward, backward, arrays: dict, seed: int) -> float:
    """A primitive ``forward(*arrays)`` against its ``backward(d_out, out)``,
    which returns one gradient per array, under the fixed cotangent drawn
    from ``default_rng(seed)``."""
    out = forward(*arrays.values())
    d_out = np.random.default_rng(seed).standard_normal(out.shape)
    analytic = dict(zip(arrays, backward(d_out, out)))
    return _fd_scalar(arrays, lambda: float(np.sum(d_out * forward(*arrays.values()))),
                      analytic)


def _block_tile_check(seed: int, sets: int) -> float:
    """The tile kernel on C=2 candidates of 3 rows and T=2 queries, from 1
    query set shared by both (dense) or 2, one each (grouped).  ``q_shift``
    is added to the query projections, so its gradient is the ``d_q`` of
    :func:`block_backward_tile` summed over the candidates of a set.  The
    context rows are laid out in reverse canonical order, so ``d_contexts``
    must be mapped back out of it.  ``LN_o``'s gain and bias are drawn, as
    1 and 0 would hide a misplaced gain."""
    rng = np.random.default_rng(seed)
    params = XAttnParams.create(rng, 6, 4)
    params.ln_o_gain, params.ln_o_bias = rng.uniform(0.5, 1.5, (2, 1, 4))
    texts = rng.standard_normal((2 * sets, 6))
    contexts = rng.standard_normal((6, 3, 2))
    cotangent = rng.standard_normal((4, 2, 2))
    q_shift = np.zeros((4, sets, 2))

    def tile():
        q = project_queries(params, texts).reshape(4, sets, 2) + q_shift
        return block_forward_tile(params, q, contexts)

    order = tile()[1].order
    contexts[...] = np.take(contexts.reshape(6, -1), order[::-1], axis=1)
    _, cache = tile()
    grads, d_q, d_contexts = block_backward_tile(params, cache, cotangent)
    d_q = d_q.reshape(4, sets, -1, 2).sum(axis=2)
    _, ln = project_queries(params, texts, keep=True)
    grads.update(project_queries_backward(params, ln, d_q.reshape(4, -1)))
    arrays = {**params.named(), "q": q_shift, "contexts": contexts}
    analytic = {**grads, "q": d_q, "contexts": d_contexts}

    def forward():
        return float(np.sum(cotangent * tile()[0]))

    return _fd_scalar(arrays, forward, analytic)


def _fusion_check(kind: FusionKind, seed: int) -> float:
    rng = np.random.default_rng(seed)
    dim, proj = 5, 5
    params = FusionParams.create(rng, kind, dim, proj)
    video_cond = rng.standard_normal((proj, 2))     # pair-last: 2 pairs
    audio_cond = rng.standard_normal((proj, 2))
    texts = rng.standard_normal((2, dim))
    token_mean = rng.standard_normal((dim, 2))
    cotangent = rng.standard_normal((proj, 2))

    inputs = (video_cond, token_mean if kind == FusionKind.LATE else audio_cond, texts.T)

    _, saved = fuse_forward(params, *inputs, keep=True)
    own, d_video, d_audio = fuse_backward(params, saved, cotangent)
    arrays = {f"param.{k}": v for k, v in params.named().items()}
    analytic = {f"param.{k}": v for k, v in own.items()}
    arrays["video_cond"] = video_cond
    analytic["video_cond"] = d_video
    if d_audio is not None:
        arrays["audio_cond"] = audio_cond
        analytic["audio_cond"] = d_audio

    def forward():
        fused, _ = fuse_forward(params, *inputs)
        return float(np.sum(cotangent * fused))

    return _fd_scalar(arrays, forward, analytic)


def end_to_end_check(fusion: str = "addition", modality: str = "both",
                     seed: int = 0) -> float:
    """Finite differences through the whole training loss on a toy model
    (D = 8, 3 frames, 5 audio tokens, a batch of 2).  Under xattn fusion the
    batch grows (up to 8) until the xattn tile reorders some pair's context
    [e_v, e_a], so that the check runs through the kernel's inverse
    permutation (seed 0 needs 4)."""
    model = create_model(seed=seed, dim=8, fusion=fusion, modality=modality)
    for batch in range(2, 9):
        corpus = synth_corpus(seed=seed + 1, n_items=max(4, batch), dim=8,
                              frames=3, audio_tokens=5,
                              audio_informative=0.5, noise=0.3)
        indices = np.arange(batch)
        if model.fusion.kind != FusionKind.XATTN:
            break
        tape = score_tile(model, query_rows(model, corpus.texts[indices]), corpus,
                          indices, keep=True)[1]
        order = tape.fusion[0].order
        if np.any(order != np.arange(order.size).reshape(order.shape)):
            break
    else:
        raise ValueError(f"no batch up to 8 reorders an xattn context at seed {seed}")
    _, grads, _ = batch_loss_and_grads(model, corpus, indices)
    params = named_parameters(model, trainable_only=True)

    def forward():
        loss, _, _ = batch_loss_and_grads(model, corpus, indices)
        return loss

    return _fd_scalar(params, forward, grads)


def run_grad_checks(seed: int = 0) -> list[CheckResult]:
    """The full verification suite, primitive rules through end-to-end loss;
    a ``seed`` that is no integer >= 0 raises ValueError."""
    require_int(seed, "seed")
    rng = np.random.default_rng(seed)
    logits, m, gain, bias, u, f = (rng.standard_normal(shape) for shape in (
        (2, 5), (2, 8), (1, 8), (1, 8), (4, 3), (4, 3)))    # u, f: 3 pairs, pair-last
    sim, log_scale = rng.uniform(-1.0, 1.0, size=(3, 3)), Temperature.from_tau(5.0).log_scale
    results = [
        CheckResult("softmax_rows", _primitive_check(
            softmax_rows, lambda d_out, out: [softmax_rows_backward(d_out, out)],
            {"m": logits}, seed), PRIMITIVE_TOL),
        CheckResult("layernorm_rows", _primitive_check(
            layernorm_rows, lambda d_out, out: layernorm_rows_backward(d_out, m, gain),
            {"m": m, "gain": gain, "bias": bias}, seed), PRIMITIVE_TOL),
        CheckResult("attention_block", _block_tile_check(seed, sets=1), PRIMITIVE_TOL),
        CheckResult("attention_block_tile", _block_tile_check(seed, sets=2), PRIMITIVE_TOL),
        CheckResult("cosine_similarity", _primitive_check(
            lambda f: cosine_rows(u, f)[0],
            lambda d_out, out: [cosine_rows_backward(d_out, cosine_rows(u, f)[1])],
            {"f": f}, seed), PRIMITIVE_TOL),
        CheckResult("infonce", _primitive_check(
            lambda sim, log_scale: np.asarray(infonce(sim, Temperature(log_scale))[0]),
            lambda d_out, out: [d_out * g for g in infonce(sim, Temperature(log_scale))[1:]],
            {"sim": sim, "log_scale": log_scale}, seed), PRIMITIVE_TOL),
    ]
    for kind in (FusionKind.LATE, FusionKind.CONCAT_FC, FusionKind.XATTN):
        results.append(CheckResult(
            f"fusion_{kind.value}", _fusion_check(kind, seed), PRIMITIVE_TOL))
    for modality, fusion in MODEL_KINDS:
        name = fusion if modality == "both" else f"{modality}_only"
        results.append(CheckResult(f"end_to_end_{name}", end_to_end_check(
            fusion, modality, seed), END_TO_END_TOL))
    return results
