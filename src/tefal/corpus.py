"""In-memory corpus of aligned text / video-frame / audio-token embeddings.

Items are stored as uniform arrays (every item has the same frame count and
audio token count, matching the on-disk container).  Missing audio is
represented by all-zero token rows with the ``has_audio`` flag cleared.
The entry points are :class:`Corpus`, whose construction checks every rule
a corpus keeps, :func:`audio_summary`, and :func:`synth_corpus`, a
controlled benchmark in which audio complements video.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import ShapeError, as_matrix, is_integer, require_int, require_real

__all__ = ["Corpus", "audio_summary", "synth_corpus"]


def audio_summary(cls_row: np.ndarray, dist_row: np.ndarray) -> np.ndarray:
    """Elementwise mean of the audio encoder's class and distillation rows."""
    cls_row = as_matrix(cls_row, "cls_row")
    dist_row = as_matrix(dist_row, "dist_row")
    if cls_row.shape != dist_row.shape:
        raise ShapeError(f"summary rows have shapes {cls_row.shape} and {dist_row.shape}")
    return (cls_row + dist_row) / 2.0


@dataclass
class Corpus:
    """Aligned embeddings, one per item: ``texts`` (n, D), ``frames``
    (n, F, D), ``audio`` (n, N_a, D), and optionally ``summary_tokens``,
    the audio class/distillation rows (n, 2, D) that stacking reads.

    Construction checks the rules: at least one item, unique ``str`` ids,
    one entry per item in every array, at least one frame and one audio
    token of at least one feature per item, one dim throughout, and
    ``has_audio`` one bool per item."""

    ids: list[str]
    texts: np.ndarray
    frames: np.ndarray
    audio: np.ndarray
    has_audio: np.ndarray
    summary_tokens: np.ndarray | None = None
    _summary_rows: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.ids)
        if n == 0:
            raise ShapeError("a corpus holds at least one item")
        not_str = [item_id for item_id in self.ids if not isinstance(item_id, str)]
        if not_str:
            raise ValueError(f"item ids must be strings, got {not_str[0]!r}")
        if len(set(self.ids)) != n:
            raise ValueError("item ids must be unique")
        if self.texts.shape[0] != n or self.frames.shape[0] != n or self.audio.shape[0] != n:
            raise ShapeError("texts, frames, and audio must have one entry per item")
        if self.texts.ndim != 2 or self.frames.ndim != 3 or self.audio.ndim != 3:
            raise ShapeError("texts must be (n, D); frames and audio must be (n, rows, D)")
        # C-contiguous, as a strided row sums in another order (LN_q, stage 1)
        self.texts, self.frames, self.audio = map(np.ascontiguousarray,
                                                  (self.texts, self.frames, self.audio))
        self.has_audio = np.asarray(self.has_audio)
        if self.has_audio.shape != (n,) or self.has_audio.dtype != bool:
            raise ShapeError(f"has_audio must be ({n},) bools, got {self.has_audio.dtype} "
                             f"of shape {self.has_audio.shape}")
        dim = self.texts.shape[1]
        if self.frames.shape[2] != dim or self.audio.shape[2] != dim:
            raise ShapeError(
                f"embedding dims disagree: text {dim}, frames {self.frames.shape[2]}, "
                f"audio {self.audio.shape[2]}")
        if min(dim, self.frame_count, self.audio_token_count) < 1:
            raise ShapeError(f"each item needs a frame and an audio token, each of one "
                             f"feature or more, got frames {self.frames.shape[1:]} and "
                             f"audio {self.audio.shape[1:]} per item")
        if self.summary_tokens is not None and (
                self.summary_tokens.shape != (n, 2, dim)):
            raise ShapeError(
                f"summary tokens must be (n, 2, {dim}), got {self.summary_tokens.shape}")

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.texts.shape[1]

    @property
    def frame_count(self) -> int:
        return self.frames.shape[1]

    @property
    def audio_token_count(self) -> int:
        return self.audio.shape[1]

    @property
    def n_audios(self) -> int:
        return int(np.sum(self.has_audio))

    @property
    def geometry(self) -> dict[str, int]:
        """The :class:`tefal.config.TrainConfig` fields the items fix; the
        cosine compares text rows with fused embeddings, so ``proj_dim`` is
        ``dim``."""
        return {"dim": self.dim, "proj_dim": self.dim, "frames": self.frame_count,
                "audio_tokens": self.audio_token_count}

    def item_indices(self, indices, name: str = "item") -> np.ndarray:
        """``indices`` as a 1-D array, each an integer in [0, n); else a
        ValueError names the first bad index, calling the indices ``name``."""
        indices, n = np.asarray(indices), len(self)
        if indices.ndim != 1 or indices.size and not is_integer(indices):
            raise ValueError(f"{name}s must be integer indices along one axis, got "
                             f"{indices.dtype} of shape {indices.shape}")
        outside = indices[(indices < 0) | (indices >= n)]
        if len(outside):
            raise ValueError(f"{name} index {outside[0]} is outside [0, {n})")
        return indices

    def summary_rows(self) -> np.ndarray:
        """Per-item audio summary rows (n, D): mean of class and dist rows."""
        if self.summary_tokens is None:
            raise ValueError("corpus has no audio summary tokens; the stacking "
                             "fusion variant is unavailable")
        if self._summary_rows is None:
            self._summary_rows = audio_summary(self.summary_tokens[:, 0, :],
                                               self.summary_tokens[:, 1, :])
        return self._summary_rows

    def subset(self, indices) -> "Corpus":
        """The items at ``indices``, which :meth:`Corpus.item_indices` checks."""
        indices = self.item_indices(indices).astype(np.intp)
        return Corpus(
            ids=[self.ids[i] for i in indices],
            texts=self.texts[indices],
            frames=self.frames[indices],
            audio=self.audio[indices],
            has_audio=self.has_audio[indices],
            summary_tokens=None if self.summary_tokens is None
            else self.summary_tokens[indices],
        )


def synth_corpus(seed: int, n_items: int = 1000, dim: int = 32, frames: int = 4,
                 audio_tokens: int = 8, audio_informative: float = 0.5,
                 noise: float = 0.7) -> Corpus:
    """Deterministic synthetic corpus with controllable audio usefulness.

    ``audio_informative`` is the fraction of items whose audio tokens carry
    a second latent present in the text but absent from every frame; the
    remaining items get uninformative noise tokens.  At 0 the audio channel
    is useless for retrieval; near 1 with small ``noise`` it alone retrieves
    well above chance.

    Text and frames share one basis (their real encoders are pre-aligned);
    the audio tokens render their latent through a fixed random rotation,
    mimicking an audio encoder whose space is unaligned with the text/video
    space and must be mapped by the audio block's projections.

    The counts and ``seed`` follow :func:`tefal.linalg.require_int` (counts
    from 1), ``audio_informative`` and ``noise`` :func:`tefal.linalg.require_real`.
    """
    require_real(audio_informative, "audio_informative")
    if not 0.0 <= audio_informative <= 1.0:
        raise ValueError(f"audio_informative must be in [0, 1], got {audio_informative}")
    for name, count in (("n_items", n_items), ("dim", dim), ("frames", frames),
                        ("audio_tokens", audio_tokens)):
        require_int(count, name, minimum=1)
    require_real(noise, "noise")
    require_int(seed, "seed")

    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(dim)

    def draw(*shape):
        return rng.standard_normal(shape) * scale

    primary = draw(n_items, dim)
    secondary = draw(n_items, dim)
    informative = np.zeros(n_items, dtype=bool)
    informative[rng.permutation(n_items)[:round(audio_informative * n_items)]] = True

    texts = primary + np.where(informative[:, None], secondary, 0.0) \
        + noise * draw(n_items, dim)

    n_distract = frames // 3
    frame_arr = primary[:, None, :] + noise * draw(n_items, frames, dim)
    if n_distract:
        frame_arr[:, frames - n_distract:, :] = draw(n_items, n_distract, dim)

    rotation = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    n_carrier = max(1, audio_tokens // 2)
    audio_arr = draw(n_items, audio_tokens, dim)
    carrier = (secondary @ rotation)[:, None, :] + noise * draw(n_items, n_carrier, dim)
    audio_arr[informative, :n_carrier, :] = carrier[informative]

    token_mean = audio_arr.mean(axis=1)
    summary_tokens = token_mean[:, None, :] + 0.5 * noise * draw(n_items, 2, dim)

    return Corpus(
        ids=[f"item{i:05d}" for i in range(n_items)],
        texts=texts,
        frames=frame_arr,
        audio=audio_arr,
        has_audio=np.ones(n_items, dtype=bool),
        summary_tokens=summary_tokens,
    )
