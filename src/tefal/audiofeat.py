"""Raw-audio front end: adaptive-shift log-Mel filter bank and patch geometry.

The downstream audio encoder expects a fixed number of filter-bank frames
per clip.  Instead of truncating or padding long clips, the hop between
analysis windows is chosen per clip:

    f_shift [ms] = n_frm * 1000 / (sr * L_tar)

so that exactly ``L_tar`` frames tile the signal regardless of duration.
Filter-bank conventions follow the audio encoder family this front end
feeds: 16 kHz input, 25 ms Hamming windows, 128 triangular Mel filters on
the HTK scale spanning 0-8 kHz, natural log with a 1e-10 floor.
"""

import io
import wave
import warnings
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .linalg import require_int

__all__ = [
    "Waveform", "MelFilterBank", "PatchGrid",
    "adaptive_frame_shift", "compute_fbank", "zero_fbank",
    "patch_grid", "patch_count", "mel_filter_matrix",
    "hz_to_mel", "mel_to_hz", "read_wav",
    "SAMPLE_RATE", "LOG_FLOOR",
]

SAMPLE_RATE = 16_000
LOG_FLOOR = 1e-10
DEFAULT_TARGET_LENGTH = 1024
DEFAULT_N_MELS = 128
WINDOW_MS = 25.0
DEFAULT_PATCH = 16
DEFAULT_STRIDE = 10
MEL_F_MAX = 8000.0
# frames windowed and transformed at a time by compute_fbank
FFT_BLOCK_ROWS = 128


class AudioFormatError(ValueError):
    """Input audio does not meet the front end's requirements."""


@dataclass
class Waveform:
    """Mono PCM samples in [-1, 1] at a known sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64).reshape(-1)
        if self.samples.size == 0:
            raise AudioFormatError("waveform is empty")
        require_int(self.sample_rate, "sample_rate", minimum=1, error=AudioFormatError)
        peak = float(np.max(np.abs(self.samples)))
        if not peak <= 1.0:
            finite = np.isfinite(self.samples)
            if not finite.all():
                index = int(np.argmin(finite))
                raise AudioFormatError(
                    f"sample {index} is not finite ({self.samples[index]})")
            raise AudioFormatError(f"samples must lie in [-1, 1]; peak is {peak:.4g}")

    @property
    def n_frm(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass
class MelFilterBank:
    """Log-Mel energies, exactly ``target_length`` rows per clip."""

    frames: np.ndarray           # (L_tar, n_mels)
    frame_shift_ms: float
    missing: bool = False        # all-zero stand-in for absent audio

    @property
    def target_length(self) -> int:
        return self.frames.shape[0]

    @property
    def n_mels(self) -> int:
        return self.frames.shape[1]


@dataclass
class PatchGrid:
    """Geometry of overlapping patches tiling a (time, mel) feature map."""

    patch: int
    stride: int
    n_time: int
    n_freq: int

    @property
    def count(self) -> int:
        return self.n_time * self.n_freq


def adaptive_frame_shift(n_frm: int, sr: int, l_tar: int) -> float:
    """Per-clip hop in milliseconds yielding exactly ``l_tar`` frames."""
    for name, value in (("n_frm", n_frm), ("sr", sr), ("l_tar", l_tar)):
        require_int(value, name, minimum=1)
    return n_frm * 1000.0 / (sr * l_tar)


def hz_to_mel(f):
    """HTK-scale Mel value of each frequency in hertz, as a float64 array."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    """Frequency in hertz of each HTK-scale Mel value; inverts :func:`hz_to_mel`."""
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filter_matrix(n_mels: int, n_fft: int, sr: int) -> np.ndarray:
    """Triangular HTK-scale filters over the rfft bins from 0 Hz to
    ``MEL_F_MAX``, shape (n_mels, bins)."""
    bin_freqs = np.arange(n_fft // 2 + 1) * (sr / n_fft)
    edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(MEL_F_MAX), n_mels + 2))
    left, center, right = edges[:-2], edges[1:-1], edges[2:]
    up = (bin_freqs[None, :] - left[:, None]) / (center - left)[:, None]
    down = (right[:, None] - bin_freqs[None, :]) / (right - center)[:, None]
    return np.clip(np.minimum(up, down), 0.0, None)


@lru_cache(maxsize=8)
def _frame_constants(window: int, n_fft: int, n_mels: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The Hamming window and the Mel filters of ``compute_fbank`` for one
    window length, FFT length and filter count, built once and shared
    read-only."""
    constants = (np.hamming(window), mel_filter_matrix(n_mels, n_fft, SAMPLE_RATE))
    for array in constants:
        array.setflags(write=False)
    return constants


def compute_fbank(w: Waveform, target_length: int = DEFAULT_TARGET_LENGTH,
                  n_mels: int = DEFAULT_N_MELS) -> MelFilterBank:
    """Log-Mel filter bank with the clip-adaptive frame shift.

    Frame ``k`` starts at ``round(k * f_shift * sr / 1000)`` samples; windows
    running past the end of the signal are zero-padded, which guarantees the
    row count.  Clips shorter than one ``WINDOW_MS`` analysis window are
    zero-padded to a single window (with a warning) rather than rejected.
    """
    if w.sample_rate != SAMPLE_RATE:
        raise AudioFormatError(
            f"expected {SAMPLE_RATE} Hz input, got {w.sample_rate} Hz; "
            "resample upstream before feature extraction")
    require_int(target_length, "target_length", minimum=1)
    require_int(n_mels, "n_mels", minimum=1)
    window = round(SAMPLE_RATE * WINDOW_MS / 1000.0)
    samples = w.samples
    if samples.size < window:
        warnings.warn(
            f"clip of {samples.size} samples is shorter than one {window}-sample "
            "window; zero-padding", stacklevel=2)
        samples = np.concatenate([samples, np.zeros(window - samples.size)])

    n_frm = samples.size
    f_shift = adaptive_frame_shift(n_frm, SAMPLE_RATE, target_length)
    starts = np.round(np.arange(target_length) * f_shift * SAMPLE_RATE / 1000.0
                      ).astype(np.int64)
    padded = np.concatenate([samples, np.zeros(max(0, starts[-1] + window - n_frm))])
    windows = sliding_window_view(padded, window)

    n_fft = 1 << (window - 1).bit_length()
    hamming, filters = _frame_constants(window, n_fft, n_mels)
    spectrum = np.empty((target_length, n_fft // 2 + 1))
    # windowed frames, zero-padded to the FFT length in place
    frames = np.zeros((min(FFT_BLOCK_ROWS, target_length), n_fft))
    for lo in range(0, target_length, FFT_BLOCK_ROWS):
        block = starts[lo:lo + FFT_BLOCK_ROWS]
        rows = frames[:block.size]
        np.multiply(windows[block], hamming, out=rows[:, :window])
        np.abs(np.fft.rfft(rows), out=spectrum[lo:lo + block.size])
    # one whole-clip product: the BLAS picks its kernel by the whole shape,
    # so a blocked product would change bits with the clip's row count
    mel = spectrum @ filters.T
    np.maximum(mel, LOG_FLOOR, out=mel)
    return MelFilterBank(frames=np.log(mel, out=mel), frame_shift_ms=f_shift)


def zero_fbank(target_length: int = DEFAULT_TARGET_LENGTH,
               n_mels: int = DEFAULT_N_MELS) -> MelFilterBank:
    """All-zero filter bank standing in for a clip with no audio track."""
    require_int(target_length, "target_length", minimum=1)
    require_int(n_mels, "n_mels", minimum=1)
    return MelFilterBank(frames=np.zeros((target_length, n_mels)),
                         frame_shift_ms=0.0, missing=True)


def patch_grid(l_tar: int = DEFAULT_TARGET_LENGTH, n_mels: int = DEFAULT_N_MELS,
               patch: int = DEFAULT_PATCH, stride: int = DEFAULT_STRIDE) -> PatchGrid:
    """How many overlapping patches the audio encoder cuts from the features."""
    for name, value in (("l_tar", l_tar), ("n_mels", n_mels), ("patch", patch),
                        ("stride", stride)):
        require_int(value, name, minimum=1)
    if patch > min(l_tar, n_mels):
        raise ValueError(
            f"patch size {patch} exceeds the {l_tar} x {n_mels} feature grid")
    return PatchGrid(
        patch=patch, stride=stride,
        n_time=(l_tar - patch) // stride + 1,
        n_freq=(n_mels - patch) // stride + 1,
    )


def patch_count(l_tar: int = DEFAULT_TARGET_LENGTH, n_mels: int = DEFAULT_N_MELS,
                patch: int = DEFAULT_PATCH, stride: int = DEFAULT_STRIDE) -> int:
    """The number of patches of :func:`patch_grid` with the same arguments."""
    return patch_grid(l_tar, n_mels, patch, stride).count


def read_wav(path) -> Waveform:
    """Read a 16-bit PCM mono RIFF WAV file.

    Stereo or non-16-bit files are rejected here; the sample rate is carried
    through and checked by :func:`compute_fbank`.  A file that is not a WAV
    file, or whose data chunk holds fewer frames than its header declares,
    raises :class:`AudioFormatError` naming the path.
    """
    try:
        # from memory: a corrupt header may declare gigabytes of frames, which
        # a buffered file read would allocate before finding the file short
        with wave.open(io.BytesIO(Path(path).read_bytes()), "rb") as f:
            if f.getnchannels() != 1:
                raise AudioFormatError(
                    f"{path}: expected mono input, got {f.getnchannels()} channels")
            if f.getsampwidth() != 2:
                raise AudioFormatError(
                    f"{path}: expected 16-bit PCM, got {8 * f.getsampwidth()}-bit")
            rate, frames = f.getframerate(), f.getnframes()
            raw = f.readframes(frames)
    except (wave.Error, EOFError, RuntimeError) as exc:
        # wave signals a chunk that overruns its parent with RuntimeError
        raise AudioFormatError(
            f"{path}: not a WAV file ({exc or 'unexpected end of file'})") from None
    if len(raw) != 2 * frames:
        raise AudioFormatError(f"{path}: data chunk holds {len(raw)} bytes, "
                               f"its header declares {frames} frames")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    try:
        return Waveform(samples=samples, sample_rate=rate)
    except AudioFormatError as exc:
        raise AudioFormatError(f"{path}: {exc}") from None
