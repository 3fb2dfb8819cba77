"""Audio front end: adaptive frame shift, filter bank, patch geometry, WAV I/O."""

import math
import warnings
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tefal.audiofeat import (
    LOG_FLOOR,
    SAMPLE_RATE,
    AudioFormatError,
    Waveform,
    adaptive_frame_shift,
    compute_fbank,
    hz_to_mel,
    mel_filter_matrix,
    mel_to_hz,
    patch_count,
    patch_grid,
    read_wav,
    zero_fbank,
)


def write_wav(path, samples, rate=SAMPLE_RATE, channels=1, width=2):
    data = (np.asarray(samples) * 32767).astype("<i2")
    if channels == 2:
        data = np.column_stack([data, data]).reshape(-1)
    with wave.open(str(path), "wb") as f:
        f.setnchannels(channels)
        f.setsampwidth(width)
        f.setframerate(rate)
        f.writeframes(data.tobytes())


class TestAdaptiveFrameShift:
    def test_ten_second_clip_gives_ten_ms(self):
        assert adaptive_frame_shift(163840, 16000, 1024) == 10.0

    def test_sixteen_second_clip(self):
        assert adaptive_frame_shift(262144, 16000, 1024) == 16.0

    def test_linin_sample_count(self):
        base = adaptive_frame_shift(48000, 16000, 1024)
        assert adaptive_frame_shift(96000, 16000, 1024) == pytest.approx(2 * base)

    def test_monotonicity(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1000, 10_000_000))
            l_tar = int(rng.integers(2, 4096))
            assert adaptive_frame_shift(n + 1, 16000, l_tar) > \
                adaptive_frame_shift(n, 16000, l_tar)
            assert adaptive_frame_shift(n, 16000, l_tar + 1) < \
                adaptive_frame_shift(n, 16000, l_tar)

    def test_rejects_nonpositive(self):
        for args in ((0, 16000, 1024), (100, 0, 1024), (100, 16000, 0),
                     (-5, 16000, 1024)):
            with pytest.raises(ValueError):
                adaptive_frame_shift(*args)


class TestComputeFbank:
    @pytest.mark.parametrize("kwargs,match", [
        ({"target_length": 2.5}, "target_length must be an integer, got 2.5"),
        ({"target_length": 0}, "target_length must be >= 1, got 0"),
        ({"n_mels": 2.5}, "n_mels must be an integer, got 2.5"),
        ({"n_mels": True}, "n_mels must be an integer, got True")])
    def test_a_size_that_is_no_positive_integer_is_named(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            compute_fbank(Waveform(np.zeros(SAMPLE_RATE), SAMPLE_RATE), **kwargs)

    def test_silence_is_constant_log_floor(self):
        w = Waveform(np.zeros(SAMPLE_RATE), SAMPLE_RATE)
        fb = compute_fbank(w, target_length=64, n_mels=16)
        np.testing.assert_array_equal(fb.frames,
                                      np.full((64, 16), math.log(LOG_FLOOR)))

    def test_row_count_is_duration_independent(self):
        for seconds in (1.0, 10.24, 60.0):
            n = int(SAMPLE_RATE * seconds)
            w = Waveform(np.sin(np.arange(n) * 0.01) * 0.5, SAMPLE_RATE)
            fb = compute_fbank(w)
            assert fb.frames.shape == (1024, 128)

    def test_fixed_length_across_random_durations(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            seconds = float(rng.uniform(1.0, 600.0))
            n = int(SAMPLE_RATE * seconds)
            w = Waveform(rng.uniform(-0.2, 0.2, n), SAMPLE_RATE)
            assert compute_fbank(w, target_length=256, n_mels=24).frames.shape \
                == (256, 24)

    def test_pure_tone_peaks_in_bracketing_mel_bin(self):
        tone_hz = 1000.0
        n = SAMPLE_RATE  # 1 second
        t = np.arange(n) / SAMPLE_RATE
        w = Waveform(np.sin(2 * np.pi * tone_hz * t) * 0.95, SAMPLE_RATE)
        fb = compute_fbank(w)
        measured_bin = int(np.argmax(fb.frames.mean(axis=0)))

        # independent oracle: naive DFT of one interior window plus
        # independently constructed triangular filters
        window = 400
        n_fft = 512
        start = 8000
        seg = w.samples[start:start + window] * np.hamming(window)
        freqs = np.arange(n_fft // 2 + 1) * SAMPLE_RATE / n_fft
        mags = np.array([
            abs(sum(seg[k] * complex(math.cos(-2 * math.pi * f * k / n_fft),
                                     math.sin(-2 * math.pi * f * k / n_fft))
                    for k in range(window)))
            for f in range(n_fft // 2 + 1)])
        mel_edges = 700.0 * (10.0 ** (np.linspace(0.0, 2595.0 * math.log10(1 + 8000.0 / 700.0),
                                                  130) / 2595.0) - 1.0)
        energies = np.zeros(128)
        for m in range(128):
            lo, mid, hi = mel_edges[m], mel_edges[m + 1], mel_edges[m + 2]
            weights = np.clip(np.minimum((freqs - lo) / (mid - lo),
                                         (hi - freqs) / (hi - mid)), 0.0, None)
            energies[m] = float(weights @ mags)
        oracle_bin = int(np.argmax(energies))

        assert measured_bin == oracle_bin
        # the winning filter's support must bracket the tone frequency
        assert mel_edges[measured_bin] <= tone_hz <= mel_edges[measured_bin + 2]

    def test_rejects_wrong_sample_rate(self):
        w = Waveform(np.zeros(8000), 8000)
        with pytest.raises(AudioFormatError, match="resample"):
            compute_fbank(w)

    def test_short_clip_padded_with_warning(self):
        w = Waveform(np.full(100, 0.1), SAMPLE_RATE)
        with pytest.warns(UserWarning, match="zero-padding"):
            fb = compute_fbank(w, target_length=32, n_mels=8)
        assert fb.frames.shape == (32, 8)


    @pytest.mark.parametrize("length", [240, 400, 8000, 10 * SAMPLE_RATE])
    def test_frames_equal_the_direct_formula_bit_for_bit(self, length):
        samples = np.random.default_rng(length).uniform(-1, 1, length)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            fb = compute_fbank(Waveform(samples, SAMPLE_RATE))
        assert fb.frames.tobytes() == direct_fbank(samples).tobytes()

    @pytest.mark.parametrize("n_mels", [8, 128])
    @pytest.mark.parametrize("target_length", [1, 127, 128, 129, 151, 1000, 1024])
    def test_any_row_count_equals_the_direct_formula_bit_for_bit(self, target_length,
                                                                 n_mels):
        # row counts around the transform's block size, and both sides of
        # the shapes at which the BLAS switches its matmul kernel
        samples = np.random.default_rng(target_length).uniform(-1, 1, 3 * SAMPLE_RATE)
        fb = compute_fbank(Waveform(samples, SAMPLE_RATE), target_length, n_mels)
        assert fb.frames.tobytes() == direct_fbank(samples, target_length,
                                                   n_mels).tobytes()

    def test_mel_filter_matrix_is_a_fresh_array(self):
        first = mel_filter_matrix(8, 512, SAMPLE_RATE)
        first[...] = -1.0
        second = mel_filter_matrix(8, 512, SAMPLE_RATE)
        assert second.flags.writeable and np.all(second >= 0.0)


def direct_fbank(samples, target_length=1024, n_mels=128, window=400):
    """The filter bank by its direct formula: gather every frame through an
    index matrix, window it, and let ``rfft`` pad it to the FFT length."""
    if samples.size < window:
        samples = np.concatenate([samples, np.zeros(window - samples.size)])
    f_shift = samples.size * 1000.0 / (SAMPLE_RATE * target_length)
    starts = np.round(np.arange(target_length) * f_shift * SAMPLE_RATE / 1000.0
                      ).astype(np.int64)
    padded = np.concatenate([samples,
                             np.zeros(max(0, starts[-1] + window - samples.size))])
    frames = padded[starts[:, None] + np.arange(window)[None, :]]
    n_fft = 1 << (window - 1).bit_length()
    spectrum = np.abs(np.fft.rfft(frames * np.hamming(window), n=n_fft))
    mel = spectrum @ mel_filter_matrix(n_mels, n_fft, SAMPLE_RATE).T
    return np.log(np.maximum(mel, LOG_FLOOR))


class TestPatchGeometry:
    def test_production_configuration(self):
        grid = patch_grid(1024, 128, 16, 10)
        assert (grid.n_time, grid.n_freq) == (101, 12)
        assert patch_count(1024, 128, 16, 10) == 1212

    def test_single_patch(self):
        assert patch_count(16, 16, 16, 10) == 1

    def test_two_patches(self):
        assert patch_count(26, 16, 16, 10) == 2

    def test_patch_larger_than_grid(self):
        with pytest.raises(ValueError, match="exceeds"):
            patch_count(10, 128, 16, 10)


class TestZeroFbank:
    def test_shape_and_content(self):
        fb = zero_fbank(64, 16)
        assert fb.frames.shape == (64, 16)
        assert fb.frames.sum() == 0.0

    def test_flagged_missing(self):
        assert zero_fbank().missing is True
        w = Waveform(np.zeros(SAMPLE_RATE), SAMPLE_RATE)
        assert compute_fbank(w, target_length=16, n_mels=8).missing is False


class TestMelScale:
    def test_round_trip(self):
        f = np.array([0.0, 150.0, 1000.0, 7999.0])
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(f)), f, rtol=1e-12)

    def test_filters_are_nonnegative_and_cover_band(self):
        filters = mel_filter_matrix(128, 512, SAMPLE_RATE)
        assert filters.shape == (128, 257)
        assert np.all(filters >= 0.0)
        # every spectral bin inside the band gets weight from some filter
        # (the very lowest filters are narrower than one 31.25 Hz bin and
        # may be empty, which only ever maps them to the log floor)
        freqs = np.arange(257) * SAMPLE_RATE / 512
        covered = filters.sum(axis=0) > 0.0
        in_band = (freqs > 40.0) & (freqs < 7900.0)
        assert np.all(covered[in_band])


class TestWaveformAndWav:
    def test_waveform_validation(self):
        with pytest.raises(AudioFormatError):
            Waveform(np.array([]), SAMPLE_RATE)
        with pytest.raises(AudioFormatError):
            Waveform(np.zeros(10), 0)
        with pytest.raises(AudioFormatError, match="peak is 1.5"):
            Waveform(np.array([1.5]), SAMPLE_RATE)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_waveform_rejects_non_finite_samples_naming_the_first(self, value):
        # NaN passed the peak check and gave NaN fbank rows, which the
        # fbank reader then rejected; infinities failed as an out-of-range peak
        samples = np.zeros(10)
        samples[[3, 7]] = value
        samples[5] = 1.5
        with pytest.raises(AudioFormatError, match=rf"^sample 3 is not finite \({value}\)$"):
            Waveform(samples, SAMPLE_RATE)

    def test_wav_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        samples = rng.uniform(-0.9, 0.9, 1600)
        path = tmp_path / "clip.wav"
        write_wav(path, samples)
        w = read_wav(path)
        assert w.sample_rate == SAMPLE_RATE
        assert w.n_frm == 1600
        # one quantization step plus the 32767-vs-32768 scaling convention
        np.testing.assert_allclose(w.samples, samples, atol=1e-4)

    def test_rejects_stereo(self, tmp_path):
        path = tmp_path / "stereo.wav"
        write_wav(path, np.zeros(100), channels=2)
        with pytest.raises(AudioFormatError, match="mono"):
            read_wav(path)

    @pytest.mark.parametrize("present", [1000, 1001])
    def test_rejects_a_data_chunk_shorter_than_its_header(self, tmp_path, present):
        # 1,000 frames declared, 500 (or 500.5) present: the clip must not
        # read as a shorter one, which would shift every fbank row
        path = tmp_path / "short.wav"
        write_wav(path, np.zeros(1000))
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 2000 + present])
        with pytest.raises(AudioFormatError, match="short.wav.*1000 frames"):
            read_wav(path)

    @pytest.mark.parametrize("blob", [b"", b"RIFX" + bytes(40), b"not a wav file",
                                      b"RIFF\x04\x00\x00\x00WAVE"],
                             ids=["empty", "big-endian", "text", "no-chunks"])
    def test_rejects_non_wav_bytes_naming_the_path(self, tmp_path, blob):
        path = tmp_path / "bad.wav"
        path.write_bytes(blob)
        with pytest.raises(AudioFormatError, match="bad.wav: not a WAV file"):
            read_wav(path)

    def test_rejects_non_16bit(self, tmp_path):
        path = tmp_path / "w8.wav"
        with wave.open(str(path), "wb") as f:
            f.setnchannels(1)
            f.setsampwidth(1)
            f.setframerate(SAMPLE_RATE)
            f.writeframes(bytes(100))
        with pytest.raises(AudioFormatError, match="16-bit"):
            read_wav(path)


@pytest.fixture(scope="module")
def wav_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("wav") / "clip.wav"
    write_wav(path, np.linspace(-0.5, 0.5, 40))
    return path.read_bytes()


class TestReadWavProperties:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_any_bytes_give_a_waveform_or_audio_format_error(self, tmp_path_factory,
                                                             wav_bytes, data):
        base = bytearray(wav_bytes)
        for _ in range(data.draw(st.integers(0, 3))):
            base[data.draw(st.integers(0, len(base) - 1))] = data.draw(st.integers(0, 255))
        blob = data.draw(st.integers(0, len(base)).map(lambda n: bytes(base[:n]))
                         | st.binary(max_size=96).map(lambda b: b"RIFF" + b)
                         | st.binary(max_size=96))
        path = tmp_path_factory.getbasetemp() / "fuzz.wav"
        path.write_bytes(blob)
        try:
            waveform = read_wav(path)
        except AudioFormatError as exc:
            assert str(exc).startswith(f"{path}: ")
            return
        assert waveform.n_frm > 0 and waveform.sample_rate > 0
