"""The benchmark's four workloads, their seeded inputs and their output checks.

Every workload is a closed loop: one caller in one process, ``workers=1``,
repeating one pass at a fixed input size.  A workload writes its inputs
under a work directory (``generate``), loads them from disk (``setup``, the
part ``setup_s`` times), runs passes (``run_pass``) and finally checks what
the passes produced (``check``).  Checks count operations in a
:class:`Checks`: a failed check is a failed operation, not an exception.
"""

import hashlib
import math
import time
import warnings
import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tefal import audiofeat, model as tefal_model, storage, training
from tefal.config import TrainConfig
from tefal.corpus import synth_corpus

from . import reference
from .tracer import Patches, Tracer, span_totals

DIM = 32
FRAMES = 4
AUDIO_TOKENS = 8
BATCH = 16
LEARNING_RATE = 3e-3
SCORE_TOL = 1e-9


@dataclass
class Checks:
    """Operations checked and operations that failed, with the first failures."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, what: str, total: int = 1, bad: int = 0) -> None:
        self.attempted += int(total)
        self.failed += int(bad)
        if bad and len(self.failures) < 20:
            self.failures.append(f"{what}: {bad} of {total}")


@dataclass
class Pass:
    """One measured pass: wall seconds of the timed work, the items it
    completed, named phase timings, and the outputs later passes must
    reproduce."""

    seconds: float
    items: int
    phases: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)


def _digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def _as_stored(x) -> np.ndarray:
    """The float64 value a float32 container gives back for ``x``."""
    return np.asarray(x, dtype=np.float32).astype(np.float64)


def _mismatches(got, want) -> int:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return max(want.size, 1)
    return int(np.sum(got != want))


def _train_config(seed: int, epochs: int) -> TrainConfig:
    return TrainConfig(dim=DIM, proj_dim=DIM, frames=FRAMES, audio_tokens=AUDIO_TOKENS,
                       fusion="addition", batch_size=BATCH, epochs=epochs,
                       learning_rate=LEARNING_RATE, seed=seed)


def _corpus(seed: int, n_items: int):
    return synth_corpus(seed=seed, n_items=n_items, dim=DIM, frames=FRAMES,
                        audio_tokens=AUDIO_TOKENS, audio_informative=0.5, noise=0.7)


class Workload:
    """Base class; ``sizes`` lists every input size the workload uses."""

    name = ""

    def __init__(self, seed: int, work: Path, checks: Checks, **sizes):
        unknown = set(sizes) - set(self.sizes)
        if unknown:
            raise ValueError(f"{self.name}: unknown sizes {sorted(unknown)}")
        self.sizes = {**self.sizes, **sizes}
        self.seed = seed
        self.work = Path(work)
        self.work.mkdir(parents=True, exist_ok=True)
        self.checks = checks

    def generate(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def check(self, passes: list[Pass]) -> None:
        raise NotImplementedError

    def report(self, passes: list[Pass]) -> dict:
        """The workload's own metrics, from wall time: name -> (value, unit)."""
        raise NotImplementedError

    def side_pass(self, main_seconds: dict) -> dict:
        """Extra traced measurement after the traced passes; name -> (value, unit)."""
        return {}


class Retrieval(Workload):
    """Evaluate a trained checkpoint on a stored corpus in both directions."""

    scores_seen = scores_bad = 0      # model scores seen by the tap; non-finite ones

    def generate(self) -> None:
        s = self.sizes
        corpus = _corpus(self.seed, s["n_items"])
        config = _train_config(self.seed, s["checkpoint_epochs"])
        trained = training.train(config, corpus.subset(range(s["train_items"])))
        storage.save_corpus(corpus, self.work / "corpus")
        storage.save_checkpoint(self.work / "model.tfck", trained.model, trained.steps,
                                config)

    def setup(self) -> None:
        self.corpus = storage.load_corpus(self.work / "corpus" / "manifest.json")
        self.model, _step, _config = storage.load_checkpoint(self.work / "model.tfck")

    def _score_tap(self, fn):
        # Every model score that flows through candidate_scores must be finite:
        # ranks_from_similarity ranks a NaN truth first, so ranks cannot show it.
        def tapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            scores = np.asarray(result[0])
            self.scores_seen += scores.size
            self.scores_bad += scores.size - int(np.count_nonzero(np.isfinite(scores)))
            return result
        return tapped

    def run_pass(self) -> Pass:
        patches = Patches()
        patches.replace("model.candidate_scores", self._score_tap)
        try:
            start = time.perf_counter()
            result = training.evaluate(self.model, self.corpus, k=self.sizes["k"])
            seconds = time.perf_counter() - start
        finally:
            patches.restore()
        self.last = {"ranks_t2v": result.ranks_t2v, "ranks_v2t": result.ranks_v2t,
                     "r1_t2v": result.t2v.r1, "r1_v2t": result.v2t.r1}
        return Pass(seconds, 2 * len(self.corpus), outputs=self.last)

    def check(self, passes: list[Pass]) -> None:
        n, k = len(self.corpus), self.sizes["k"]
        first = passes[0].outputs
        for p in passes:
            for direction in ("t2v", "v2t"):
                ranks = np.asarray(p.outputs[f"ranks_{direction}"])
                self.checks.record(f"{direction} rank in [1, n]", n,
                                   n - int(np.sum((ranks >= 1) & (ranks <= n)))
                                   if ranks.shape == (n,) else n)
                self.checks.record(f"{direction} ranks repeat across passes", n,
                                   _mismatches(ranks, first[f"ranks_{direction}"]))
        self.checks.record("finite model scores", self.scores_seen, self.scores_bad)

        rng = np.random.default_rng([self.seed, 1])
        for direction in ("t2v", "v2t"):
            ranks = first[f"ranks_{direction}"]
            for query in rng.choice(n, size=min(n, self.sizes["checked_queries"]),
                                    replace=False):
                bounds = reference.query_rank_bounds(self.model, self.corpus, int(query),
                                                     direction, k, SCORE_TOL)
                if bounds is not None:
                    lo, hi = bounds
                    self.checks.record(f"{direction} rank matches the reference",
                                       1, not lo <= ranks[query] <= hi)

        side = min(n, self.sizes["checked_pairs_side"])
        queries = rng.choice(n, size=side, replace=False)
        candidates = rng.choice(n, size=side, replace=False)
        got = tefal_model.similarity_matrix(self.model, self.corpus,
                                            query_texts=self.corpus.texts[queries],
                                            candidates=candidates)
        want = reference.pair_scores(self.model, self.corpus,
                                     np.repeat(queries, side), np.tile(candidates, side))
        close = np.abs(got.reshape(-1) - want) <= SCORE_TOL
        self.checks.record("score matches the reference block", close.size,
                           close.size - int(np.sum(close)))

    def report(self, passes: list[Pass]) -> dict:
        first = passes[0].outputs
        return {
            "queries_per_s": (float(np.median([p.items / p.seconds for p in passes])), "1/s"),
            "r1_t2v": (first["r1_t2v"], "%"),
            "r1_v2t": (first["r1_v2t"], "%"),
        }


class EvalDense(Retrieval):
    # Why: attention, linalg and model do about 99% of the work, with
    # 1000 query rows per block call; ranking does little.  Exhaustive
    # scoring is what a candidate index or a single scoring kernel speeds up.
    name = "eval_dense"
    sizes = {"n_items": 1000, "train_items": 1000, "checkpoint_epochs": 4, "k": None,
             "checked_queries": 32, "checked_pairs_side": 16}

    def side_pass(self, main_seconds: dict) -> dict:
        """Time the same evaluation at workers=2 under the same tracing."""
        side = Tracer()
        patches = side.install()
        try:
            result = training.evaluate(self.model, self.corpus, workers=2)
        finally:
            patches.restore()
        seconds, _calls = span_totals(side.spans)
        self.checks.record("ranks do not depend on the worker count", 2,
                           int(not np.array_equal(result.ranks_t2v, self.last["ranks_t2v"]))
                           + int(not np.array_equal(result.ranks_v2t, self.last["ranks_v2t"])))
        one = main_seconds.get("model.similarity_matrix", 0.0)
        two = seconds.get("model.similarity_matrix", 0.0)
        return {"model.similarity_matrix.workers2_speedup":
                (one / two if two > 0 else 0.0, "x")}


class RerankSparse(Retrieval):
    # Why: ranking does a large share of the work here (the stage-1 scan, a
    # lexsort per query, rank extraction), and the model runs small, skewed
    # batches of about 40 rows per call.  A change that helps 1000-row
    # batches but hurts small ones shows here.  The checkpoint is trained on
    # the first 1000 items, so 3000 items are unseen.
    name = "rerank_sparse"
    sizes = {"n_items": 4000, "train_items": 1000, "checkpoint_epochs": 4, "k": 40,
             "checked_queries": 32, "checked_pairs_side": 16}


class Train(Workload):
    # Why: training, contrastive, the backward pass of attention and fusion
    # do the work; ranking does none.  Each pass trains from the same
    # initialisation for a fixed number of epochs and saves a checkpoint.
    name = "train"
    sizes = {"n_items": 1000, "epochs": 2}

    def generate(self) -> None:
        storage.save_corpus(_corpus(self.seed, self.sizes["n_items"]), self.work / "corpus")

    def setup(self) -> None:
        self.corpus = storage.load_corpus(self.work / "corpus" / "manifest.json")

    def _step_tap(self, fn):
        # Step clock: the start of each training step, taken where train()
        # calls batch_loss_and_grads; each step's loss and scores must be finite.
        def tapped(*args, **kwargs):
            self.step_starts.append(time.perf_counter())
            loss, grads, sim = result = fn(*args, **kwargs)
            self.checks.record("finite step loss and scores", 1,
                               not (math.isfinite(loss) and np.all(np.isfinite(sim))))
            return result
        return tapped

    def run_pass(self) -> Pass:
        config = _train_config(self.seed, self.sizes["epochs"])
        path = self.work / "trained.tfck"
        self.step_starts = []
        patches = Patches()
        patches.replace("training.batch_loss_and_grads", self._step_tap)
        try:
            start = time.perf_counter()
            trained = training.train(config, self.corpus)
            train_end = time.perf_counter()
            storage.save_checkpoint(path, trained.model, trained.steps, config)
            end = time.perf_counter()
        finally:
            patches.restore()
        marks = self.step_starts + [train_end]
        self.model, self.steps, self.config = trained.model, trained.steps, config
        return Pass(end - start, BATCH * trained.steps,
                    phases={"train_s": train_end - start,
                            "step_ms": [1e3 * (b - a) for a, b in zip(marks, marks[1:])]},
                    outputs={"losses": [h["loss"] for h in trained.history],
                             "checkpoint": _digest(path)})

    def check(self, passes: list[Pass]) -> None:
        first = passes[0].outputs
        for p in passes:
            self.checks.record("losses and checkpoint repeat across passes", 1,
                               p.outputs != first)
        self.checks.record("final loss is finite", 1, not math.isfinite(first["losses"][-1]))

        loaded, step, config = storage.load_checkpoint(self.work / "trained.tfck")
        want = tefal_model.named_parameters(self.model, trainable_only=False)
        got = tefal_model.named_parameters(loaded, trainable_only=False)
        bad = sum(_mismatches(got.get(name), _as_stored(value))
                  for name, value in want.items())
        self.checks.record("checkpoint round trip equals the float32 written", 1,
                           bad or step != self.steps or config != self.config)

        batch = np.random.default_rng([self.seed, 2]).choice(
            len(self.corpus), size=BATCH, replace=False)
        loss, _grads, sim = tefal_model.batch_loss_and_grads(self.model, self.corpus, batch)
        want_sim = reference.pair_scores(self.model, self.corpus, np.repeat(batch, BATCH),
                                         np.tile(batch, BATCH)).reshape(BATCH, BATCH)
        close = np.abs(np.asarray(sim) - want_sim) <= SCORE_TOL
        self.checks.record("batch scores match the reference block", close.size,
                           close.size - int(np.sum(close)))
        want_loss = reference.infonce(want_sim, self.model.temperature.value)
        self.checks.record("batch loss matches the reference InfoNCE", 1,
                           not abs(loss - want_loss) <= SCORE_TOL * max(1.0, abs(want_loss)))

    def report(self, passes: list[Pass]) -> dict:
        steps_ms = np.concatenate([p.phases["step_ms"] for p in passes])
        return {
            "train_samples_per_s": (float(np.median(
                [p.items / p.phases["train_s"] for p in passes])), "1/s"),
            "step_ms_p50": (float(np.percentile(steps_ms, 50)), "ms"),
            "step_ms_p95": (float(np.percentile(steps_ms, 95)), "ms"),
            "step_ms_samples": (int(steps_ms.size), "count"),
            "final_loss": (float(passes[0].outputs["losses"][-1]), "loss"),
        }


class Ingest(Workload):
    # Why: the only workload that measures audiofeat, and the only one that
    # times storage writes beside reads.  Clips have mixed durations and one
    # is shorter than the 25 ms analysis window.  Its set-up loads the corpus
    # and checkpoint that each pass stores and reads back.
    name = "ingest"
    sizes = {"clips": 24, "short_clip_samples": 240, "max_clip_s": 10.0, "n_items": 4000}

    def generate(self) -> None:
        s = self.sizes
        rng = np.random.default_rng([self.seed, 3])
        # one clip per duration stratum keeps the total audio per pass steady
        strata = (np.arange(s["clips"]) + rng.random(s["clips"])) / s["clips"]
        lengths = [int(audiofeat.SAMPLE_RATE * (0.5 + (s["max_clip_s"] - 0.5) * u))
                   for u in strata] + [s["short_clip_samples"]]
        clips = self.work / "clips"
        clips.mkdir(exist_ok=True)
        self.clip_samples = []
        for i, length in enumerate(lengths):
            t = np.arange(length) / audiofeat.SAMPLE_RATE
            tones = sum(rng.uniform(0.1, 0.3) * np.sin(2 * np.pi * rng.uniform(50, 7000) * t)
                        for _ in range(3))
            signal = np.clip(tones + 0.05 * rng.standard_normal(length), -1.0, 1.0)
            pcm = np.round(signal * 32767).astype("<i2")
            with wave.open(str(clips / f"clip{i:03d}.wav"), "wb") as f:
                f.setnchannels(1)
                f.setsampwidth(2)
                f.setframerate(audiofeat.SAMPLE_RATE)
                f.writeframes(pcm.tobytes())
            self.clip_samples.append(pcm.astype(np.float64) / 32768.0)
        storage.save_corpus(_corpus(self.seed, s["n_items"]), self.work / "corpus")
        config = _train_config(self.seed, 0)
        model = tefal_model.create_model(seed=self.seed, dim=DIM, proj_dim=DIM)
        storage.save_checkpoint(self.work / "model.tfck", model, 0, config)

    def setup(self) -> None:
        self.corpus = storage.load_corpus(self.work / "corpus" / "manifest.json")
        self.model, self.step, self.config = storage.load_checkpoint(self.work / "model.tfck")

    def run_pass(self) -> Pass:
        out = self.work / "out"
        (out / "fbank").mkdir(parents=True, exist_ok=True)
        wavs = sorted((self.work / "clips").glob("*.wav"))
        clip_seconds = 0.0
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="clip of .* shorter than one")
            for wav, want in zip(wavs, self.clip_samples):
                target = out / "fbank" / f"{wav.stem}.emb1"
                start = time.perf_counter()
                waveform = audiofeat.read_wav(wav)
                fbank = audiofeat.compute_fbank(waveform)
                storage.write_fbank(target, fbank)
                back = storage.read_fbank(target)
                clip_seconds += time.perf_counter() - start
                self._check_clip(waveform, fbank, back, want)

        start = time.perf_counter()
        manifest = storage.save_corpus(self.corpus, out / "corpus")
        corpus = storage.load_corpus(manifest)
        storage.save_checkpoint(out / "model.tfck", self.model, self.step, self.config)
        model, step, config = storage.load_checkpoint(out / "model.tfck")
        store_seconds = time.perf_counter() - start
        self._check_store(corpus, model, step, config)

        stored = sorted((out / "corpus").iterdir()) + [out / "model.tfck"]
        stored_bytes = 2 * sum(path.stat().st_size for path in stored)
        fbanks = sorted((out / "fbank").iterdir())
        return Pass(clip_seconds + store_seconds, len(wavs),
                    phases={"clip_s": clip_seconds, "store_s": store_seconds,
                            "store_bytes": stored_bytes},
                    outputs={"fbank": _digest(*fbanks), "stored": _digest(*stored)})

    def _check_clip(self, waveform, fbank, back, want) -> None:
        self.checks.record("wav samples read back exactly", 1,
                           _mismatches(waveform.samples, want) > 0)
        frames = fbank.frames
        self.checks.record("finite fbank of the configured shape", 1,
                           frames.shape != (audiofeat.DEFAULT_TARGET_LENGTH,
                                            audiofeat.DEFAULT_N_MELS)
                           or not np.all(np.isfinite(frames)))
        self.checks.record("fbank round trip equals the float32 written", 1,
                           _mismatches(back.frames, _as_stored(frames)) > 0)

    def _check_store(self, corpus, model, step, config) -> None:
        c = self.corpus
        bad = (corpus.ids != c.ids
               or _mismatches(corpus.has_audio, c.has_audio) > 0
               or any(_mismatches(getattr(corpus, name), _as_stored(getattr(c, name))) > 0
                      for name in ("texts", "frames", "audio", "summary_tokens")))
        self.checks.record("corpus round trip equals the float32 written", 1, bad)
        want = tefal_model.named_parameters(self.model, trainable_only=False)
        got = tefal_model.named_parameters(model, trainable_only=False)
        bad = (step != self.step or config != self.config
               or any(_mismatches(got.get(name), _as_stored(value)) > 0
                      for name, value in want.items()))
        self.checks.record("checkpoint round trip equals the float32 written", 1, bad)

    def check(self, passes: list[Pass]) -> None:
        first = passes[0].outputs
        for p in passes:
            self.checks.record("written bytes repeat across passes", 1, p.outputs != first)

    def report(self, passes: list[Pass]) -> dict:
        return {
            "clips_per_s": (float(np.median(
                [p.items / p.phases["clip_s"] for p in passes])), "1/s"),
            "store_mb_per_s": (float(np.median(
                [p.phases["store_bytes"] / 1e6 / p.phases["store_s"] for p in passes])),
                "MB/s"),
        }


WORKLOADS = {w.name: w for w in (EvalDense, RerankSparse, Train, Ingest)}
