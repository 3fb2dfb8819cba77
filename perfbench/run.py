"""Benchmark of the tefal retrieval engine.

Run from the repository root:

    python3 perfbench/run.py --workload eval_dense --seed 1 --seconds 25 --trace 0

Workloads (see ``perfbench/workloads.py`` for why each exists):

- ``eval_dense``: exhaustive evaluation of a 1000-item corpus;
- ``rerank_sparse``: two-stage evaluation of a 4000-item corpus, k=40;
- ``train``: two epochs of training at B=16, then a checkpoint save;
- ``ingest``: WAV clips through the filter bank and its files, then corpus
  and checkpoint store/load round trips.

Every input is generated from ``--seed`` and written under
``.perfbench_out/`` at the repository root, which also receives a JSON
report per run and, with ``--trace 1``, the recorded spans.  Each run
repeats passes of the workload for about ``--seconds`` and reports per-pass
medians.  Before a pass, at most every few seconds, it also times ``setup``
(files on disk to ready) a few times, and reports the median of those
timings: wall times on a shared machine drift over tens of seconds, so
set-up is sampled across the whole run.  Untimed set-ups come first, as
the first few loads in a process run up to twice as slow while the
allocator grows.  One caller, one process, ``workers=1``.

``--trace 0`` measures the end-to-end metrics, with tracing off:

- ``setup_s``: median time from files on disk to ready to score, train or
  store: ``load_corpus`` and, except for ``train``, ``load_checkpoint``;
- ``items_per_s``: median over passes of items per second of the pass:
  queries ranked in both directions, samples trained (B x steps, with the
  checkpoint save), or clips ingested (with the storage round trips);
- ``peak_rss_mb``: peak resident memory of the process.

The two times are normalised to the machine's speed at the moment.  On a
shared VM, wall time drifts by 20-40% over minutes as neighbours load the
cores, and code made of many small numpy calls slows most.  So each
set-up window also times a fixed kernel of such calls (``calibration_s``),
and a time is scaled by ``CALIBRATION_REF_S`` over the kernel time around
it.  The result reads as the time on a machine that runs the kernel in
``CALIBRATION_REF_S``.  The engine's code never runs in the kernel, so a
change to the engine moves the normalised figures as it moves wall time.
``setup_s_wall`` and ``items_per_s_wall`` on the report lines are the raw
figures.

The report lines above the result add each workload's own figures from
wall time: ``queries_per_s`` and R@1 for the two evaluations,
``train_samples_per_s``, step latency percentiles with their sample count
and the final loss for ``train``, ``clips_per_s`` and ``store_mb_per_s``
for ``ingest``, and ``error_rate`` (failed over attempted checks).

``--trace 1`` alternates untraced and traced passes, with every layer's
public functions wrapped from outside (``perfbench/tracer.py``), and
reports the per-layer metrics, the tracing overhead and, for
``eval_dense``, a side pass at ``workers=2``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5       # set-up timings in one window
SETUP_EVERY_S = 3.0     # a window opens before a pass at most this often
WARMUP_SETUPS = 5
CALIBRATION_REPEATS = 2000
CALIBRATION_REF_S = 0.16    # the calibration kernel on a 2-CPU Xeon VM at 2.1 GHz

# Per-layer metrics: self time (span minus child spans), inclusive time,
# call counts and counters, each per traced pass.  A layer the workload
# does not exercise reports 0.
SELF_S = ["linalg.canonical_sum", "linalg.layernorm_rows", "attention.attend",
          "attention.block_forward", "attention.block_backward", "fusion.fuse_forward",
          "fusion.fuse_backward", "contrastive.cosine_rows", "contrastive.infonce",
          "model.similarity_matrix", "model.batch_loss_and_grads",
          "ranking.rerank_two_stage", "ranking.ranks_from_similarity",
          "training.AdamW.step", "training.clip_global_norm", "training.train"]
INCLUSIVE_S = ["storage.load_corpus", "storage.load_checkpoint", "storage.read_embeddings",
               "storage.write_embeddings", "audiofeat.read_wav", "audiofeat.compute_fbank"]
CALLS = ["attention.block_forward", "model.candidate_scores"]
COUNTERS = {"model.pairs": "count", "ranking.stage1_comparisons": "count",
            "ranking.stage2_model_evals": "count", "storage.bytes_read": "B",
            "storage.bytes_written": "B", "audiofeat.frames": "count"}


def import_program() -> None:
    """Make ``tefal`` importable from this checkout's ``src`` and only from there."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import tefal
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import tefal from {src}: {exc}")
    if Path(tefal.__file__).resolve().parent != src / "tefal":
        raise SystemExit(f"perfbench: imported tefal from {tefal.__file__}, not {src}")


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        name = "unknown"
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(path), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            threads = fn()
            break
    return {"library": name, "threads": threads,
            "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "TEFAL_THREADS") if k in os.environ}}


def repeat_for(seconds: float, fn) -> list:
    """Call ``fn`` once, and again while the next call is expected to end
    within ``seconds`` of the first one's start."""
    results, start = [], time.perf_counter()
    while True:
        results.append(fn())
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def calibration_s() -> float:
    """Wall time of a fixed numpy kernel of many small calls, as the engine
    makes: row LayerNorm, a small matmul, sorted sums and exp."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 8, 32))
    w = rng.standard_normal((32, 32))
    start = time.perf_counter()
    for _ in range(CALIBRATION_REPEATS):
        mu = x.mean(axis=-1, keepdims=True)
        y = (x - mu) / np.sqrt(((x - mu) ** 2).mean(axis=-1, keepdims=True) + 1e-5)
        z = np.sort(y @ w, axis=1).sum(axis=1)
        np.exp(z - z.max()).sum()
    return time.perf_counter() - start


def measure(workload, seconds: float):
    """Passes for about ``seconds``, with windows between them that time
    set-up and the calibration kernel.

    Returns the passes, the set-up timings, the kernel timings, and per pass
    the factor that normalises its wall time: ``CALIBRATION_REF_S`` over the
    mean kernel time of the windows before and after it.
    """
    for _ in range(WARMUP_SETUPS):
        workload.setup()
    setups, kernel, windows, last_window = [], [], [], [-SETUP_EVERY_S]

    def one_pass():
        if time.perf_counter() - last_window[0] >= SETUP_EVERY_S:
            kernel.append(calibration_s())
            setups.extend(timed(workload.setup) for _ in range(SETUP_REPEATS))
            last_window[0] = time.perf_counter()
        windows.append(len(kernel) - 1)
        return workload.run_pass()

    passes = repeat_for(seconds, one_pass)
    kernel.append(calibration_s())
    factors = [CALIBRATION_REF_S / statistics.mean(kernel[w:w + 2]) for w in windows]
    return passes, setups, kernel, factors


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def traced_passes(workload, seconds: float):
    """Alternate an untraced and a traced pass, each including set-up."""
    from perfbench.tracer import Tracer
    tracer, passes, missing = Tracer(), [], set()

    def one(traced: bool) -> float:
        patches = tracer.install() if traced else None
        try:
            start = time.perf_counter()
            workload.setup()
            passes.append(workload.run_pass())
            return time.perf_counter() - start
        finally:
            if patches is not None:
                missing.update(patches.missing)
                patches.restore()

    walls = repeat_for(seconds, lambda: (one(False), one(True)))
    overhead = (statistics.median(t for _, t in walls)
                - statistics.median(u for u, _ in walls))
    return passes, tracer, len(walls), overhead, sorted(missing)


def layer_metrics(tracer, count: int) -> dict:
    from perfbench.tracer import self_times, span_totals
    own = self_times(tracer.spans)
    seconds, calls = span_totals(tracer.spans)
    c = tracer.counters
    m = {f"{name}.self_s": (own.get(name, 0.0) / count, "s") for name in SELF_S}
    m.update({f"{name}.s": (seconds.get(name, 0.0) / count, "s") for name in INCLUSIVE_S})
    m.update({f"{name}.calls": (calls.get(name, 0) / count, "count") for name in CALLS})
    m.update({name: (c[name] / count, unit) for name, unit in COUNTERS.items()})
    m["attention.rows_per_call"] = (
        ratio(c["attention.rows"], calls.get("attention.block_forward", 0)), "rows")
    m["model.pairs_per_s"] = (
        ratio(c["model.pairs"], seconds.get("model.candidate_scores", 0.0)), "1/s")
    m["ranking.shortlist_hit_rate"] = (
        ratio(c["ranking.shortlist_hits"], c["ranking.shortlist_queries"]), "share")
    m["training.steps"] = (calls.get("training.AdamW.step", 0) / count, "count")
    return m


def run(args) -> tuple[dict, dict, dict, object]:
    """Returns (context, metrics for the result line, metrics shown, checks)."""
    from perfbench.tracer import span_totals
    from perfbench.workloads import WORKLOADS, Checks
    OUT.mkdir(exist_ok=True)
    checks = Checks()
    context = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "nproc": os.cpu_count(),
               "python": platform.python_version(), "numpy": np.__version__,
               "blas": blas_info(), "workers": 1, "loop": "closed, one caller"}
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"work-{args.workload}-") as work:
        workload = WORKLOADS[args.workload](args.seed, Path(work), checks)
        context["sizes"] = workload.sizes
        workload.generate()
        if args.trace:
            passes, tracer, count, overhead, missing = traced_passes(workload, args.seconds)
            workload.check(passes)
            metrics = layer_metrics(tracer, count)
            metrics["trace.overhead_s"] = (overhead, "s")
            metrics["model.similarity_matrix.workers2_speedup"] = (0.0, "x")
            seconds, _calls = span_totals(tracer.spans)
            metrics.update(workload.side_pass({k: v / count for k, v in seconds.items()}))
            shown = dict(metrics)
            context.update(pairs_of_passes=count, spans=len(tracer.spans),
                           untraced_functions=missing)
            (OUT / f"{args.workload}-seed{args.seed}-spans.json").write_text(json.dumps(
                {"passes": count, "fields": ["name", "start", "end", "parent"],
                 "spans": tracer.spans, "counters": dict(tracer.counters)},
                separators=(",", ":")))
        else:
            passes, setups, kernel, factors = measure(workload, args.seconds)
            workload.check(passes)
            setup_wall = statistics.median(setups)
            shown = {**workload.report(passes), "setup_s_wall": (setup_wall, "s"),
                     "items_per_s_wall": (statistics.median(
                         p.items / p.seconds for p in passes), "1/s")}
            metrics = {
                "setup_s": (setup_wall * CALIBRATION_REF_S / statistics.median(kernel), "s"),
                "items_per_s": (statistics.median(
                    p.items / (p.seconds * f) for p, f in zip(passes, factors)), "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "MB"),
            }
            shown.update(metrics)
            context.update(passes=len(passes), setup_timings=len(setups),
                           pass_seconds=[p.seconds for p in passes],
                           items=f"{passes[0].items} per pass", calibration_s=kernel,
                           calibration_ref_s=CALIBRATION_REF_S)
    shown["error_rate"] = (ratio(checks.failed, checks.attempted), "share")
    return context, metrics, shown, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["eval_dense", "rerank_sparse", "train", "ingest"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    import_program()

    context, metrics, shown, checks = run(args)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in shown.items():
        print(f"  {name:44s} {value:.6g} {unit}")
    for failure in checks.failures:
        print(f"  FAILED {failure}")
    report = {"context": context,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
              "attempted": checks.attempted, "failed": checks.failed,
              "failures": checks.failures}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str) + "\n")
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": checks.failed == 0, "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
