"""Command-line harness.

Subcommands: synth, train, eval, rerank, fbank, gradcheck, export-attn.
Exit codes: 0 on success, 1 on a runtime failure (with a diagnostic on
stderr), 2 on usage errors.  Runs are reproducible: the same argv and seed
produce byte-identical artifacts.  Model geometry (dim, frames, audio
tokens) always comes from the loaded data; a train config file may repeat
it but not change it.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .audiofeat import compute_fbank, read_wav
from .config import MODALITIES, ConfigError, TrainConfig, parse_config_lines
from .corpus import synth_corpus
from .fusion import FusionKind
from .linalg import ShapeError
from .model import pair_tiles, query_rows, score_tile, uses_summary_rows
from .ranking import evaluate
from .storage import load_checkpoint, load_corpus, save_checkpoint, save_corpus, write_fbank
from .training import train
from .verify import run_grad_checks


def _round4(value: float) -> float:
    return round(float(value), 4)


def _metrics_json(result) -> dict:
    data = result.as_dict()
    for direction in data["metrics"]:
        data["metrics"][direction] = {
            key: _round4(val) for key, val in data["metrics"][direction].items()}
    return data


def _emit_json(data: dict, out_path: str | None) -> None:
    text = json.dumps(data, indent=2) + "\n"
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _parse_k(raw: str | None, n: int) -> int | None:
    if raw is None:
        return None
    text = raw.strip()
    try:
        if not text.endswith("%"):
            return int(text)
        pct = float(text[:-1])
    except ValueError:
        raise ValueError(f"--k expects an item count or a percentage like 10%, "
                         f"got {raw!r}") from None
    if not 0 < pct <= 100:
        raise ValueError(f"shortlist percentage must be in (0, 100], got {raw!r}")
    return max(1, round(n * pct / 100.0))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_synth(args) -> int:
    corpus = synth_corpus(seed=args.seed, n_items=args.items, dim=args.dim,
                          frames=args.frames, audio_tokens=args.audio_tokens,
                          audio_informative=args.audio_informative,
                          noise=args.noise)
    manifest = save_corpus(corpus, args.out)
    print(f"wrote {len(corpus)} items to {manifest}")
    return 0


def _cmd_train(args) -> int:
    corpus = load_corpus(args.data)
    entries = {}
    if args.config:
        try:
            entries = parse_config_lines(Path(args.config).read_text(encoding="utf-8"))
        except (ConfigError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{args.config}: {exc}") from None
    values = {key: value for key, (_, value) in entries.items()}
    for key, value in corpus.geometry.items():
        if values.get(key, value) != value:
            raise ConfigError(f"{args.config}: config file sets {key} = {values[key]}, "
                              f"but the data has {key} {value}")
    flags = {"epochs": args.epochs, "batch_size": args.batch_size,
             "learning_rate": args.learning_rate, "seed": args.seed,
             "fusion": args.fusion, "modality": args.modality}
    for key, (line, value) in entries.items():
        if flags.get(key) is None:
            # every other field keeps its valid default, so an error is this value's
            try:
                TrainConfig(**{key: value}).validate()
            except ConfigError as exc:
                raise ConfigError(f"{args.config}: line {line}: {exc}") from None
    values.update((k, v) for k, v in flags.items() if v is not None)
    result = train(TrainConfig(**{**values, **corpus.geometry}).validate(), corpus)
    for entry in result.history:
        tau = f"{entry['tau']:.4f}"
        print(f"epoch {entry['epoch']:3d}  loss {entry['loss']:.6f}  tau {tau}")
    save_checkpoint(args.out, result.model, result.steps, result.config)
    print(f"wrote checkpoint to {args.out}")
    if args.log:
        _emit_json({"history": [
            {k: (_round4(v) if isinstance(v, float) else v)
             for k, v in entry.items()} for entry in result.history]}, args.log)
    return 0


def _load_model_and_corpus(args):
    """The ``--checkpoint`` model and the ``--data`` corpus, which must fit it."""
    corpus = load_corpus(args.data)
    model, _step, _config = load_checkpoint(args.checkpoint)
    if model.dim != corpus.dim:
        raise ShapeError(f"checkpoint {args.checkpoint} has dim {model.dim}, but the "
                         f"corpus of {args.data} has dim {corpus.dim}")
    if uses_summary_rows(model) and corpus.summary_tokens is None:
        raise ShapeError(f"checkpoint {args.checkpoint} is a stacking model, which needs "
                         f"audio summary rows, but {args.data} lists no audio_summary")
    return model, corpus


def _cmd_eval(args) -> int:
    """``eval`` and ``rerank``; ``rerank`` makes ``--k`` required."""
    model, corpus = _load_model_and_corpus(args)
    result = evaluate(model, corpus, k=_parse_k(args.k, len(corpus)),
                      dsl_temp=getattr(args, "dsl_temp", None), workers=args.threads)
    _emit_json(_metrics_json(result), args.out)
    return 0


def _cmd_fbank(args) -> int:
    waveform = read_wav(args.infile)
    fbank = compute_fbank(waveform, target_length=args.target_length,
                          n_mels=args.mels)
    write_fbank(args.out, fbank)
    print(f"wrote {fbank.target_length} x {fbank.n_mels} filter bank "
          f"(shift {fbank.frame_shift_ms:.4f} ms) to {args.out}")
    return 0


def _cmd_gradcheck(args) -> int:
    results = run_grad_checks(seed=args.seed)
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:28s} {r.error:12.4e}  (tolerance {r.threshold:g})  {status}")
        failed |= not r.passed
    print(f"max relative error: {max(r.error for r in results):.4e}")
    return 1 if failed else 0


def _cmd_export_attn(args) -> int:
    model, corpus = _load_model_and_corpus(args)
    # the weights that scoring computes, one query per item in the grouped
    # tiles of the pairs (i, i); only the blocks the model computes, so
    # stacking's video block attends over the frames plus the summary row
    queries = query_rows(model, corpus.texts)
    rows = []
    for slots in pair_tiles(np.arange(len(corpus))):
        _, tape = score_tile(model, queries.rows(slots), corpus, slots[:, 0], keep=True)
        per_block = {name: cache.caller_weights()[:, :, 0]
                     for name, cache in tape.blocks.items()}
        for c, i in enumerate(slots[:, 0]):
            rows.extend((corpus.ids[i], name, w[:, c]) for name, w in per_block.items())
    if args.format == "json":
        _emit_json({"items": [
            {"id": item_id, "modality": modality,
             "weights": [_round4(w) for w in weights]}
            for item_id, modality, weights in rows]}, args.out)
    else:
        with open(args.out, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            for item_id, modality, weights in rows:
                writer.writerow([item_id, modality]
                                + [f"{w:.6f}" for w in weights])
        print(f"wrote {len(rows)} weight rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tefal",
        description="Text-conditioned audio/video retrieval engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic corpus (EMB1 + manifest)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--items", type=int, default=1000)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--frames", type=int, default=4)
    p.add_argument("--audio-tokens", type=int, default=8)
    p.add_argument("--audio-informative", type=float, default=0.5,
                   help="fraction of items whose audio carries text-correlated signal")
    p.add_argument("--noise", type=float, default=0.7)
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("train", help="train a model on a corpus manifest")
    p.add_argument("--data", required=True, help="manifest path")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--fusion", choices=[kind.value for kind in FusionKind])
    p.add_argument("--modality", choices=MODALITIES)
    p.add_argument("--log", help="write the per-epoch history as JSON")
    p.set_defaults(handler=_cmd_train)

    for name, k_required in (("eval", False), ("rerank", True)):
        p = sub.add_parser(name, help="rank a corpus and report metrics"
                           if name == "eval" else
                           "two-stage re-ranking with a top-k shortlist")
        p.add_argument("--data", required=True)
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--k", required=k_required,
                       help="shortlist size, absolute or a percentage like 10%%")
        if name == "eval":
            p.add_argument("--dsl-temp", type=float, default=None,
                           help="dual-softmax post-processing temperature")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads (default: the usable CPUs, capped by "
                            "TEFAL_THREADS)")
        p.add_argument("--out", help="write metrics JSON here instead of stdout")
        p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("fbank", help="log-Mel filter bank from a 16 kHz mono WAV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--target-length", type=int, default=1024)
    p.add_argument("--mels", type=int, default=128)
    p.set_defaults(handler=_cmd_fbank)

    p = sub.add_parser("gradcheck", help="finite-difference verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_gradcheck)

    p = sub.add_parser("export-attn", help="export attention weights per item")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(handler=_cmd_export_attn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
