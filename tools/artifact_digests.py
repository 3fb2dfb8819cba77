"""Write the artifacts of the ``tefal`` command line and print their digests.

For each seed, a ``synth`` corpus (D=16, 4 frames, 6 audio tokens), then for
each of the seven model kinds a checkpoint trained 2 epochs at B=16 with
``--log`` and its stdout (``train.txt``), ``eval`` JSON (default,
``--threads 1``, ``--dsl-temp 30``), ``rerank`` JSON (``--k 10%``,
``--k 40 --threads 1``) and ``export-attn`` CSV and JSON; then ``gradcheck``
stdout at seeds 0 and 1.  ``train`` runs in the kind's directory with a
relative ``--out``, as its stdout names that path.  Prints one
``path sha256`` line per file, the path relative to OUT, so that two runs
compare by ``diff``:

    PYTHONPATH=src python tools/artifact_digests.py OUT [--seeds 5 6] [--items 300]

Run it once with ``PYTHONPATH`` at one checkout's ``src`` and once at
another's, into two directories, to check that a change keeps every byte.
"""

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

from tefal.cli import main as tefal
from tefal.model import MODEL_KINDS

EVALS = {"eval.json": ["eval"], "eval_threads1.json": ["eval", "--threads", "1"],
         "eval_dsl30.json": ["eval", "--dsl-temp", "30"],
         "rerank_k10pct.json": ["rerank", "--k", "10%"],
         "rerank_k40_threads1.json": ["rerank", "--k", "40", "--threads", "1"]}
GRADCHECK_SEEDS = (0, 1)


def run(*argv) -> str:
    """``tefal argv``'s stdout; a non-zero exit raises."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tefal([str(arg) for arg in argv])
    if code != 0:
        raise SystemExit(f"tefal {' '.join(map(str, argv))} exited {code}")
    return out.getvalue()


def write_artifacts(out: Path, seeds, items: int) -> None:
    for seed in seeds:
        corpus = out / f"seed{seed}" / "corpus"
        run("synth", "--out", corpus, "--seed", seed, "--items", items, "--dim", 16,
            "--frames", 4, "--audio-tokens", 6)
        manifest = corpus / "manifest.json"
        for modality, fusion in MODEL_KINDS:
            kind = out / f"seed{seed}" / f"{modality}-{fusion}"
            kind.mkdir(parents=True)
            checkpoint = kind / "checkpoint"
            with contextlib.chdir(kind):
                log = run("train", "--data", manifest.resolve(), "--out", "checkpoint",
                          "--epochs", 2, "--batch-size", 16, "--seed", seed,
                          "--fusion", fusion, "--modality", modality, "--log", "log.json")
            (kind / "train.txt").write_text(log, encoding="utf-8")
            model = ["--data", manifest, "--checkpoint", checkpoint]
            for name, command in EVALS.items():
                run(*command, *model, "--out", kind / name)
            for fmt in ("csv", "json"):
                run("export-attn", *model, "--format", fmt, "--out", kind / f"attn.{fmt}")
    for seed in GRADCHECK_SEEDS:
        (out / f"gradcheck_seed{seed}.txt").write_text(run("gradcheck", "--seed", seed),
                                                      encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="an empty or new directory")
    parser.add_argument("--seeds", type=int, nargs="+", default=[5, 6])
    parser.add_argument("--items", type=int, default=300)
    args = parser.parse_args(argv)
    # absolute, as train runs in each kind's directory
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)
    if any(args.out.iterdir()):
        parser.error(f"{args.out} is not empty")
    write_artifacts(args.out, args.seeds, args.items)
    for path in sorted(p for p in args.out.rglob("*") if p.is_file()):
        print(path.relative_to(args.out).as_posix(),
              hashlib.sha256(path.read_bytes()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
