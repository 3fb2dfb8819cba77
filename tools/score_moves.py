"""Score the same parameters with another checkout's ``src`` and with this
one's, and print how far the scores and ranks moved.

For each seed, a ``synth_corpus`` of ``--items`` items (D=32, 4 frames, 8
audio tokens) and, for each of the seven model kinds, a model trained one
epoch at B=16 by this checkout and stored as a TFCK checkpoint.  Then one
subprocess per side, its ``PYTHONPATH`` at that side's ``src``, loads every
checkpoint and corpus and writes the exhaustive similarity matrix
(``similarity_matrix``, one worker).  Prints a line per kind and seed: the
largest |score move| and how many t2v and v2t ranks moved, ranked by this
checkout's ``ranks_from_similarity``; then the totals:

    python tools/score_moves.py --base DIR [--seeds 5 6] [--items 300]

DIR is the root of the other checkout, say a ``git archive`` of the parent
commit.  Both sides must read this checkout's corpus and checkpoint files.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def score(work: Path) -> None:
    """Write ``sim.npy`` beside every checkpoint under ``work``, with the
    ``tefal`` that ``PYTHONPATH`` gives."""
    from tefal import model, storage
    for seed_dir in sorted(work.iterdir()):
        corpus = storage.load_corpus(seed_dir / "corpus" / "manifest.json")
        for checkpoint in sorted(seed_dir.glob("*/model.tfck")):
            params, _, _ = storage.load_checkpoint(checkpoint)
            np.save(checkpoint.parent / "sim.npy",
                    model.similarity_matrix(params, corpus, workers=1))


def side(src: Path, work: Path, out: Path) -> None:
    """Copy ``work`` to ``out`` and score it with ``src`` in a subprocess."""
    shutil.copytree(work, out)
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, __file__, "--score", str(out)], env=env, check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, help="root of the other checkout")
    parser.add_argument("--seeds", type=int, nargs="+", default=[5, 6])
    parser.add_argument("--items", type=int, default=300)
    parser.add_argument("--score", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.score is not None:
        score(args.score)
        return 0
    if args.base is None:
        parser.error("--base is required")

    sys.path.insert(0, str(ROOT / "src"))
    from tefal import storage, training
    from tefal.config import TrainConfig
    from tefal.corpus import synth_corpus
    from tefal.model import MODEL_KINDS
    from tefal.ranking import ranks_from_similarity

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "work"
        for seed in args.seeds:
            corpus = synth_corpus(seed=seed, n_items=args.items, dim=32, frames=4,
                                  audio_tokens=8)
            storage.save_corpus(corpus, work / f"seed{seed}" / "corpus")
            for modality, fusion in MODEL_KINDS:
                config = TrainConfig(dim=32, proj_dim=32, frames=4, audio_tokens=8,
                                     fusion=fusion, modality=modality, batch_size=16,
                                     epochs=1, learning_rate=3e-3, seed=seed)
                kind = work / f"seed{seed}" / f"{modality}-{fusion}"
                kind.mkdir()
                trained = training.train(config, corpus)
                storage.save_checkpoint(kind / "model.tfck", trained.model, trained.steps,
                                        config)
        side(args.base.resolve() / "src", work, Path(tmp) / "base")
        side(ROOT / "src", work, Path(tmp) / "this")

        print(f"{'kind':20s} {'seed':>5s} {'max |score move|':>17s} "
              f"{'t2v ranks moved':>16s} {'v2t ranks moved':>16s}")
        largest, moved = 0.0, [0, 0]
        for seed in args.seeds:
            ids = storage.load_corpus(work / f"seed{seed}" / "corpus" / "manifest.json").ids
            for modality, fusion in MODEL_KINDS:
                name = f"seed{seed}/{modality}-{fusion}/sim.npy"
                base, this = (np.load(Path(tmp) / s / name) for s in ("base", "this"))
                move = float(np.max(np.abs(this - base)))
                ranks = [int(np.sum(ranks_from_similarity(a, ids)
                                    != ranks_from_similarity(b, ids)))
                         for a, b in ((this, base), (this.T, base.T))]
                largest = max(largest, move)
                moved = [m + r for m, r in zip(moved, ranks)]
                print(f"{modality + '-' + fusion:20s} {seed:5d} {move:17.3e} "
                      f"{ranks[0]:10d}/{len(ids):<5d} {ranks[1]:10d}/{len(ids):<5d}")
        total = len(args.seeds) * len(MODEL_KINDS) * args.items
        print(f"largest |score move| {largest:.3e}; ranks moved: t2v {moved[0]} and "
              f"v2t {moved[1]} of {total} each")
    return 0


if __name__ == "__main__":
    sys.exit(main())
