#!/usr/bin/env python3
"""Train the retrieval model on a synthetic corpus and ablate the audio path.

Half the items carry a latent in their audio tokens that appears in the
text but in no video frame.  Training the full model (addition fusion) and
the single-modality ablations shows the audio branch adding real signal:
R@1(both) > R@1(video only) > R@1(audio only).

Runs in a couple of minutes on a laptop; shrink --items for a faster pass.
"""

import argparse
import dataclasses

from tefal.config import TrainConfig
from tefal.corpus import synth_corpus
from tefal.ranking import evaluate
from tefal.training import train

parser = argparse.ArgumentParser()
parser.add_argument("--items", type=int, default=300)
parser.add_argument("--epochs", type=int, default=8)
args = parser.parse_args()

corpus = synth_corpus(seed=7, n_items=args.items, dim=32, frames=4,
                      audio_tokens=8, audio_informative=0.5, noise=0.7)
base = TrainConfig(dim=32, proj_dim=32, frames=4, audio_tokens=8,
                   batch_size=16, epochs=args.epochs, learning_rate=3e-3, seed=1)

print(f"{args.items} items, {args.epochs} epochs\n")
print(f"{'configuration':16s} {'R@1':>6s} {'R@5':>6s} {'MdR':>5s}  loss first->last")
for modality in ("both", "video", "audio"):
    config = dataclasses.replace(base, modality=modality)
    result = train(config, corpus)
    metrics = evaluate(result.model, corpus).t2v
    first, last = result.history[0]["loss"], result.history[-1]["loss"]
    print(f"{modality:16s} {metrics.r1:6.1f} {metrics.r5:6.1f} "
          f"{metrics.mdr:5.1f}  {first:.3f} -> {last:.3f}")

print("\nThe audio branch should lift R@1 well above the video-only model;")
print("audio alone ranks far worse since only half the items carry signal.")
