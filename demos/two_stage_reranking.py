#!/usr/bin/env python3
"""Two-stage retrieval: a cheap shortlist, then the expensive model.

The text-conditioned model cannot pre-compute candidate embeddings (they
depend on the query), so scoring every query against every candidate costs
one model evaluation per pair.  Ranking by mean-pooled frames first and
re-scoring only the top k keeps nearly all of the quality at a tenth of
the model evaluations.  Evaluating both directions scores each (text,
video) pair that the two directions' shortlists share only once.
"""

import time

from tefal.config import TrainConfig
from tefal.corpus import synth_corpus
from tefal.ranking import compute_metrics, evaluate, rank_exhaustive, rerank_two_stage
from tefal.training import train

n = 400
corpus = synth_corpus(seed=7, n_items=n, dim=32, frames=4, audio_tokens=8,
                      audio_informative=0.5, noise=0.7)
config = TrainConfig(dim=32, proj_dim=32, frames=4, audio_tokens=8,
                     batch_size=16, epochs=6, learning_rate=3e-3, seed=1)
print(f"training on {n} items...")
model = train(config, corpus).model

t0 = time.monotonic()
exhaustive = rank_exhaustive(model, corpus)
t_full = time.monotonic() - t0

print(f"\n{'pipeline':>16s} {'R@1':>6s} {'R@5':>6s} {'model evals':>12s} {'time':>7s}")
m = compute_metrics(exhaustive.ranks, n)
print(f"{'exhaustive':>16s} {m.r1:6.1f} {m.r5:6.1f} "
      f"{exhaustive.stats.stage2_model_evals:12d} {t_full:6.2f}s")

for k in (n, n // 10, n // 40):
    t0 = time.monotonic()
    result = rerank_two_stage(model, corpus, k=k)
    elapsed = time.monotonic() - t0
    m = compute_metrics(result.ranks, n)
    label = f"re-rank k={k}"
    print(f"{label:>16s} {m.r1:6.1f} {m.r5:6.1f} "
          f"{result.stats.stage2_model_evals:12d} {elapsed:6.2f}s")

print("\nk equal to the corpus size reproduces the exhaustive ranking exactly;")
print("a 10% shortlist keeps R@1 close to it at a tenth of the model evals")
print("(pruning hard negatives can even nudge it up on small corpora).")

k = n // 10
both = evaluate(model, corpus, k=k)
print(f"\nevaluate(k={k}) scores {both.stats.stage2_model_evals} distinct pairs for "
      f"t2v and v2t together, against 2*n*k = {2 * n * k}")
