"""Text-conditioned audio/video retrieval engine.

A query text attends over video frame embeddings and audio token embeddings
through two independent cross-attention blocks; the two conditioned
embeddings are fused (by addition, by default) and compared to the query by
cosine similarity.  The package re-exports each module's main entry points.
"""

from .attention import (
    XAttnParams,
    attend,
    conditioned_embedding,
    export_attention_weights,
)
from .audiofeat import (
    MelFilterBank,
    PatchGrid,
    Waveform,
    adaptive_frame_shift,
    compute_fbank,
    patch_count,
    patch_grid,
    read_wav,
    zero_fbank,
)
from .config import ConfigError, TrainConfig
from .contrastive import Temperature, infonce
from .corpus import Corpus, audio_summary, synth_corpus
from .fusion import FusionKind, FusionParams
from .linalg import ShapeError, layernorm_rows, softmax_rows
from .model import RetrievalModel, create_model, named_parameters, similarity_matrix
from .ranking import (
    EvalResult,
    EvalStats,
    NonFiniteScoreError,
    RankingMetrics,
    compute_metrics,
    dual_softmax_postprocess,
    evaluate,
    rank_exhaustive,
    ranks_from_similarity,
    rerank_two_stage,
)
from .storage import (
    FormatError,
    load_checkpoint,
    load_corpus,
    read_embeddings,
    read_fbank,
    save_checkpoint,
    save_corpus,
    write_embeddings,
    write_fbank,
)
from .training import AdamW, TrainingDiverged, TrainResult, train
from .verify import end_to_end_check, run_grad_checks

__version__ = "0.1.0"
