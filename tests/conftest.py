"""Stage-1 oracles and the model kinds shared by the ranking, model and
CLI tests."""

import numpy as np

from tefal import ranking
from tefal.model import MODEL_KINDS    # noqa: F401 - shared with the test modules


def stage1_matrix(corpus):
    """The full (texts x videos) stage-1 score matrix, from the row kernel
    the streamed stage 1 scores its blocks with."""
    text_rows, video_rows = ranking._stage1_rows(corpus)
    return ranking._row_scores(text_rows, video_rows.T)


def distinct_shortlisted_pairs(stage1, k, ids):
    """The (text, video) pairs that the t2v and v2t stage-1 shortlists of a
    (texts x videos) score matrix hold between them, each pair once."""
    ids = np.asarray(ids)
    id_rank = ranking._id_ranks(ids)
    t2v, _ = ranking._stage1_shortlists(stage1.__getitem__, k, ids, id_rank, 1)
    v2t, _ = ranking._stage1_shortlists(stage1.T.__getitem__, k, ids, id_rank, 1)
    return ({(q, int(c)) for q, row in enumerate(t2v) for c in row}
            | {(int(c), q) for q, row in enumerate(v2t) for c in row})
