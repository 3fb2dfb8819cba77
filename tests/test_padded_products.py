"""The padded-product rule of :func:`tefal.linalg.padded_matmul`, checked on
the installed BLAS.

Tile invariance rests on it: a column of a padded product must keep its
bits whatever columns, items and BLAS threads share the call.  Whether it
holds depends on the BLAS build and the CPU kernels it picks, so this
guard fails, and never skips, where it breaks; its message names the BLAS,
the shape and the pad multiple.
"""

import ctypes
import glob
from pathlib import Path

import numpy as np
import pytest

from tefal.attention import (
    XAttnParams,
    attend_and_pool,
    attend_tile,
    pooling_rows,
    project_candidates,
    project_queries,
)
from tefal.linalg import PAD, padded_matmul, padded_width
from tefal.model import _openblas_threads
from tefal.ranking import _CHUNK_ROWS

# the benchmark's feature width, D = D_p
D = 32
TRIALS = 16


def blas_description() -> str:
    """The BLAS numpy was built with, and the configuration its library
    reports at run time (which names the CPU kernels in use)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    text = (f"{blas.get('name')} {blas.get('version')} "
            f"(built as: {blas.get('openblas configuration', 'n/a')})")
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_config64_", "openblas_get_config64_",
                     "openblas_get_config"):
            config = getattr(lib, name, None)
            if config is not None:
                config.argtypes, config.restype = [], ctypes.c_char_p
                return f"{text}; running: {config().decode()}"
    return text


def stacked_logits(rng, items, n):
    """K_c, as the kernel reads it: a view of each candidate's
    K || M || M diag(g_o), M the value rows with LN_o's centring folded in."""
    return rng.standard_normal((items, n, 3 * D))[:, :, :D]


def stacked_fused_pooling(rng, items, k):
    """[M_1 diag(g_1); ...; b_1 + ...]^T, the left operand of the pooling
    product over the blocks whose outputs are summed
    (``attention.attend_and_pool``):
    K = their rows plus the bias row, a transposed view of a contiguous
    (C, K, D_p) stack."""
    return rng.standard_normal((items, k, D)).transpose(0, 2, 1)


def stacked_gram(rng, items, n):
    """G_c = M_c M_c^T, the (n, n) Gram of the middle third, which weights
    the LN_o variance."""
    m = rng.standard_normal((items, n, 3 * D))[:, :, D:2 * D]
    return m @ m.transpose(0, 2, 1)


def transposed_weight(rng, m, k):
    """W^T of a (k, m) weight: ``project_queries``' W_q, late's and concat_fc's."""
    return rng.standard_normal((k, m)).T


# every (M, K) of a padded product in the engine, with the layout of its
# left operand: the logits for n context rows, the LN_o variance's Gram,
# the fused pooling over one block's n rows and the bias row (K = n + 1:
# 2, 5, 9, 10, and 3 for the xattn block's two rows), over addition's two
# (3 + 9 + 1 = 4 + 8 + 1, and 4 + 9 + 1) and over stacking's F + 1
# (5 + 1), project_queries (and late fusion), concat_fc, and stage 1's
# chunks
STACKED = ([(f"logits n={n}", stacked_logits, n) for n in (1, 2, 4, 5, 8, 9)]
           + [(f"gram n={n}", stacked_gram, n) for n in (1, 2, 4, 5, 8, 9)]
           + [(f"fused pooling K={k}", stacked_fused_pooling, k)
              for k in (2, 3, 5, 6, 9, 10, 13, 14)])
FLAT = [("project_queries", lambda rng: transposed_weight(rng, D, D)),
        ("concat_fc", lambda rng: transposed_weight(rng, D, 2 * D)),
        ("stage 1", lambda rng: rng.standard_normal((_CHUNK_ROWS, D)))]


def assert_same_bits(got, want, what, a, pairs, threads):
    if got.shape != want.shape or got.tobytes() != want.tobytes():
        raise AssertionError(
            f"padded product not column-invariant under {what}: a {a.shape} with "
            f"strides {a.strides}, {pairs} pairs, PAD={PAD}, {threads} BLAS "
            f"threads; BLAS: {blas_description()}")


def gather(b, index):
    """Each item's columns ``index[c]`` of the shared (K, T) ``b``, gathered
    as ``Queries.rows`` does and read as (C, K, t) items."""
    k = b.shape[0]
    return np.take(b, index.ravel(), axis=-1).reshape(k, *index.shape).transpose(1, 0, 2)


def check_stacked(rng, make, n, threads):
    """The checks of one stacked product; returns its (a, dense product)
    trials, for the comparison across thread counts."""
    out = []
    for _ in range(TRIALS):
        items, pairs = int(rng.integers(1, 40)), int(rng.integers(1, 1100))
        a = make(rng, items, n)
        b = rng.standard_normal((a.shape[-1], pairs))
        dense = padded_matmul(a, b)[..., :pairs]
        out.append((a, dense))
        # written into the (M, C, T_pad) layout, as the pooling is
        layout = np.empty((a.shape[1], items, padded_width(pairs))).transpose(1, 0, 2)
        padded_matmul(a, b, out=layout)
        assert_same_bits(layout[..., :pairs], dense, "an output layout", a, pairs, threads)
        index = rng.integers(0, pairs, size=(items, int(rng.integers(1, 60))))
        grouped = padded_matmul(a, gather(b, index))[..., :index.shape[1]]
        assert_same_bits(grouped, np.take_along_axis(dense, index[:, None, :], axis=2),
                         "a column gather per item", a, pairs, threads)
        subset = np.sort(rng.choice(items, size=int(rng.integers(1, items + 1)),
                                    replace=False))
        assert_same_bits(padded_matmul(a[subset], b)[..., :pairs], dense[subset],
                         "an item subset", a, pairs, threads)
        assert_same_bits(
            padded_matmul(a[subset], gather(b, index[subset]))[..., :index.shape[1]],
            grouped[subset], "an item subset of a gather", a, pairs, threads)
    return out


def check_flat(rng, make, threads):
    """The checks of one flat product, returning its trials likewise."""
    out = []
    for _ in range(TRIALS):
        pairs = int(rng.integers(1, 1100))
        a = make(rng)
        b = rng.standard_normal((a.shape[-1], pairs))
        dense = padded_matmul(a, b)[:, :pairs]
        out.append((a, dense))
        index = rng.integers(0, pairs, size=int(rng.integers(1, 200)))
        assert_same_bits(padded_matmul(a, b[:, index])[:, :len(index)], dense[:, index],
                         "a column gather", a, pairs, threads)
        cols = slice(int(rng.integers(0, pairs)), pairs)
        assert_same_bits(padded_matmul(a, b[:, cols])[:, :pairs - cols.start],
                         dense[:, cols], "a column slice", a, pairs, threads)
    return out


def at_each_thread_count(check):
    """``check(threads)`` at OpenBLAS 1 and 2 threads (at the default where
    numpy bundles no OpenBLAS), the count restored after; every count's
    trials must have the first count's bits."""
    blas = _openblas_threads()
    counts = [None] if blas is None else [1, 2]
    saved = None if blas is None else blas[0]()
    try:
        results = []
        for threads in counts:
            if threads is not None:
                blas[1](threads)
            results.append(check(threads))
    finally:
        if blas is not None:
            blas[1](saved)
    for got in results[1:]:
        for (a, trial), (_, want) in zip(got, results[0]):
            assert_same_bits(trial, want, "a change of BLAS thread count", a,
                             want.shape[-1], counts)


@pytest.mark.parametrize("name,make,n", STACKED, ids=[s[0] for s in STACKED])
def test_stacked_products_keep_each_columns_bits(name, make, n):
    at_each_thread_count(lambda threads: check_stacked(np.random.default_rng(n), make, n,
                                                       threads))


@pytest.mark.parametrize("name,make", FLAT, ids=[s[0] for s in FLAT])
def test_flat_products_keep_each_columns_bits(name, make):
    at_each_thread_count(lambda threads: check_flat(np.random.default_rng(len(name)), make,
                                                    threads))


FUSED_K = [k for name, _, k in STACKED if name.startswith("fused pooling")]


@pytest.mark.parametrize("k", FUSED_K)
def test_a_pooling_operand_written_in_place_keeps_the_concatenated_bits(k):
    # attend_and_pool writes each block's scaled weights into its rows of
    # the (C, K, T_pad) operand, under the row of ones; its product must
    # keep the bits of the concatenated operand that it replaced, with the
    # K - 1 value rows in one block or split between two, as addition's
    rng = np.random.default_rng(k)
    for split in ([k - 1], [k // 2, k - 1 - k // 2]) if k > 2 else ([1],):
        for _ in range(TRIALS // 4):
            items, pairs = int(rng.integers(1, 40)), int(rng.integers(1, 300))
            blocks = []
            for n in split:
                params = XAttnParams.create(rng, D, D)
                params.ln_o_bias = rng.standard_normal((1, D))
                cands = project_candidates(params, rng.standard_normal((D, n, items)))
                q = project_queries(params, rng.standard_normal((pairs, D)))[:, None]
                blocks.append((params, q, cands))
            rows = pooling_rows([(params, cands) for params, _, cands in blocks])
            cols = slice(int(rng.integers(0, items)), items)
            got, _ = attend_and_pool(blocks, rows, cols)
            terms = [attend_tile(params, q, cands, cols) for params, q, cands in blocks]
            stacked = np.concatenate([e * scale for e, scale, _ in terms]
                                     + [np.ones((len(got[0]), 1, got.shape[-1]))], axis=1)
            want = np.empty_like(got)
            padded_matmul(rows[cols], stacked, out=want.transpose(1, 0, 2))
            assert_same_bits(got, want, "an operand written in place", rows[cols], pairs,
                             None)
