"""Dense float64 primitives with hand-written reverse-mode rules, which
:mod:`tefal.verify` checks against central finite differences.  The layers
above compose these rules in a fixed order; there is no general tape.
"""

import math
import sys

import numpy as np

LAYERNORM_EPS = 1e-5

# the pair axis of every per-pair product is zero-padded to a multiple of
# this (see padded_matmul); the smallest multiple that
# tests/test_padded_products.py passes on for the installed BLAS
PAD = 8

_INT64_MAX = int(np.iinfo(np.int64).max)


class ShapeError(ValueError):
    """Raised when operand dimensions do not compose."""


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting empty or higher-rank input."""
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeError(f"{name} must have at least one row and column, got {m.shape}")
    return m


def is_integer(x) -> bool:
    """Whether ``x`` is an integer, or an array of integers; a bool is not."""
    if isinstance(x, np.ndarray):
        return np.issubdtype(x.dtype, np.integer)
    return isinstance(x, (int, np.integer)) and not isinstance(x, (bool, np.bool_))


def require_int(value, name: str, minimum: int = 0, maximum: int | None = None,
                error: type = ValueError) -> None:
    """The one integer rule for a scalar argument: raise ``error`` (a
    ValueError) naming ``name`` unless ``value`` is an integer (a bool or an
    array is none) from ``minimum`` to ``maximum``, which defaults to the
    int64 limit."""
    if isinstance(value, np.ndarray) or not is_integer(value):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")
    maximum = _INT64_MAX if maximum is None else maximum
    if value > maximum:
        raise error(f"{name} must be <= {maximum}, got {value}")


def require_real(value, name: str, error: type = ValueError) -> None:
    """The one number rule for a scalar argument: raise ``error`` (a
    ValueError) naming ``name`` unless ``value`` is an int or float (a bool
    or an array is neither) that a float holds finitely."""
    integer = is_integer(value)
    number = integer or isinstance(value, (float, np.floating))
    if isinstance(value, np.ndarray) or not number:
        raise error(f"{name} must be a number, got {value!r}")
    # an int is finite when a float holds it
    if not (abs(value) <= sys.float_info.max if integer else math.isfinite(value)):
        raise error(f"{name} must be finite, got {value!r}")


def canonical_sum(values: np.ndarray, axis: int) -> np.ndarray:
    """Sum along ``axis`` after sorting the addends, so that the result
    depends only on their multiset, not on their order."""
    return np.sum(np.sort(values, axis=axis), axis=axis)


def padded_width(pairs: int) -> int:
    """``pairs`` rounded up to a whole multiple of ``PAD``."""
    return pairs + -pairs % PAD


def pad_pairs(x: np.ndarray) -> np.ndarray:
    """``x`` with its last (pair) axis zero-padded to :func:`padded_width`
    and of unit stride: ``x`` itself when it already is, else a copy."""
    pairs = x.shape[-1]
    if pairs % PAD == 0 and x.strides[-1] == x.itemsize:
        return x
    out = np.zeros(x.shape[:-1] + (padded_width(pairs),))
    out[..., :pairs] = x
    return out


def padded_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
                  ) -> np.ndarray:
    """``a @ pad_pairs(b)``, stacked as by ``np.matmul``, into ``out`` if
    given: every per-pair product of the engine, the pairs (queries,
    candidates or their pairs) along ``b``'s last axis.  The result keeps
    the padded columns, for the caller to drop.

    Determinism: the BLAS picks its kernel, and how that kernel treats a
    partial edge tile, by the operands' shapes and layouts.  Here numpy
    hands the BLAS one item at a time; each caller gives its ``a`` one
    shape and layout for a given model and corpus; and the pair axis has
    unit stride and a whole multiple of ``PAD`` entries.  No column then
    falls in a partial tile of a kernel whose tiles divide ``PAD``, so each
    column's dot products run one fixed sequence of operations, wherever
    the column sits and whichever kernel the width selects, and a thread
    split divides tiles, not a dot product.  So a column's bits depend only
    on that column, ``a`` and the BLAS build: not on the other columns,
    their order or count, the items beside it or the BLAS thread count
    (``tests/test_padded_products.py`` checks this on the installed BLAS).
    """
    return np.matmul(a, pad_pairs(b), out=out)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax, max-shifted, its denominator a :func:`canonical_sum`."""
    m = np.asarray(m, dtype=np.float64)
    shifted = m - m.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / canonical_sum(e, axis=-1)[..., None]


def softmax_rows_backward(d_out: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Backward rule given the forward output ``out = softmax_rows(m)``."""
    inner = np.sum(d_out * out, axis=-1, keepdims=True)
    return out * (d_out - inner)


def sum_leading(x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """Sum over axis 0 of ``x`` (or of ``x * y``, broadcasting), adding the
    rows in row order whatever the trailing shape, so a column's sum never
    depends on how many columns share the call.  numpy's ``sum`` and
    ``einsum`` add C-contiguous rows so when two or more elements trail the
    summed axis; with one they go pairwise, so that case runs a loop here."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if y is None:
        return x.sum(axis=0) if x[0].size > 1 else sum(x, np.zeros(x.shape[1:]))
    y = np.ascontiguousarray(y, dtype=np.float64)
    if max(x[0].size, y[0].size) > 1:
        return np.einsum("i...,i...->...", x, y)
    return sum(x * y, np.zeros(np.broadcast_shapes(x.shape[1:], y.shape[1:])))


def _feature_sum(m: np.ndarray, axis: int, y: np.ndarray | None = None) -> np.ndarray:
    """Sum of ``m`` (or ``m * y``) over the feature axis, kept as length 1."""
    if axis == 0:
        return sum_leading(m, y)[None]
    return (m if y is None else m * y).sum(axis=-1, keepdims=True)


def _standardize(m: np.ndarray, axis: int):
    """``(xhat, inv)``: ``m`` centred and scaled to unit variance along
    ``axis``, and the reciprocal standard deviation it was scaled by."""
    width = m.shape[axis]
    # sum / width is bit-identical to mean(), without its Python overhead
    xhat = m - _feature_sum(m, axis) / width
    inv = 1.0 / np.sqrt(_feature_sum(xhat, axis, xhat) / width + LAYERNORM_EPS)
    xhat *= inv
    return xhat, inv


def _column(width: int, ndim: int, axis: int) -> tuple:
    """Shape that broadcasts a (1, width) affine along ``axis``."""
    return (width,) + (1,) * (ndim - 1) if axis == 0 else (1, width)


def layernorm_rows(m: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                   axis: int = -1, keep: bool = False):
    """Standardize along ``axis`` (population variance, ``LAYERNORM_EPS``
    inside the root, so a constant row maps to the bias), then the affine.
    Along axis 0 the sums go through :func:`sum_leading`.  With ``keep``,
    the pair ``(out, xhat)``, ``xhat`` the standardized input."""
    m = np.asarray(m, dtype=np.float64)
    column = _column(m.shape[axis], m.ndim, axis)
    out, _ = _standardize(m, axis)
    xhat = out.copy() if keep else None
    out *= gain.reshape(column)
    out += bias.reshape(column)
    return (out, xhat) if keep else out


def layernorm_affine_grads(d_out: np.ndarray, xhat: np.ndarray, axis: int = -1):
    """The ``(d_gain, d_bias)`` of :func:`layernorm_rows_backward`, bit for
    bit, from its standardized input ``xhat``, for an input that is data."""
    rows = tuple(i for i in range(xhat.ndim) if i != axis % xhat.ndim)
    width = xhat.shape[axis]
    return ((d_out * xhat).sum(axis=rows).reshape(1, width),
            d_out.sum(axis=rows).reshape(1, width))


def layernorm_rows_backward(d_out: np.ndarray, m: np.ndarray, gain: np.ndarray,
                            axis: int = -1):
    """Gradients ``(d_m, d_gain, d_bias)`` for :func:`layernorm_rows`."""
    xhat, inv = _standardize(np.asarray(m, dtype=np.float64), axis)
    return standardized_backward(d_out, xhat, inv, gain, axis)


def standardized_backward(d_out: np.ndarray, xhat: np.ndarray, inv: np.ndarray,
                          gain: np.ndarray, axis: int = -1):
    """:func:`layernorm_rows_backward` from the standardized input ``xhat``
    and the reciprocal standard deviation ``inv`` it was scaled by."""
    width = xhat.shape[axis]
    d_gain, d_bias = layernorm_affine_grads(d_out, xhat, axis)
    g = d_out * gain.reshape(_column(width, xhat.ndim, axis))
    d_m = inv * (g - _feature_sum(g, axis) / width
                 - xhat * (_feature_sum(g, axis, xhat) / width))
    return d_m, d_gain, d_bias
