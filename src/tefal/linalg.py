"""Dense linear-algebra primitives with hand-written reverse-mode rules.

Every quantity is a 2-D float64 array ("matrix").  Each differentiable
primitive ships with an explicit backward rule, and ``grad_check`` verifies
any registered rule against central finite differences.  The model layers
above compose these rules in a fixed order; there is no general tape.

Composition order used by the attention block (and mirrored in its
backward pass):

    layernorm_rows -> projections -> scaled dot product + softmax_rows ->
    weighted pooling -> output projection -> layernorm_rows
"""

import numpy as np

LAYERNORM_EPS = 1e-5


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


def canonical_sum(values: np.ndarray, axis: int) -> np.ndarray:
    """Sum along ``axis`` after sorting the addends.

    Floating-point addition is not associative, so a plain reduction changes
    in the last bits when the addends are reordered.  Sorting first makes the
    result a function of the multiset of addends only, which is what gives
    the attention pooling its bit-exact permutation invariance.
    """
    return np.sum(np.sort(values, axis=axis), axis=axis)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability.

    The denominator is accumulated with :func:`canonical_sum` so that
    permuting the entries of a row permutes the outputs bit-exactly.
    """
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
    rows in row order whatever the trailing shape.  numpy's ``sum`` and
    ``einsum`` add C-contiguous rows so when two or more elements trail the
    summed axis; with one they go pairwise, so that case runs a loop here.
    A column's sum never depends on how many columns share the call."""
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


def layernorm_rows(m: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                   eps: float = LAYERNORM_EPS, axis: int = -1) -> np.ndarray:
    """Standardize each row to zero mean / unit variance, then apply affine.

    Uses the population variance and puts ``eps`` inside the square root, so
    a constant row maps exactly to the bias vector.  The features lie along
    ``axis``: -1 for row blocks, 0 for pair-last arrays, whose feature sums
    run in feature order (:func:`sum_leading`).
    """
    m = np.asarray(m, dtype=np.float64)
    width = m.shape[axis]
    column = (width,) + (1,) * (m.ndim - 1) if axis == 0 else (1, width)
    # sum / width is bit-identical to mean(), without its Python overhead
    out = m - _feature_sum(m, axis) / width
    out *= 1.0 / np.sqrt(_feature_sum(out, axis, out) / width + eps)
    out *= gain.reshape(column)
    out += bias.reshape(column)
    return out


def layernorm_rows_backward(d_out: np.ndarray, m: np.ndarray, gain: np.ndarray,
                            eps: float = LAYERNORM_EPS, axis: int = -1):
    """Gradients (d_m, d_gain, d_bias) for :func:`layernorm_rows`."""
    m = np.asarray(m, dtype=np.float64)
    width = m.shape[axis]
    xhat = m - _feature_sum(m, axis) / width
    inv = 1.0 / np.sqrt(_feature_sum(xhat, axis, xhat) / width + eps)
    xhat *= inv

    rows = tuple(i for i in range(m.ndim) if i != axis % m.ndim)
    d_bias = d_out.sum(axis=rows).reshape(1, width)
    d_gain = (d_out * xhat).sum(axis=rows).reshape(1, width)
    g = d_out * gain.reshape((width,) + (1,) * (m.ndim - 1) if axis == 0 else (1, width))
    d_m = inv * (g - _feature_sum(g, axis) / width
                 - xhat * (_feature_sum(g, axis, xhat) / width))
    return d_m, d_gain, d_bias


# ---------------------------------------------------------------------------
# finite-difference verification
# ---------------------------------------------------------------------------

def _check_softmax(m):
    out = softmax_rows(m)
    return out, lambda d_out: (softmax_rows_backward(d_out, out),)


def _check_layernorm(m, gain, bias):
    out = layernorm_rows(m, gain, bias)
    return out, lambda d_out: layernorm_rows_backward(d_out, m, gain)


_GRAD_CHECK_OPS = {
    "softmax_rows": _check_softmax,
    "layernorm_rows": _check_layernorm,
}


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max elementwise |a - n| / max(|a|, |n|, 1e-3).

    The floor makes the measure absolute near zero, where a pure ratio would
    amplify finite-difference noise on vanishing gradients.
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
    return float(np.max(np.abs(analytic - numeric) / denom))


def finite_difference_gradients(forward, inputs, step: float):
    """Central-difference gradients of the scalar ``forward()`` w.r.t. every
    array of ``inputs``, each perturbed in place and restored."""
    grads = []
    for x in inputs:
        g = np.zeros_like(x)
        for i in range(x.size):
            orig = x.flat[i]
            x.flat[i] = orig + step
            hi = forward()
            x.flat[i] = orig - step
            lo = forward()
            x.flat[i] = orig
            g.flat[i] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads


def grad_check(op: str, *point, step: float = 1e-5, seed: int = 0) -> float:
    """Compare an analytic backward rule against central finite differences.

    ``op`` names a registered primitive; ``point`` supplies its inputs.  A
    fixed random cotangent turns the matrix output into a scalar objective.
    Returns the worst relative error over every coordinate of every input.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    try:
        builder = _GRAD_CHECK_OPS[op]
    except KeyError:
        raise ValueError(
            f"unknown op {op!r}; known ops: {sorted(_GRAD_CHECK_OPS)}") from None

    inputs = [np.array(p, dtype=np.float64) for p in point]
    out, backward = builder(*inputs)
    d_out = np.random.default_rng(seed).standard_normal(out.shape)
    analytic = backward(d_out)
    numeric = finite_difference_gradients(
        lambda: float(np.sum(d_out * builder(*inputs)[0])), inputs, step)
    return max(relative_error(a, n) for a, n in zip(analytic, numeric))


# ---------------------------------------------------------------------------
# parameter storage
# ---------------------------------------------------------------------------

class ParamStore:
    """Named parameter matrices with matching gradient buffers.

    Mutation (gradient accumulation, optimizer updates) is single-writer;
    reads are safe from any thread.
    """

    def __init__(self, params: dict[str, np.ndarray]):
        self._params = dict(params)
        self._grads = {name: np.zeros_like(p) for name, p in self._params.items()}
        self.step = 0

    def __getitem__(self, name: str) -> np.ndarray:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def grad(self, name: str) -> np.ndarray:
        return self._grads[name]

    def accumulate(self, grads: dict[str, np.ndarray]) -> None:
        for name, g in grads.items():
            buf = self._grads[name]
            if g.shape != buf.shape:
                raise ShapeError(
                    f"gradient for {name!r} has shape {g.shape}, "
                    f"parameter has shape {buf.shape}")
            buf += g

    def zero_grad(self) -> None:
        for g in self._grads.values():
            g[...] = 0.0

    def global_grad_norm(self) -> float:
        total = 0.0
        for g in self._grads.values():
            total += float(np.sum(g * g))
        return float(np.sqrt(total))

    def scale_grads(self, factor: float) -> None:
        for g in self._grads.values():
            g *= factor
