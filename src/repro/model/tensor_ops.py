"""Numpy kernels used by the reduced-width transformer numerics.

These are straightforward, well-tested reference implementations: the
simulator charges *paper-scale* costs separately (``repro.model.costs``),
so these kernels only need to be correct — but they sit on the harness
hot path (every simulated layer crossing runs them), so the formulations
avoid temporary allocations and the attention masks are memoized by
shape (DESIGN.md §11).  Every optimisation here is pinned bitwise to the
original formulation by ``tests/test_tensor_ops.py``.
"""

from __future__ import annotations

import numpy as np

#: tanh-GELU inner coefficient, hoisted off the per-call path.
_GELU_COEF = np.sqrt(2.0 / np.pi)

#: Memoized additive masks.  Entries are immutable (writeable=False) so
#: a cached array can be handed to every caller; the caches are cleared
#: wholesale past a generous cap to bound memory on adversarial inputs.
_CAUSAL_MASK_CACHE: dict[tuple[int, str], np.ndarray] = {}
_PADDING_MASK_CACHE: dict[tuple[int, str, bytes], np.ndarray] = {}
_MASK_CACHE_CAP = 512


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``.

    In-place-friendly: one temporary for the shifted logits which is
    then exponentiated and normalised in place — bit-identical to the
    naive three-temporary formulation.
    """
    out = x - np.max(x, axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= np.sum(out, axis=axis, keepdims=True)
    return out


def rms_norm(x: np.ndarray, weight: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """RMSNorm as used by the Qwen/MiniCPM decoder family.

    In-place-friendly: the quotient buffer is rescaled in place —
    bit-identical to ``x / scale * weight``.
    """
    scale = np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + eps)
    out = x / scale
    out *= weight
    return out


def layer_norm(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """LayerNorm as used by the BGE-M3 encoder family.

    In-place-friendly chain over the centred buffer — bit-identical to
    ``(x - mean) / np.sqrt(var + eps) * weight + bias``.
    """
    mean = np.mean(x, axis=-1, keepdims=True)
    var = np.var(x, axis=-1, keepdims=True)
    out = x - mean
    out /= np.sqrt(var + eps)
    out *= weight
    out += bias
    return out


def gelu(x: np.ndarray) -> np.ndarray:
    """tanh-approximated GELU (the variant BERT-family models use).

    In-place-friendly chain over one temporary; bit-identical to
    ``0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x**3)))``
    (commutations and the exact-by-construction final halving preserve
    every rounding).
    """
    x = np.asarray(x)
    out = np.empty(x.shape, dtype=x.dtype if x.dtype.kind == "f" else np.float64)
    np.power(x, 3, out=out)
    out *= 0.044715
    out += x
    out *= _GELU_COEF
    np.tanh(out, out=out)
    out += 1.0
    out *= x
    out *= 0.5
    return out


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU/Swish, the gate activation in SwiGLU FFNs.

    One temporary for the denominator, exponentiated in place —
    bit-identical to ``x / (1 + exp(-x))``.
    """
    x = np.asarray(x)
    denom = np.empty(x.shape, dtype=x.dtype if x.dtype.kind == "f" else np.float64)
    np.negative(x, out=denom)
    np.exp(denom, out=denom)
    denom += 1.0
    return np.divide(x, denom, out=denom)


def causal_mask(seq_len: int, dtype=np.float64) -> np.ndarray:
    """Additive causal attention mask: 0 on/below diagonal, -inf above.

    Memoized by ``(seq_len, dtype)`` — every layer crossing of every
    decoder task needs the same array, so it is built once and returned
    as an immutable view (callers only ever add it to score tensors).
    The ``dtype`` parameter lets the reduced-precision forward kernel
    (DESIGN.md §11) add the mask without promoting its scores.
    """
    dtype = np.dtype(dtype)
    key = (seq_len, dtype.str)
    cached = _CAUSAL_MASK_CACHE.get(key)
    if cached is None:
        if len(_CAUSAL_MASK_CACHE) >= _MASK_CACHE_CAP:
            _CAUSAL_MASK_CACHE.clear()
        mask = np.zeros((seq_len, seq_len), dtype=dtype)
        mask[np.triu_indices(seq_len, k=1)] = -np.inf
        mask.flags.writeable = False
        _CAUSAL_MASK_CACHE[key] = mask
        cached = mask
    return cached


def padding_mask(lengths: np.ndarray, seq_len: int, dtype=np.float64) -> np.ndarray:
    """Additive padding mask (N, 1, 1, L): -inf at padded key positions.

    Memoized by ``(seq_len, dtype, lengths)`` — a task re-presents the
    same length vector at every layer crossing, so the mask is built
    once per distinct shape and returned as an immutable view in the
    forward kernel's precision (DESIGN.md §11).
    """
    lengths = np.asarray(lengths)
    dtype = np.dtype(dtype)
    key = (seq_len, dtype.str, lengths.tobytes())
    cached = _PADDING_MASK_CACHE.get(key)
    if cached is None:
        if len(_PADDING_MASK_CACHE) >= _MASK_CACHE_CAP:
            _PADDING_MASK_CACHE.clear()
        positions = np.arange(seq_len)
        blocked = positions[None, :] >= lengths[:, None]  # (N, L)
        mask = np.where(blocked, -np.inf, 0.0)[:, None, None, :].astype(dtype)
        mask.flags.writeable = False
        _PADDING_MASK_CACHE[key] = mask
        cached = mask
    return cached


def split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    """(N, L, D) → (N, H, L, D/H)."""
    n, length, dim = x.shape
    if dim % num_heads:
        raise ValueError(f"dim {dim} not divisible by heads {num_heads}")
    return x.reshape(n, length, num_heads, dim // num_heads).transpose(0, 2, 1, 3)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """(N, H, L, D/H) → (N, L, D)."""
    n, heads, length, head_dim = x.shape
    return x.transpose(0, 2, 1, 3).reshape(n, length, heads * head_dim)
