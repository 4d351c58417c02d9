"""Transformer layer numerics at reduced width.

``TransformerLayerWeights`` holds the numpy arrays for one layer;
``TransformerLayer`` applies pre-norm attention + FFN with residual
connections as one fused forward, in whatever precision its weights
carry (the model casts them to float32).  Decoder-family models
(Qwen3, MiniCPM) use RMSNorm, causal attention and SwiGLU;
encoder-family models (BGE-M3) use LayerNorm, bidirectional attention
and GELU — mirroring the two cross-encoder architectures the paper
evaluates (§2.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_ops import (
    causal_mask,
    gelu,
    layer_norm,
    merge_heads,
    padding_mask,
    rms_norm,
    silu,
    split_heads,
)
from .zoo import ModelConfig


@dataclass
class TransformerLayerWeights:
    """Numpy weights for one reduced-width layer."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w_gate: np.ndarray | None  # decoder (SwiGLU) only
    w_up: np.ndarray
    w_down: np.ndarray
    norm1: np.ndarray
    norm2: np.ndarray
    norm1_bias: np.ndarray | None  # encoder (LayerNorm) only
    norm2_bias: np.ndarray | None

    def nbytes_actual(self) -> int:
        """Actual numpy bytes (diagnostics only; accounting is paper-scale)."""
        total = 0
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                total += value.nbytes
        return total

    def cast(self, dtype) -> "TransformerLayerWeights":
        """A copy of these weights in ``dtype`` (the forward kernel's precision)."""
        return TransformerLayerWeights(
            **{
                name: None if value is None else value.astype(dtype)
                for name, value in vars(self).items()
            }
        )


def init_layer_weights(config: ModelConfig, layer_idx: int) -> TransformerLayerWeights:
    """Deterministically initialise one layer's reduced-width weights.

    Seeded by (model seed, layer index) so that a layer loaded from the
    simulated SSD is bit-identical no matter which engine loads it.
    """
    rng = np.random.default_rng(np.random.SeedSequence([config.model_seed, layer_idx]))
    d, f = config.sim_hidden, config.sim_ffn
    scale = 1.0 / np.sqrt(d)

    def mat(rows: int, cols: int) -> np.ndarray:
        return rng.standard_normal((rows, cols)) * scale

    decoder = config.is_decoder
    return TransformerLayerWeights(
        wq=mat(d, d),
        wk=mat(d, d),
        wv=mat(d, d),
        wo=mat(d, d),
        w_gate=mat(d, f) if decoder else None,
        w_up=mat(d, f),
        w_down=mat(f, d),
        norm1=np.ones(d),
        norm2=np.ones(d),
        norm1_bias=None if decoder else np.zeros(d),
        norm2_bias=None if decoder else np.zeros(d),
    )


class TransformerLayer:
    """Applies one layer's numerics to a hidden-state batch."""

    def __init__(self, config: ModelConfig, weights: TransformerLayerWeights) -> None:
        self.config = config
        self.weights = weights
        #: Lazily fused projection matrices (QKV / gate+up stacked
        #: column-wise); built once per layer instance, so the model's
        #: cached per-layer kernels pay for them once.
        self._wqkv: np.ndarray | None = None
        self._w_gate_up: np.ndarray | None = None

    def forward(self, hidden: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Run the layer over ``hidden`` (N, L, D_sim); returns a new array.

        The forward kernel (DESIGN.md §11), organised for harness
        wall-clock: projections run as single stacked matmuls (QKV
        fused, SwiGLU gate+up fused) and the attention-score pipeline
        mutates one buffer in place instead of allocating a temporary
        per op.  It computes in whatever dtype ``hidden`` and the
        weights carry; the model feeds it float32
        (``repro.model.transformer.KERNEL_DTYPE``), which halves the
        memory traffic of the (N, H, L, L) score tensors.  Selections
        are unaffected by construction — observables ride the semantic
        channel, injected exactly after every crossing.
        """
        if hidden.ndim != 3:
            raise ValueError(f"hidden must be (N, L, D); got {hidden.shape}")
        w = self.weights
        normed = self._norm(hidden, w.norm1, w.norm1_bias)
        attn = self._attention(normed, lengths)
        attn += hidden  # in place: ``attn`` is fresh off the matmul chain
        hidden = attn
        normed = self._norm(hidden, w.norm2, w.norm2_bias)
        hidden += self._ffn(normed)  # in place: residual owns the buffer
        return hidden

    # ------------------------------------------------------------------
    def _norm(
        self, x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None
    ) -> np.ndarray:
        if self.config.is_decoder:
            return rms_norm(x, weight)
        assert bias is not None
        return layer_norm(x, weight, bias)

    def _attention(self, x: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        w = self.weights
        heads = self.config.sim_heads
        if self._wqkv is None:
            # Fold the 1/sqrt(head_dim) softmax scale into the Q columns
            # at build time: scaling the (D, D) weight once replaces a
            # full pass over every (N, H, L, L) score tensor.
            head_dim = w.wq.shape[0] // heads
            wq = w.wq * (1.0 / float(np.sqrt(head_dim)))
            self._wqkv = np.concatenate([wq, w.wk, w.wv], axis=1)
        seq_len, dim = x.shape[1], x.shape[2]
        qkv = x @ self._wqkv  # one stacked projection
        q = split_heads(qkv[..., :dim], heads)  # pre-scaled (see above)
        k = split_heads(qkv[..., dim : 2 * dim], heads)
        v = split_heads(qkv[..., 2 * dim :], heads)
        scores = q @ k.transpose(0, 1, 3, 2)
        if np.min(lengths) < seq_len:  # all-full batches need no padding mask
            scores += padding_mask(lengths, seq_len, dtype=scores.dtype)
        if self.config.is_decoder:
            scores += causal_mask(seq_len, dtype=scores.dtype)
        # In-place softmax over the score buffer.  Instead of the usual
        # subtract-the-row-max shift (numpy's NaN-propagating max
        # reduction costs more than every other pass combined), overflow
        # is prevented by clamping at 80: exp(80) is far below the
        # float32 ceiling even summed over a row, the clamp never
        # activates for normalised inputs (|scores| stays in the tens),
        # and masked -inf entries still exponentiate to exactly 0.  The
        # normalisation divides the post-contraction context tensor —
        # exact by linearity, and H·L/head_dim times less traffic than
        # dividing the scores.
        np.minimum(scores, 80.0, out=scores)
        np.exp(scores, out=scores)
        denom = np.sum(scores, axis=-1, keepdims=True)
        context = scores @ v
        context /= denom
        return merge_heads(context) @ w.wo

    def _ffn(self, x: np.ndarray) -> np.ndarray:
        w = self.weights
        if not self.config.is_decoder:
            return gelu(x @ w.w_up) @ w.w_down
        assert w.w_gate is not None
        if self._w_gate_up is None:
            self._w_gate_up = np.concatenate([w.w_gate, w.w_up], axis=1)
        gate_up = x @ self._w_gate_up  # one stacked projection
        ffn = gate_up.shape[-1] // 2
        activated = silu(gate_up[..., :ffn])
        activated *= gate_up[..., ffn:]
        return activated @ w.w_down
