"""Unit tests for the reduced-width transformer layer numerics.

The layer properties run twice: on the forward kernel with float32
weights and hidden states, as the model runs it, and on the float64
reference layer in ``tests/reference_impls.py`` (the ``*Reference``
subclasses).
"""

import numpy as np
import pytest

from repro.model.layers import TransformerLayer, init_layer_weights
from repro.model.transformer import KERNEL_DTYPE
from repro.model.zoo import BGE_M3, QWEN3_0_6B
from tests import reference_impls as ref


def _hidden(config, n=3, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    return rng.standard_normal((n, config.sim_seq_len, config.sim_hidden)) * 0.1


def kernel_layer(config, layer_idx=0):
    """The layer kernel as the model builds it: weights cast to float32."""
    return TransformerLayer(config, init_layer_weights(config, layer_idx).cast(KERNEL_DTYPE))


def reference_layer(config, layer_idx=0):
    """The float64 reference layer the kernel is checked against."""
    return ref.TransformerLayer(config, init_layer_weights(config, layer_idx))


class LayerCase:
    """Layer and input factory; subclasses pick the implementation."""

    make_layer = staticmethod(kernel_layer)
    dtype = KERNEL_DTYPE

    @pytest.fixture
    def decoder_layer(self):
        return self.make_layer(QWEN3_0_6B)

    @pytest.fixture
    def encoder_layer(self):
        return self.make_layer(BGE_M3)

    def hidden(self, config, n=3, rng_seed=0):
        return _hidden(config, n, rng_seed).astype(self.dtype)


class TestInitialization:
    def test_deterministic_per_layer(self):
        a = init_layer_weights(QWEN3_0_6B, 3)
        b = init_layer_weights(QWEN3_0_6B, 3)
        assert np.array_equal(a.wq, b.wq)
        assert np.array_equal(a.w_down, b.w_down)

    def test_layers_differ(self):
        a = init_layer_weights(QWEN3_0_6B, 0)
        b = init_layer_weights(QWEN3_0_6B, 1)
        assert not np.array_equal(a.wq, b.wq)

    def test_decoder_has_gate_no_norm_bias(self):
        w = init_layer_weights(QWEN3_0_6B, 0)
        assert w.w_gate is not None
        assert w.norm1_bias is None

    def test_encoder_has_norm_bias_no_gate(self):
        w = init_layer_weights(BGE_M3, 0)
        assert w.w_gate is None
        assert w.norm1_bias is not None

    def test_nbytes_actual_positive(self):
        assert init_layer_weights(QWEN3_0_6B, 0).nbytes_actual() > 0


class TestForward(LayerCase):
    def test_output_shape_matches_input(self, decoder_layer):
        hidden = self.hidden(QWEN3_0_6B)
        lengths = np.full(3, QWEN3_0_6B.sim_seq_len)
        out = decoder_layer.forward(hidden, lengths)
        assert out.shape == hidden.shape
        assert out.dtype == self.dtype

    def test_input_not_modified(self, decoder_layer):
        hidden = self.hidden(QWEN3_0_6B)
        copy = hidden.copy()
        decoder_layer.forward(hidden, np.full(3, QWEN3_0_6B.sim_seq_len))
        assert np.array_equal(hidden, copy)

    def test_rejects_wrong_rank(self, decoder_layer):
        with pytest.raises(ValueError):
            decoder_layer.forward(np.zeros((4, 8)), np.array([8]))

    def test_deterministic(self, decoder_layer):
        hidden = self.hidden(QWEN3_0_6B)
        lengths = np.full(3, QWEN3_0_6B.sim_seq_len)
        assert np.array_equal(
            decoder_layer.forward(hidden, lengths), decoder_layer.forward(hidden, lengths)
        )

    def test_encoder_forward_runs(self, encoder_layer):
        hidden = self.hidden(BGE_M3)
        out = encoder_layer.forward(hidden, np.full(3, BGE_M3.sim_seq_len))
        assert np.isfinite(out).all()


class TestCausality(LayerCase):
    def test_decoder_output_ignores_future_positions(self, decoder_layer):
        """Causal attention: changing position j must not affect i < j."""
        seq = QWEN3_0_6B.sim_seq_len
        lengths = np.full(1, seq)
        hidden = self.hidden(QWEN3_0_6B, n=1)
        perturbed = hidden.copy()
        perturbed[0, seq - 1, 0] += 1.0  # poke the final position
        out_a = decoder_layer.forward(hidden, lengths)
        out_b = decoder_layer.forward(perturbed, lengths)
        # All positions before the poke are identical...
        assert np.allclose(out_a[0, : seq - 1], out_b[0, : seq - 1])
        # ...and the poked position itself changed.
        assert not np.allclose(out_a[0, seq - 1], out_b[0, seq - 1])

    def test_encoder_output_sees_future_positions(self, encoder_layer):
        """Bidirectional attention: a late poke reaches early positions."""
        seq = BGE_M3.sim_seq_len
        lengths = np.full(1, seq)
        hidden = self.hidden(BGE_M3, n=1)
        perturbed = hidden.copy()
        # Poke one channel (a uniform shift would be removed by LayerNorm).
        perturbed[0, seq - 1, 0] += 1.0
        out_a = encoder_layer.forward(hidden, lengths)
        out_b = encoder_layer.forward(perturbed, lengths)
        assert not np.allclose(out_a[0, 0], out_b[0, 0], atol=1e-9)


class TestPadding(LayerCase):
    def test_padded_positions_do_not_influence_valid_ones(self, encoder_layer):
        """Perturbing tokens beyond a row's length must not change the
        valid positions' outputs (padding mask)."""
        seq = BGE_M3.sim_seq_len
        valid = seq // 2
        lengths = np.array([valid])
        hidden = self.hidden(BGE_M3, n=1)
        perturbed = hidden.copy()
        perturbed[0, valid:, 0] += 5.0  # channel poke survives LayerNorm
        out_a = encoder_layer.forward(hidden, lengths)
        out_b = encoder_layer.forward(perturbed, lengths)
        assert np.allclose(out_a[0, :valid], out_b[0, :valid])


class ReferenceCase(LayerCase):
    make_layer = staticmethod(reference_layer)
    dtype = np.float64


class TestForwardReference(ReferenceCase, TestForward):
    pass


class TestCausalityReference(ReferenceCase, TestCausality):
    pass


class TestPaddingReference(ReferenceCase, TestPadding):
    pass


class TestKernelAgainstReference:
    @pytest.mark.parametrize("config", [QWEN3_0_6B, BGE_M3], ids=lambda c: c.name)
    def test_matches_reference_to_float32_tolerance(self, config):
        """Fused projections, the pre-scaled Q columns and the clamped
        softmax compute the reference layer, to float32 rounding, with
        ragged padding in the batch."""
        hidden = _hidden(config, n=4, rng_seed=5)
        lengths = np.array([config.sim_seq_len, 5, 1, config.sim_seq_len // 2])
        for layer_idx in range(3):
            out = kernel_layer(config, layer_idx).forward(hidden.astype(KERNEL_DTYPE), lengths)
            expected = reference_layer(config, layer_idx).forward(hidden, lengths)
            np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-4)
