"""Unit tests for the numpy transformer kernels."""

import numpy as np
import pytest

from repro.model.tensor_ops import (
    causal_mask,
    gelu,
    layer_norm,
    merge_heads,
    padding_mask,
    rms_norm,
    silu,
    softmax,
    split_heads,
)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = np.random.default_rng(0).standard_normal((4, 7))
        out = softmax(x)
        assert np.allclose(out.sum(axis=-1), 1.0)

    def test_nonnegative(self):
        x = np.random.default_rng(1).standard_normal((3, 5))
        assert (softmax(x) >= 0).all()

    def test_numerically_stable_for_large_inputs(self):
        x = np.array([[1e4, 1e4 + 1.0]])
        out = softmax(x)
        assert np.isfinite(out).all()
        assert out[0, 1] > out[0, 0]

    def test_handles_minus_inf_mask(self):
        x = np.array([[0.0, -np.inf, 0.0]])
        out = softmax(x)
        assert out[0, 1] == 0.0
        assert out[0, 0] == pytest.approx(0.5)

    def test_invariant_to_constant_shift(self):
        x = np.random.default_rng(2).standard_normal(6)
        assert np.allclose(softmax(x), softmax(x + 100.0))


class TestNorms:
    def test_rms_norm_unit_scale(self):
        x = np.random.default_rng(0).standard_normal((2, 3, 8))
        out = rms_norm(x, np.ones(8))
        rms = np.sqrt(np.mean(np.square(out), axis=-1))
        assert np.allclose(rms, 1.0, atol=1e-3)

    def test_rms_norm_weight_scales_output(self):
        x = np.random.default_rng(0).standard_normal((2, 8))
        assert np.allclose(rms_norm(x, 2 * np.ones(8)), 2 * rms_norm(x, np.ones(8)))

    def test_layer_norm_zero_mean_unit_var(self):
        x = np.random.default_rng(1).standard_normal((4, 16))
        out = layer_norm(x, np.ones(16), np.zeros(16))
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-7)
        assert np.allclose(out.var(axis=-1), 1.0, atol=1e-3)

    def test_layer_norm_bias_shifts(self):
        x = np.random.default_rng(2).standard_normal((4, 16))
        out = layer_norm(x, np.ones(16), 3 * np.ones(16))
        assert np.allclose(out.mean(axis=-1), 3.0, atol=1e-6)


class TestActivations:
    def test_gelu_at_zero(self):
        assert gelu(np.array(0.0)) == pytest.approx(0.0)

    def test_gelu_asymptotes(self):
        assert gelu(np.array(10.0)) == pytest.approx(10.0, rel=1e-3)
        assert gelu(np.array(-10.0)) == pytest.approx(0.0, abs=1e-3)

    def test_silu_at_zero(self):
        assert silu(np.array(0.0)) == pytest.approx(0.0)

    def test_silu_is_x_times_sigmoid(self):
        x = np.linspace(-4, 4, 17)
        sigmoid = 1.0 / (1.0 + np.exp(-x))
        assert np.allclose(silu(x), x * sigmoid)


class TestMasks:
    def test_causal_mask_blocks_future(self):
        mask = causal_mask(4)
        assert mask[0, 1] == -np.inf
        assert mask[2, 3] == -np.inf

    def test_causal_mask_allows_past_and_self(self):
        mask = causal_mask(4)
        assert mask[2, 2] == 0.0
        assert mask[3, 0] == 0.0

    def test_padding_mask_shape_and_values(self):
        mask = padding_mask(np.array([2, 4]), 4)
        assert mask.shape == (2, 1, 1, 4)
        assert mask[0, 0, 0, 1] == 0.0
        assert mask[0, 0, 0, 2] == -np.inf
        assert (mask[1] == 0.0).all()


class TestHeadReshaping:
    def test_split_merge_roundtrip(self):
        x = np.random.default_rng(0).standard_normal((2, 5, 12))
        assert np.allclose(merge_heads(split_heads(x, 4)), x)

    def test_split_shape(self):
        x = np.zeros((2, 5, 12))
        assert split_heads(x, 3).shape == (2, 3, 5, 4)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ValueError):
            split_heads(np.zeros((1, 2, 10)), 3)


# ----------------------------------------------------------------------
# Pinning tests: the in-place-friendly kernels must stay *bitwise*
# identical to the original (naive) formulations they replaced
# (DESIGN.md §11 — batched gang kernels rely on this).


def _softmax_reference(x, axis=-1):
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def _gelu_reference(x):
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * np.power(x, 3))))


def _silu_reference(x):
    return x / (1.0 + np.exp(-x))


class TestPinnedNumerics:
    def test_softmax_bitwise_pinned(self):
        rng = np.random.default_rng(7)
        for shape in [(5,), (4, 7), (2, 4, 8, 8)]:
            x = rng.standard_normal(shape) * 10.0
            np.testing.assert_array_equal(softmax(x.copy()), _softmax_reference(x))

    def test_softmax_bitwise_pinned_with_mask(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 6))
        x[:, 4:] = -np.inf
        np.testing.assert_array_equal(softmax(x.copy()), _softmax_reference(x))

    def test_softmax_does_not_mutate_input(self):
        x = np.random.default_rng(9).standard_normal((3, 5))
        original = x.copy()
        softmax(x)
        np.testing.assert_array_equal(x, original)

    def test_gelu_bitwise_pinned(self):
        rng = np.random.default_rng(10)
        for shape in [(9,), (4, 6), (2, 3, 5)]:
            x = rng.standard_normal(shape) * 4.0
            np.testing.assert_array_equal(gelu(x.copy()), _gelu_reference(x))

    def test_gelu_does_not_mutate_input(self):
        x = np.random.default_rng(11).standard_normal(16)
        original = x.copy()
        gelu(x)
        np.testing.assert_array_equal(x, original)

    def test_silu_bitwise_pinned(self):
        rng = np.random.default_rng(12)
        for shape in [(9,), (4, 6), (2, 3, 5)]:
            x = rng.standard_normal(shape) * 4.0
            np.testing.assert_array_equal(silu(x.copy()), _silu_reference(x))

    def test_silu_does_not_mutate_input(self):
        x = np.random.default_rng(13).standard_normal(16)
        original = x.copy()
        silu(x)
        np.testing.assert_array_equal(x, original)


class TestMaskMemoization:
    def test_causal_mask_cached_object_reused(self):
        assert causal_mask(11) is causal_mask(11)

    def test_causal_mask_is_readonly(self):
        mask = causal_mask(5)
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0, 0] = 1.0

    def test_causal_mask_matches_reference(self):
        n = 6
        reference = np.zeros((n, n))
        reference[np.triu_indices(n, k=1)] = -np.inf
        np.testing.assert_array_equal(causal_mask(n), reference)

    def test_padding_mask_cached_object_reused(self):
        lengths = np.array([3, 7, 1])
        assert padding_mask(lengths, 8) is padding_mask(lengths.copy(), 8)

    def test_padding_mask_distinct_lengths_distinct_entries(self):
        a = padding_mask(np.array([2, 2]), 4)
        b = padding_mask(np.array([2, 3]), 4)
        assert a is not b

    def test_padding_mask_is_readonly(self):
        mask = padding_mask(np.array([1, 2]), 4)
        assert not mask.flags.writeable

    def test_padding_mask_matches_reference(self):
        lengths = np.array([2, 4, 0])
        seq_len = 4
        positions = np.arange(seq_len)
        reference = np.where(
            positions[None, :] >= lengths[:, None], -np.inf, 0.0
        )[:, None, None, :]
        np.testing.assert_array_equal(padding_mask(lengths, seq_len), reference)
