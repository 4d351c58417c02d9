"""Unit tests for the HF-family baseline engines and W4A16 quantization."""

import numpy as np
import pytest

from repro.baselines import (
    HFEngine,
    HFOffloadEngine,
    HFOffloadQuantEngine,
    HFQuantEngine,
    QuantizedWeights,
    prism_quant_engine,
)
from repro.core.config import PrismConfig
from repro.data.datasets import get_dataset
from repro.data.workloads import build_batch
from repro.device.platforms import get_profile
from repro.harness.runner import shared_model, shared_tokenizer
from repro.model import costs
from repro.model.zoo import QWEN3_0_6B


def make_batch(num_candidates=20):
    query = get_dataset("wikipedia").queries(1, num_candidates)[0]
    return build_batch(query, shared_tokenizer(QWEN3_0_6B), QWEN3_0_6B.max_seq_len)


def prepared(engine_cls, **kwargs):
    device = get_profile("nvidia_5070").create()
    engine = engine_cls(shared_model(QWEN3_0_6B), device, numerics=False, **kwargs)
    engine.prepare()
    return engine


class TestHFEngine:
    def test_full_resident_weights(self):
        engine = prepared(HFEngine)
        weights = engine.device.memory.in_use_by_category("weights")
        embedding = engine.device.memory.in_use_by_category("embedding")
        assert weights >= costs.all_layer_weight_bytes(QWEN3_0_6B)
        assert embedding == costs.embedding_table_bytes(QWEN3_0_6B)

    def test_every_candidate_pays_every_layer(self):
        engine = prepared(HFEngine)
        result = engine.start(make_batch(20), 10).run()
        assert result.candidate_layers == 20 * QWEN3_0_6B.num_layers

    def test_returns_reference_topk(self):
        engine = prepared(HFEngine)
        batch = make_batch(20)
        result = engine.start(batch, 10).run()
        reference = np.argsort(-engine.model.full_forward(batch, numerics=False))[:10]
        assert set(result.top_indices.tolist()) == set(reference.tolist())

    def test_minibatching_transparent_to_scores(self):
        """Mini-batch size must not change the ranking (only memory)."""
        batch = make_batch(20)
        small = prepared(HFEngine, batch_size=4).start(batch, 10).run()
        large = prepared(HFEngine, batch_size=20).start(batch, 10).run()
        assert np.array_equal(small.top_indices, large.top_indices)

    def test_no_io_during_inference(self):
        engine = prepared(HFEngine)
        stall_after_prepare = engine.executor.io_stall_seconds
        result = engine.start(make_batch(), 10).run()
        assert result.io_stall_seconds == 0.0
        assert engine.executor.io_stall_seconds == stall_after_prepare

    def test_invalid_batch_size_rejected(self):
        device = get_profile("nvidia_5070").create()
        with pytest.raises(ValueError):
            HFEngine(shared_model(QWEN3_0_6B), device, batch_size=0)


class TestHFOffloadEngine:
    def test_layers_not_resident_after_prepare(self):
        engine = prepared(HFOffloadEngine)
        weights = engine.device.memory.in_use_by_category("weights")
        assert weights < costs.layer_weight_bytes(QWEN3_0_6B) * 2

    def test_slower_than_in_memory_hf(self):
        """Synchronous per-layer loads on the critical path (§6.1)."""
        batch = make_batch(20)
        hf = prepared(HFEngine).start(batch, 10).run()
        offload = prepared(HFOffloadEngine).start(batch, 10).run()
        assert offload.latency_seconds > hf.latency_seconds

    def test_reloads_per_minibatch(self):
        """The layer sequence is re-read for every mini-batch — the
        cost PRISM's monolithic batch eliminates."""
        engine = prepared(HFOffloadEngine, batch_size=10)
        engine.start(make_batch(20), 10).run()  # 2 mini-batches
        reads = [
            r
            for r in engine.device.ssd.request_log
            if r.kind == "read" and "layer" in r.tag
        ]
        assert len(reads) == 2 * QWEN3_0_6B.num_layers

    def test_same_ranking_as_hf(self):
        batch = make_batch(20)
        hf = prepared(HFEngine).start(batch, 10).run()
        offload = prepared(HFOffloadEngine).start(batch, 10).run()
        assert np.array_equal(hf.top_indices, offload.top_indices)

    def test_io_stall_accounted(self):
        engine = prepared(HFOffloadEngine)
        result = engine.start(make_batch(), 10).run()
        assert result.io_stall_seconds > 0.0

    def test_deserialize_efficiency_validated(self):
        device = get_profile("nvidia_5070").create()
        with pytest.raises(ValueError):
            HFOffloadEngine(shared_model(QWEN3_0_6B), device, deserialize_efficiency=0.0)
        with pytest.raises(ValueError):
            HFOffloadEngine(shared_model(QWEN3_0_6B), device, deserialize_efficiency=1.2)


class TestQuantization:
    def test_quant_weights_smaller(self):
        hf = prepared(HFEngine)
        quant = prepared(HFQuantEngine)
        assert (
            quant.device.memory.in_use_by_category("weights")
            < 0.4 * hf.device.memory.in_use_by_category("weights")
        )

    def test_quant_slightly_slower_than_hf(self):
        """W4A16 prefill pays dequantization overhead on edge GPUs
        (§2.3) — HF Quant trades latency for memory, Figure 8/9."""
        batch = make_batch(20)
        hf = prepared(HFEngine).start(batch, 10).run()
        quant = prepared(HFQuantEngine).start(batch, 10).run()
        assert quant.latency_seconds > hf.latency_seconds
        assert quant.latency_seconds < 1.5 * hf.latency_seconds

    def test_offload_quant_variant(self):
        engine = prepared(HFOffloadQuantEngine)
        assert engine.name == "hf_offload_quant"
        result = engine.start(make_batch(), 5).run()
        assert result.k == 5

    def test_prism_quant_requires_quant_config(self):
        device = get_profile("nvidia_5070").create()
        with pytest.raises(ValueError):
            prism_quant_engine(
                shared_model(QWEN3_0_6B), device, PrismConfig(numerics=False)
            )

    def test_prism_quant_builds_and_runs(self):
        device = get_profile("nvidia_5070").create()
        engine = prism_quant_engine(
            shared_model(QWEN3_0_6B), device, PrismConfig.quant(numerics=False)
        )
        engine.prepare()
        result = engine.start(make_batch(), 10).run()
        assert engine.name == "prism_quant"
        assert result.k == 10


class TestQuantizedNumerics:
    def test_roundtrip_error_bounded(self):
        """4-bit per-channel quantization keeps max error within one
        quantization step — why Table 3's quant precision deltas are tiny."""
        rng = np.random.default_rng(0)
        weight = rng.standard_normal((64, 32)) * 0.1
        step = (weight.max(axis=0) - weight.min(axis=0)).max() / 15
        assert QuantizedWeights.roundtrip_error(weight) <= step / 2 + 1e-12

    def test_codes_in_4bit_range(self):
        rng = np.random.default_rng(1)
        tensor = QuantizedWeights.quantize(rng.standard_normal((16, 8)))
        assert tensor.qweight.min() >= 0
        assert tensor.qweight.max() <= 15

    def test_dequantize_shape(self):
        rng = np.random.default_rng(2)
        weight = rng.standard_normal((16, 8))
        assert QuantizedWeights.quantize(weight).dequantize().shape == weight.shape

    def test_constant_channel_survives(self):
        weight = np.full((8, 4), 0.5)
        deq = QuantizedWeights.quantize(weight).dequantize()
        assert np.allclose(deq, 0.5, atol=1e-9)

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            QuantizedWeights.quantize(np.zeros(8))
