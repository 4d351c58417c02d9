"""Unit and behaviour tests for PrismEngine (monolithic forwarding)."""

import numpy as np
import pytest

from repro.core.config import PrismConfig
from repro.core.engine import PrismEngine
from repro.data.datasets import get_dataset
from repro.data.workloads import build_batch
from repro.device.platforms import get_profile
from repro.harness.runner import shared_model, shared_tokenizer
from repro.model.zoo import QWEN3_0_6B


def make_batch(num_candidates=20, dataset="wikipedia", query_idx=0):
    spec = get_dataset(dataset)
    query = spec.queries(query_idx + 1, num_candidates)[query_idx]
    tokenizer = shared_tokenizer(QWEN3_0_6B)
    return query, build_batch(query, tokenizer, QWEN3_0_6B.max_seq_len)


def make_engine(config=None, platform="nvidia_5070"):
    device = get_profile(platform).create()
    engine = PrismEngine(shared_model(QWEN3_0_6B), device, config or PrismConfig(numerics=False))
    engine.prepare()
    return engine


class TestLifecycle:
    def test_rerank_before_prepare_rejected(self):
        device = get_profile("nvidia_5070").create()
        engine = PrismEngine(shared_model(QWEN3_0_6B), device, PrismConfig(numerics=False))
        _, batch = make_batch()
        with pytest.raises(RuntimeError):
            engine.start(batch, 5).run()

    def test_prepare_idempotent(self):
        engine = make_engine()
        in_use = engine.device.memory.in_use
        engine.prepare()
        assert engine.device.memory.in_use == in_use

    def test_invalid_k_rejected(self):
        engine = make_engine()
        _, batch = make_batch()
        with pytest.raises(ValueError):
            engine.start(batch, 0).run()

    def test_k_clamped_to_pool(self):
        engine = make_engine()
        _, batch = make_batch(num_candidates=5)
        result = engine.start(batch, 50).run()
        assert result.k == 5


class TestSelectionQuality:
    def test_no_pruning_matches_reference_ranking(self):
        """With pruning off, PRISM returns exactly the model's top-K."""
        config = PrismConfig(pruning_enabled=False, numerics=False)
        engine = make_engine(config)
        _, batch = make_batch()
        result = engine.start(batch, 10).run()
        reference = np.argsort(-engine.model.full_forward(batch, numerics=False))[:10]
        assert set(result.top_indices.tolist()) == set(reference.tolist())

    def test_pruned_and_unpruned_topk_agree(self):
        """Progressive cluster pruning must not change the top-K set
        (the paper's core precision claim, Table 3)."""
        _, batch = make_batch()
        pruned = make_engine(PrismConfig(numerics=False)).start(batch, 10).run()
        unpruned = (
            make_engine(PrismConfig(pruning_enabled=False, numerics=False)).start(batch, 10).run()
        )
        overlap = len(set(pruned.top_indices.tolist()) & set(unpruned.top_indices.tolist()))
        assert overlap >= 9  # at most one borderline swap

    def test_deterministic_across_runs(self):
        _, batch = make_batch()
        a = make_engine().start(batch, 10).run()
        b = make_engine().start(batch, 10).run()
        assert np.array_equal(a.top_indices, b.top_indices)
        assert a.latency_seconds == pytest.approx(b.latency_seconds)

    def test_exact_rank_mode_returns_final_scores(self):
        """§7: exact mode winners carry the model's true final scores."""
        config = PrismConfig(exact_rank_mode=True, numerics=False)
        engine = make_engine(config)
        _, batch = make_batch()
        result = engine.start(batch, 3).run()
        final = engine.model.dynamics.final_scores(batch.relevance, batch.uids)
        for idx, score in zip(result.top_indices, result.top_scores):
            assert score == pytest.approx(final[int(idx)])

    def test_exact_rank_mode_orders_by_final_score(self):
        config = PrismConfig(exact_rank_mode=True, numerics=False)
        engine = make_engine(config)
        _, batch = make_batch()
        result = engine.start(batch, 5).run()
        assert (np.diff(result.top_scores) <= 1e-12).all()


class TestPruningBehaviour:
    def test_pruning_reduces_candidate_layers(self):
        _, batch = make_batch()
        pruned = make_engine(PrismConfig(numerics=False)).start(batch, 10).run()
        full = (
            make_engine(PrismConfig(pruning_enabled=False, numerics=False)).start(batch, 10).run()
        )
        assert pruned.candidate_layers < full.candidate_layers

    def test_pruning_reduces_latency(self):
        _, batch = make_batch()
        pruned = make_engine(PrismConfig(numerics=False)).start(batch, 10).run()
        full = (
            make_engine(PrismConfig(pruning_enabled=False, numerics=False)).start(batch, 10).run()
        )
        assert pruned.latency_seconds < full.latency_seconds

    def test_prune_events_recorded(self):
        _, batch = make_batch()
        result = make_engine(PrismConfig(numerics=False)).start(batch, 10).run()
        assert result.prune_events
        event = result.prune_events[0]
        assert event.layer >= 1
        assert event.num_selected + event.num_dropped + event.num_deferred == 20

    def test_lower_threshold_prunes_earlier(self):
        _, batch = make_batch()
        aggressive = (
            make_engine(PrismConfig(numerics=False).with_threshold(0.05)).start(batch, 10).run()
        )
        conservative = (
            make_engine(PrismConfig(numerics=False).with_threshold(0.8)).start(batch, 10).run()
        )
        assert aggressive.candidate_layers <= conservative.candidate_layers

    def test_min_layers_respected(self):
        config = PrismConfig(numerics=False, min_layers_before_pruning=10).with_threshold(0.01)
        result = make_engine(config).start(make_batch()[1], 10).run()
        for event in result.prune_events:
            assert event.layer >= 10

    def test_early_termination_flag(self):
        config = PrismConfig(numerics=False).with_threshold(0.05)
        result = make_engine(config).start(make_batch()[1], 10).run()
        if result.layers_executed < QWEN3_0_6B.num_layers:
            assert result.terminated_early


class TestMemoryBehaviour:
    def test_streaming_bounds_weight_residency(self):
        """§4.2: streamed weights peak at ~2 layers, far below the
        full 28-layer resident set."""
        from repro.model import costs

        engine = make_engine(PrismConfig(numerics=False))
        engine.start(make_batch()[1], 10).run()
        stats = engine.device.memory.stats()
        weights_peak = stats.peak_by_category.get("weights", 0)
        full_set = costs.all_layer_weight_bytes(QWEN3_0_6B)
        assert weights_peak < 0.2 * full_set

    def test_no_streaming_keeps_all_layers(self):
        from repro.model import costs

        config = PrismConfig(layer_streaming=False, numerics=False)
        engine = make_engine(config)
        engine.start(make_batch()[1], 10).run()
        weights = engine.device.memory.in_use_by_category("weights")
        assert weights >= costs.all_layer_weight_bytes(QWEN3_0_6B)

    def test_embedding_cache_shrinks_embedding_memory(self):
        from repro.model import costs

        with_cache = make_engine(PrismConfig(numerics=False))
        embedding_bytes = with_cache.device.memory.in_use_by_category("embedding")
        assert embedding_bytes < 0.2 * costs.embedding_table_bytes(QWEN3_0_6B)

    def test_no_cache_loads_full_table(self):
        from repro.model import costs

        config = PrismConfig(embedding_cache=False, numerics=False)
        engine = make_engine(config)
        embedding_bytes = engine.device.memory.in_use_by_category("embedding")
        assert embedding_bytes == costs.embedding_table_bytes(QWEN3_0_6B)

    def test_chunking_caps_intermediates(self):
        config = PrismConfig(numerics=False)
        engine = make_engine(config)
        engine.start(make_batch(num_candidates=60)[1], 10).run()
        stats = engine.device.memory.stats()
        inter_peak = stats.peak_by_category.get("intermediate", 0)
        assert inter_peak <= config.chunk_memory_budget

    def test_monolithic_batch_inflates_intermediates_without_chunking(self):
        config = PrismConfig(chunked_execution=False, numerics=False)
        engine = make_engine(config)
        engine.start(make_batch(num_candidates=60)[1], 10).run()
        inter_peak = engine.device.memory.stats().peak_by_category.get("intermediate", 0)
        assert inter_peak > PrismConfig().chunk_memory_budget

    def test_memory_returns_to_baseline_after_request(self):
        engine = make_engine(PrismConfig(numerics=False))
        before = engine.device.memory.in_use
        engine.start(make_batch()[1], 10).run()
        assert engine.device.memory.in_use == before

    def test_chunk_size_reported(self):
        result = make_engine(PrismConfig(numerics=False)).start(make_batch()[1], 10).run()
        assert result.chunk_size is not None and result.chunk_size >= 1


class TestHiddenOffload:
    def test_forced_offload_bounds_hidden_memory(self):
        config = PrismConfig(hidden_offload="on", numerics=False)
        engine = make_engine(config)
        result = engine.start(make_batch(num_candidates=60)[1], 10).run()
        hidden_peak = engine.device.memory.stats().peak_by_category.get("hidden", 0)
        from repro.model import costs

        per_cand = costs.hidden_state_bytes_per_candidate(QWEN3_0_6B, 512)
        assert hidden_peak <= 3 * result.chunk_size * per_cand + per_cand

    def test_offload_matches_in_memory_selection(self):
        _, batch = make_batch(num_candidates=40)
        on = make_engine(PrismConfig(hidden_offload="on", numerics=False)).start(batch, 10).run()
        off = make_engine(PrismConfig(hidden_offload="off", numerics=False)).start(batch, 10).run()
        assert set(on.top_indices.tolist()) == set(off.top_indices.tolist())


class TestNumericsParity:
    def test_numerics_and_fast_path_same_selection(self):
        """The numpy tensor path must select the same top-K as the
        fast semantic path — identical scores by construction."""
        _, batch = make_batch(num_candidates=8)
        fast = make_engine(PrismConfig(numerics=False)).start(batch, 4).run()
        slow = make_engine(PrismConfig(numerics=True)).start(batch, 4).run()
        assert set(fast.top_indices.tolist()) == set(slow.top_indices.tolist())
        assert fast.latency_seconds == pytest.approx(slow.latency_seconds)
