"""Unit tests for chunked execution (§4.3)."""

import numpy as np
import pytest

from repro.core.chunking import (
    HiddenStateRing,
    choose_chunk_size,
    iter_chunks,
    plan_hidden_states,
)
from repro.core.config import PrismConfig
from repro.core.engine import PrismEngine
from repro.data.datasets import get_dataset
from repro.data.workloads import build_batch
from repro.device.executor import DeviceExecutor
from repro.device.memory import MiB
from repro.device.platforms import APPLE_M2, NVIDIA_5070
from repro.model import costs
from repro.model.shared import shared_model, shared_tokenizer
from repro.model.zoo import QWEN3_0_6B


class TestChooseChunkSize:
    def test_within_bounds(self):
        chunk = choose_chunk_size(QWEN3_0_6B, NVIDIA_5070, 512, 20, 160 * MiB, 2e-3)
        assert 1 <= chunk <= 20

    def test_respects_memory_ceiling(self):
        budget = 160 * MiB
        chunk = choose_chunk_size(QWEN3_0_6B, NVIDIA_5070, 512, 60, budget, 2e-3)
        per_cand = costs.intermediate_bytes_per_candidate(QWEN3_0_6B, 512)
        assert chunk * per_cand <= budget

    def test_respects_compute_floor(self):
        """The chunk must be big enough to cover the minimum window."""
        window = 5e-3
        chunk = choose_chunk_size(QWEN3_0_6B, NVIDIA_5070, 512, 60, 10_000 * MiB, window)
        per_cand_seconds = (
            costs.layer_flops_per_candidate(QWEN3_0_6B, 512)
            / NVIDIA_5070.compute.flops_per_second
        )
        assert chunk * per_cand_seconds >= window or chunk == 60

    def test_slower_device_needs_smaller_chunks(self):
        """The M2 reaches the same compute window with fewer candidates."""
        fast = choose_chunk_size(QWEN3_0_6B, NVIDIA_5070, 512, 60, 10_000 * MiB, 2e-3)
        slow = choose_chunk_size(QWEN3_0_6B, APPLE_M2, 512, 60, 10_000 * MiB, 2e-3)
        assert slow <= fast

    def test_capped_by_candidates(self):
        chunk = choose_chunk_size(QWEN3_0_6B, NVIDIA_5070, 512, 3, 10_000 * MiB, 1.0)
        assert chunk == 3

    def test_invalid_candidates_rejected(self):
        with pytest.raises(ValueError):
            choose_chunk_size(QWEN3_0_6B, NVIDIA_5070, 512, 0, 160 * MiB, 2e-3)


class TestIterChunks:
    def test_partitions_exactly(self):
        chunks = list(iter_chunks(10, 3))
        flat = np.concatenate(chunks)
        assert flat.tolist() == list(range(10))
        assert [c.size for c in chunks] == [3, 3, 3, 1]

    def test_single_chunk(self):
        chunks = list(iter_chunks(5, 10))
        assert len(chunks) == 1
        assert chunks[0].size == 5

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            list(iter_chunks(10, 0))


class TestHiddenPlan:
    def test_mode_off(self):
        plan = plan_hidden_states(QWEN3_0_6B, 512, 60, 4, "off", 1 * MiB)
        assert not plan.offload

    def test_mode_on(self):
        plan = plan_hidden_states(QWEN3_0_6B, 512, 4, 2, "on", 10_000 * MiB)
        assert plan.offload

    def test_mode_auto_thresholds_on_budget(self):
        small_budget = 1 * MiB
        big_budget = 10_000 * MiB
        assert plan_hidden_states(QWEN3_0_6B, 512, 60, 4, "auto", small_budget).offload
        assert not plan_hidden_states(QWEN3_0_6B, 512, 60, 4, "auto", big_budget).offload

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            plan_hidden_states(QWEN3_0_6B, 512, 60, 4, "maybe", 1 * MiB)

    def test_resident_bytes_without_offload(self):
        plan = plan_hidden_states(QWEN3_0_6B, 512, 60, 4, "off", 1 * MiB)
        assert plan.resident_bytes(60) == 60 * plan.per_candidate_bytes

    def test_resident_bytes_with_offload_bounded_by_ring(self):
        plan = plan_hidden_states(QWEN3_0_6B, 512, 60, 4, "on", 1 * MiB)
        assert plan.resident_bytes(60) == 3 * 4 * plan.per_candidate_bytes

    def test_resident_bytes_fewer_chunks_than_ring(self):
        plan = plan_hidden_states(QWEN3_0_6B, 512, 4, 4, "on", 1 * MiB)
        # One chunk total → only one slab resident.
        assert plan.resident_bytes(4) == 4 * plan.per_candidate_bytes


class TestHiddenStateRing:
    def _ring(self, num_candidates=12, chunk=4):
        executor = DeviceExecutor(NVIDIA_5070.create())
        plan = plan_hidden_states(QWEN3_0_6B, 512, num_candidates, chunk, "on", 1 * MiB)
        return HiddenStateRing(executor, plan, num_candidates), executor

    def test_requires_offload_plan(self):
        executor = DeviceExecutor(NVIDIA_5070.create())
        plan = plan_hidden_states(QWEN3_0_6B, 512, 4, 4, "off", 10_000 * MiB)
        with pytest.raises(ValueError):
            HiddenStateRing(executor, plan, 4)

    def test_allocates_at_most_three_slabs(self):
        ring, executor = self._ring(num_candidates=20, chunk=4)
        ring.allocate()
        memory = executor.device.memory
        slabs = sum(1 for i in range(5) if memory.is_live(f"hidden-ring/slot{i}"))
        assert slabs == 3
        ring.release_all()
        assert memory.in_use == 0

    def test_fewer_chunks_fewer_slabs(self):
        ring, executor = self._ring(num_candidates=4, chunk=4)
        ring.allocate()
        assert executor.device.memory.is_live("hidden-ring/slot0")
        assert not executor.device.memory.is_live("hidden-ring/slot1")
        ring.release_all()

    def test_allocate_idempotent(self):
        ring, executor = self._ring()
        ring.allocate()
        ring.allocate()
        ring.release_all()
        assert executor.device.memory.in_use == 0

    def test_layer_sweep_prefetches_and_offloads(self):
        ring, executor = self._ring(num_candidates=12, chunk=4)
        ring.allocate()
        ring.begin_layer(1)
        for chunk_no in range(3):
            ring.acquire(1, chunk_no)
            executor.compute(1e10)
            ring.release(1, chunk_no)
        ssd = executor.device.ssd
        reads = [r for r in ssd.request_log if r.kind == "read"]
        writes = [r for r in ssd.request_log if r.kind == "write"]
        assert len(reads) == 3  # chunks 0..2 prefetched
        assert len(writes) == 3  # every chunk written back
        ring.release_all()

    def test_layer_zero_chunk_zero_not_prefetched(self):
        """Chunk 0 of layer 0 comes straight from the embedding."""
        ring, executor = self._ring(num_candidates=12, chunk=4)
        ring.allocate()
        ring.begin_layer(0)
        tags = [r.tag for r in executor.device.ssd.request_log]
        assert "hidden-ring/read/L0/C0" not in tags
        assert "hidden-ring/read/L0/C1" in tags
        ring.release_all()

    def test_pruned_layers_prefetch_only_the_chunks_they_run(self, monkeypatch):
        """Two 23-candidate queries with every pass offloaded: once
        pruning shrinks the active set, a layer prefetches only the
        chunks it sweeps, so every ring read is awaited (before the
        bound, 62 of 565 reads were not)."""
        acquired = set()
        acquire = HiddenStateRing.acquire

        def recording(ring, layer, chunk):
            acquired.add(ring._read_tag(layer, chunk))
            acquire(ring, layer, chunk)

        monkeypatch.setattr(HiddenStateRing, "acquire", recording)
        device = NVIDIA_5070.create()
        engine = PrismEngine(
            shared_model(QWEN3_0_6B), device, PrismConfig(numerics=False, hidden_offload="on")
        )
        engine.prepare()
        tokenizer = shared_tokenizer(QWEN3_0_6B)
        pruned = 0
        for name in ("msmarco", "nfcorpus"):
            (query,) = get_dataset(name).queries(1, 23)
            batch = build_batch(query, tokenizer, QWEN3_0_6B.max_seq_len)
            pruned += len(engine.start(batch, 10).run().prune_events)
        reads = [r.tag for r in device.ssd.request_log if "/hidden-ring/read/" in r.tag]
        assert pruned > 0
        assert len(reads) == 503
        assert set(reads) <= acquired
