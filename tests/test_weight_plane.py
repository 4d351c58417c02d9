"""Tests for the shared weight plane and layer fusion (DESIGN.md §7)."""

import numpy as np
import pytest

from repro.core.config import PrismConfig
from repro.core.engine import PrismEngine
from repro.core.events import EventLog
from repro.core.scheduler import DeviceScheduler, SchedulerConfig
from repro.core.streaming import WeightPlane
from repro.data.datasets import get_dataset
from repro.data.workloads import build_batch
from repro.device.executor import DeviceExecutor
from repro.device.platforms import NVIDIA_5070, get_profile
from repro.harness.runner import shared_model, shared_tokenizer
from repro.model.weights import WeightStore
from repro.model.zoo import QWEN3_0_6B


def make_batch(num_candidates=10, query_idx=0, dataset="wikipedia"):
    query = get_dataset(dataset).queries(query_idx + 1, num_candidates)[query_idx]
    tokenizer = shared_tokenizer(QWEN3_0_6B)
    return build_batch(query, tokenizer, QWEN3_0_6B.max_seq_len)


def make_engine(shared_plane: bool) -> PrismEngine:
    device = get_profile("nvidia_5070").create()
    engine = PrismEngine(
        shared_model(QWEN3_0_6B),
        device,
        PrismConfig(numerics=False, shared_weight_plane=shared_plane),
    )
    engine.prepare()
    return engine


@pytest.fixture
def executor():
    return DeviceExecutor(NVIDIA_5070.create())


@pytest.fixture
def store():
    return WeightStore(QWEN3_0_6B)


@pytest.fixture
def plane(store, executor):
    return WeightPlane(store, executor)


class TestPlaneRefcounting:
    def test_first_acquirer_fetches_later_attach_free(self, plane, executor):
        p1, p2 = plane.open_pass(), plane.open_pass()
        p1.begin_pass()
        p1.acquire(0)
        fetches_before = plane.stats.fetches
        p2.begin_pass()
        p2.acquire(0)
        assert plane.stats.fetches == fetches_before  # no new SSD read
        assert plane.stats.attaches == 1
        assert plane.stats.saved_bytes == plane.store.layer_nbytes(0)
        assert plane.refcount(0) == 2

    def test_buffer_survives_until_last_pass_advances(self, plane, executor):
        p1, p2 = plane.open_pass(), plane.open_pass()
        p1.begin_pass()
        p2.begin_pass()
        p1.acquire(0)
        p2.acquire(0)
        p1.advance(0)
        # p2 still holds layer 0 — the buffer must stay resident.
        assert 0 in plane.resident_layers
        p2.advance(0)
        assert 0 not in plane.resident_layers

    def test_registered_but_unstarted_pass_pins_layer_zero(self, plane):
        """A pass admitted but not yet stepped still needs layer 0: the
        plane must not free it under the pass's feet (DESIGN.md §7)."""
        runner, admitted = plane.open_pass(), plane.open_pass()
        runner.begin_pass()
        runner.acquire(0)
        runner.advance(0)
        assert 0 in plane.resident_layers  # pinned by `admitted`
        admitted.begin_pass()
        admitted.acquire(0)
        assert plane.stats.attaches >= 1
        admitted.advance(0)
        runner.finish_pass()
        admitted.finish_pass()
        assert plane.resident_layers == set()

    def test_last_pass_out_drains_everything(self, plane, executor):
        p1 = plane.open_pass()
        p1.begin_pass()
        p1.acquire(0)
        p1.finish_pass()  # early termination: lookahead still in flight
        assert plane.open_passes == 0
        assert executor.device.memory.in_use == 0

    def test_release_of_unheld_layer_rejected(self, plane):
        with pytest.raises(RuntimeError):
            plane._release(3)

    def test_lookahead_validated(self, store, executor):
        with pytest.raises(ValueError):
            WeightPlane(store, executor, lookahead=0)


class TestSoloBitIdentity:
    """A solo pass through the plane must be *bit-identical* to the
    per-request streamer path — the §7 substitution invariant."""

    def test_solo_rerank_identical(self):
        batch = make_batch()
        private = make_engine(shared_plane=False).start(batch, 5).run()
        shared = make_engine(shared_plane=True).start(batch, 5).run()
        assert np.array_equal(private.top_indices, shared.top_indices)
        assert np.array_equal(private.top_scores, shared.top_scores)
        assert private.latency_seconds == shared.latency_seconds
        assert private.io_stall_seconds == shared.io_stall_seconds
        assert private.layers_executed == shared.layers_executed

    def test_sequential_requests_identical(self):
        """Back-to-back solo requests (no concurrency) stay identical
        too — each pass opens and closes its own plane epoch."""
        engine_private = make_engine(shared_plane=False)
        engine_shared = make_engine(shared_plane=True)
        for idx in range(3):
            batch = make_batch(query_idx=idx)
            a = engine_private.start(batch, 4).run()
            b = engine_shared.start(batch, 4).run()
            assert np.array_equal(a.top_indices, b.top_indices)
            assert a.latency_seconds == b.latency_seconds

    def test_solo_plane_accounting_shows_no_sharing(self):
        engine = make_engine(shared_plane=True)
        engine.start(make_batch(), 5).run()
        assert engine.weight_plane.stats.attaches == 0
        assert engine.weight_plane.stats.saved_bytes == 0
        assert engine.weight_plane.stats.fetches > 0


class TestSharing:
    def test_concurrent_wave_fetches_each_layer_once(self):
        engine = make_engine(shared_plane=True)
        scheduler = DeviceScheduler(engine, SchedulerConfig(policy="fusion", max_concurrency=4))
        for idx in range(4):
            scheduler.submit_request(make_batch(query_idx=idx), 4)
        scheduler.drain()
        fetches = engine.weight_plane.stats.per_layer_fetches
        assert fetches, "the wave must have streamed layers"
        assert all(count == 1 for count in fetches.values()), fetches
        assert engine.weight_plane.stats.attaches > 0

    def test_plane_cuts_ssd_weight_traffic(self):
        def wave_read_bytes(shared: bool) -> int:
            engine = make_engine(shared_plane=shared)
            mark = len(engine.device.ssd.request_log)
            scheduler = DeviceScheduler(
                engine,
                SchedulerConfig(policy="fusion" if shared else "round_robin", max_concurrency=4),
            )
            for idx in range(4):
                scheduler.submit_request(make_batch(query_idx=idx), 4)
            scheduler.drain()
            return sum(
                r.nbytes
                for r in engine.device.ssd.request_log[mark:]
                if "load/" in r.tag and "/layer" in r.tag
            )

        assert wave_read_bytes(True) < 0.5 * wave_read_bytes(False)

    def test_selections_match_solo_under_fusion(self):
        batches = [make_batch(query_idx=i) for i in range(3)]
        solo = [make_engine(shared_plane=False).start(b, 4).run() for b in batches]
        engine = make_engine(shared_plane=True)
        scheduler = DeviceScheduler(engine, SchedulerConfig(policy="fusion", max_concurrency=3))
        for batch in batches:
            scheduler.submit_request(batch, 4)
        outcomes = {o.request_id: o for o in scheduler.drain()}
        for index, reference in enumerate(solo):
            assert np.array_equal(outcomes[index].result.top_indices, reference.top_indices)
            assert np.array_equal(outcomes[index].result.top_scores, reference.top_scores)


class TestDeterministicFusedTraces:
    def test_identical_runs_identical_traces(self):
        def run():
            engine = make_engine(shared_plane=True)
            log = EventLog()
            engine.device.attach_event_log(log)
            config = SchedulerConfig(policy="fusion", max_concurrency=4)
            scheduler = DeviceScheduler(engine, config, event_log=log)
            now = engine.device.clock.now
            for idx in range(4):
                scheduler.submit_request(make_batch(query_idx=idx), 4, arrival=now + idx * 0.01)
            scheduler.drain()
            return scheduler, log

        (first, first_log), (second, second_log) = run(), run()
        assert first_log.lines() == second_log.lines()
        assert first_log.filter(kind="step")  # non-vacuous
        assert first.fused_group_sizes() == second.fused_group_sizes()


class TestFailureReleasesRefcounts:
    def test_mid_pass_failure_drops_plane_refs(self, monkeypatch):
        """A pass dying mid-flight must release its refcounts so the
        plane drains; the engine stays serviceable afterwards."""
        engine = make_engine(shared_plane=True)
        classifier_bytes = engine.store.classifier_nbytes()

        original = engine.model.forward_layer
        calls = {"n": 0}

        def failing_forward(state, layer, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("injected mid-pass failure")
            return original(state, layer, **kwargs)

        monkeypatch.setattr(engine.model, "forward_layer", failing_forward)
        task = engine.start(make_batch(), 5)
        with pytest.raises(RuntimeError, match="injected"):
            while not task.done:
                task.step()
        # Every plane buffer is gone and no pass is still registered.
        assert engine.weight_plane.open_passes == 0
        assert engine.weight_plane.resident_layers == set()
        assert all(count == 0 for count in engine.weight_plane._refcount.values())
        assert engine.device.memory.in_use_by_category("weights") == classifier_bytes
        # A fresh solo request on the same engine completes normally.
        monkeypatch.setattr(engine.model, "forward_layer", original)
        result = engine.start(make_batch(query_idx=1), 4).run()
        assert result.top_indices.size == 4

    def test_abandoned_never_stepped_task_releases_plane(self):
        """An admitted task whose generator never ran must still release
        its plane pass on close() — else its frontier pins layer 0 and
        every later sweep accumulates the whole model in memory."""
        engine = make_engine(shared_plane=True)
        abandoned = engine.start(make_batch(), 5)
        abandoned.close()
        assert engine.weight_plane.open_passes == 0
        engine.start(make_batch(query_idx=1), 4).run()
        assert engine.weight_plane.resident_layers == set()
        abandoned.close()  # idempotent

    def test_drain_failure_closes_admitted_gang(self, monkeypatch):
        """When one gang member dies mid-drain, the scheduler closes the
        abandoned survivors: no pass stays registered on the plane."""
        engine = make_engine(shared_plane=True)
        scheduler = DeviceScheduler(engine, SchedulerConfig(policy="fusion", max_concurrency=4))
        for idx in range(4):
            scheduler.submit_request(make_batch(query_idx=idx), 4)

        def failing_forward(state, layer, **kwargs):
            raise RuntimeError("first gang member dies")

        monkeypatch.setattr(engine.model, "forward_layer", failing_forward)
        with pytest.raises(RuntimeError, match="gang member dies"):
            scheduler.drain()
        assert engine.weight_plane.open_passes == 0
        assert engine.weight_plane.resident_layers == set()

    def test_surviving_pass_unaffected_by_peer_failure(self, monkeypatch):
        """One task failing must not strand or corrupt a concurrent
        peer attached to the same buffers."""
        engine = make_engine(shared_plane=True)
        batches = [make_batch(query_idx=0), make_batch(query_idx=1)]
        reference = make_engine(shared_plane=False).start(batches[1], 4).run()

        victim = engine.start(batches[0], 4)
        survivor = engine.start(batches[1], 4)
        victim.step()  # victim opens the epoch and holds layers
        survivor.step()

        original = engine.model.forward_layer

        def failing_forward(state, layer, **kwargs):
            raise RuntimeError("victim dies")

        monkeypatch.setattr(engine.model, "forward_layer", failing_forward)
        with pytest.raises(RuntimeError, match="victim dies"):
            victim.step()
        monkeypatch.setattr(engine.model, "forward_layer", original)

        while not survivor.done:
            survivor.step()
        assert np.array_equal(survivor.result.top_indices, reference.top_indices)
        # The dead pass no longer pins anything: once the survivor is
        # done the plane is fully drained.
        assert engine.weight_plane.open_passes == 0
        assert engine.weight_plane.resident_layers == set()
