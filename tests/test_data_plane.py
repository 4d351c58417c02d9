"""Tests for the fleet-shared semantic data plane (DESIGN.md §12).

Three layers — request memoization with in-flight coalescing,
partial-overlap candidate reuse, fleet-shared refcounted embedding
residency — plus the load-bearing edges: a memo hit never occupies a
scheduler slot, a dead leader (cancelled / shed / faulted) never
poisons the memo and never strands a follower, epoch invalidation
purges everything, and with the plane *off* serving is byte-identical
to a fleet that never heard of it.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.api import FleetServer, SelectionRequest, serve_all
from repro.core.config import PrismConfig
from repro.core.data_plane import (
    DataPlane,
    DataPlaneConfig,
    DataPlaneStats,
    SharedEmbeddingCache,
)
from repro.core.events import EVENT_CACHE_EVICT, EVENT_CACHE_HIT, TERMINAL_KINDS, EventLog
from repro.core.fleet import FleetConfig, FleetService
from repro.core.resilience import (
    FAULT_REPLICA_CRASH,
    FAULT_SSD_READ_ERROR,
    DeviceFault,
    FaultEvent,
    FaultPlan,
    ResilienceConfig,
)
from repro.core.service import SemanticSelectionService
from repro.data.datasets import get_dataset
from repro.data.workloads import CandidateSpec, RerankQuery, build_batch
from repro.device.executor import DeviceExecutor
from repro.device.platforms import NVIDIA_5070, get_profile
from repro.harness.runner import shared_model, shared_tokenizer
from repro.model.zoo import QWEN3_0_6B


@pytest.fixture(scope="module")
def batches():
    tokenizer = shared_tokenizer(QWEN3_0_6B)
    queries = get_dataset("wikipedia").queries(6, 12)
    return [build_batch(q, tokenizer, QWEN3_0_6B.max_seq_len) for q in queries]


@pytest.fixture(scope="module")
def overlap_batches():
    """A base batch plus a variant sharing exactly half its candidates
    (the zipf_request_stream mutation, pinned deterministic)."""
    tokenizer = shared_tokenizer(QWEN3_0_6B)
    (base_query,) = get_dataset("wikipedia").queries(1, 16)
    keep = 8
    fresh = tuple(
        CandidateSpec(
            uid=900_000 + i,
            seed=77_000 + i,
            length=base_query.candidates[0].length,
            relevance=0.1 + 0.05 * i,
            is_relevant=(0.1 + 0.05 * i) >= 0.5,
        )
        for i in range(len(base_query.candidates) - keep)
    )
    variant_query = RerankQuery(
        query_id=base_query.query_id,
        seed=base_query.seed,
        query_length=base_query.query_length,
        candidates=base_query.candidates[:keep] + fresh,
    )
    base = build_batch(base_query, tokenizer, QWEN3_0_6B.max_seq_len)
    variant = build_batch(variant_query, tokenizer, QWEN3_0_6B.max_seq_len)
    return base, variant


def make_fleet(num_replicas=1, profile="nvidia_5070", **kwargs):
    fleet_kwargs = {
        key: kwargs.pop(key)
        for key in ("fault_plan", "resilience", "autoscaler", "sample_rate", "event_log")
        if key in kwargs
    }
    return FleetService.homogeneous(
        shared_model(QWEN3_0_6B),
        get_profile(profile),
        num_replicas,
        fleet_config=FleetConfig(**kwargs),
        config=PrismConfig(numerics=False),
        **fleet_kwargs,
    )


def selection_bytes(result):
    return (result.top_indices.tobytes(), result.top_scores.tobytes())


def selections_by_id(outcomes):
    return {o.request_id: selection_bytes(o.result) for o in outcomes}


# ----------------------------------------------------------------------
# the plane as a passive directory
# ----------------------------------------------------------------------
class TestPlaneUnit:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            DataPlaneConfig(max_entries=0)
        with pytest.raises(ValueError):
            DataPlaneConfig(max_row_entries=0)
        with pytest.raises(ValueError):
            DataPlaneConfig(min_overlap=0.0)
        with pytest.raises(ValueError):
            DataPlaneConfig(min_overlap=1.5)

    def test_unused_plane_reports_no_hit_rate(self):
        stats = DataPlane().stats()
        assert stats.requests == 0
        assert stats.hit_rate is None
        # ... but a plane that saw traffic reports a real fraction.
        assert DataPlaneStats(requests=4, memo_hits=1).hit_rate == pytest.approx(0.25)

    def test_fingerprint_covers_full_semantic_identity(self, batches):
        plane = DataPlane(model_key="m:0")
        fp = plane.fingerprint(batches[0], 5, threshold=0.3, sample_rate=0.25)
        # Deterministic for identical inputs...
        assert fp == plane.fingerprint(batches[0], 5, threshold=0.3, sample_rate=0.25)
        # ...and sensitive to every selection-relevant dimension.
        assert fp != plane.fingerprint(batches[1], 5, threshold=0.3, sample_rate=0.25)
        assert fp != plane.fingerprint(batches[0], 6, threshold=0.3, sample_rate=0.25)
        assert fp != plane.fingerprint(batches[0], 5, threshold=0.4, sample_rate=0.25)
        assert fp != plane.fingerprint(batches[0], 5, threshold=0.3, sample_rate=0.5)
        other_model = DataPlane(model_key="m:1")
        assert fp != other_model.fingerprint(
            batches[0], 5, threshold=0.3, sample_rate=0.25
        )

    def test_epoch_bump_changes_fingerprints_and_purges(self, batches):
        plane = DataPlane()
        fp = plane.fingerprint(batches[0], 5, threshold=0.3)
        decision = plane.admit(fp, batches[0], payload="leader")
        assert decision.kind == "leader"
        followers = plane.complete(
            fp, batches[0], _FakeResult(), service_seconds=0.1, weight_bytes=10, at=1.0
        )
        assert followers == []
        assert plane.stats().memo_entries == 1
        assert plane.stats().row_entries == batches[0].size
        plane.bump_epoch(at=2.0, reason="test")
        assert plane.stats().memo_entries == 0
        assert plane.stats().row_entries == 0
        assert plane.stats().epoch == 1
        assert fp != plane.fingerprint(batches[0], 5, threshold=0.3)

    def test_threshold_recalibration_bumps_epoch_only_on_change(self, batches):
        plane = DataPlane()
        plane.on_threshold(0.3)  # first sighting seeds, no bump
        assert plane.epoch == 0
        plane.on_threshold(0.3)  # unchanged consensus: no bump
        assert plane.epoch == 0
        plane.on_threshold(0.35)  # recalibrated: purge
        assert plane.epoch == 1

    def test_pending_survives_epoch_bump(self, batches):
        """In-flight leaders must still resolve their followers after a
        recalibration — the epoch only gates reuse by later requests."""
        plane = DataPlane()
        fp = plane.fingerprint(batches[0], 5, threshold=0.3)
        plane.admit(fp, batches[0], payload="leader")
        plane.admit(fp, batches[0], payload="follower", at=0.5)
        plane.bump_epoch()
        followers = plane.complete(
            fp, batches[0], _FakeResult(), service_seconds=0.1, weight_bytes=10, at=1.0
        )
        assert [payload for payload, _ in followers] == ["follower"]

    def test_invalidate_returns_followers_once(self, batches):
        plane = DataPlane()
        fp = plane.fingerprint(batches[0], 5, threshold=0.3)
        plane.admit(fp, batches[0], payload="leader")
        plane.admit(fp, batches[0], payload="f1", at=0.1)
        plane.admit(fp, batches[0], payload="f2", at=0.2)
        followers = plane.invalidate(fp, at=0.3, reason="cancelled")
        assert [payload for payload, _ in followers] == ["f1", "f2"]
        stats = plane.stats()
        assert stats.invalidations == 1 and stats.redispatched == 2
        # Idempotent: the pending entry is gone.
        assert plane.invalidate(fp, at=0.4, reason="cancelled") == []

    def test_memo_lru_eviction_emits_cache_evict(self, batches):
        log = EventLog()
        plane = DataPlane(DataPlaneConfig(max_entries=2, max_row_entries=10_000))
        plane.attach_event_log(log)
        for batch in batches[:3]:
            fp = plane.fingerprint(batch, 5, threshold=0.3)
            plane.admit(fp, batch, payload=None)
            plane.complete(
                fp, batch, _FakeResult(), service_seconds=0.1, weight_bytes=1, at=1.0
            )
        stats = plane.stats()
        assert stats.memo_entries == 2
        assert stats.evictions >= 1
        evicts = [e for e in log.events if e.kind == EVENT_CACHE_EVICT]
        assert any(e.data.get("scope") == "memo" for e in evicts)


@dataclasses.dataclass
class _FakeResult:
    """Minimal result stand-in for plane unit tests."""

    top_indices: np.ndarray = dataclasses.field(default_factory=lambda: np.arange(5))
    top_scores: np.ndarray = dataclasses.field(
        default_factory=lambda: np.linspace(1.0, 0.0, 5)
    )
    prune_events: list = dataclasses.field(default_factory=list)


# ----------------------------------------------------------------------
# fleet memoization & coalescing
# ----------------------------------------------------------------------
class TestFleetMemoization:
    def test_memo_hit_is_byte_identical_and_free(self, batches):
        fleet = make_fleet(1, data_plane=True, max_batch=1, max_wait_ms=0.0)
        fleet.submit_request(batches[0], 5)
        (first,) = fleet.drain()
        busy_before = fleet.replicas[0].busy_seconds
        served_before = fleet.replicas[0].requests_served
        fleet.submit_request(batches[0], 5)
        (hit,) = fleet.drain()
        assert hit.cache == "hit"
        # A memo hit never occupies a scheduler slot: no replica, zero
        # service time, and the replica's counters never move.
        assert hit.replica is None
        assert hit.service_seconds == 0.0
        assert fleet.replicas[0].busy_seconds == busy_before
        assert fleet.replicas[0].requests_served == served_before
        assert selection_bytes(hit.result) == selection_bytes(first.result)
        stats = fleet.stats().data_plane
        assert stats is not None
        assert stats.memo_hits == 1 and stats.requests == 2
        assert stats.seconds_saved > 0 and stats.bytes_saved > 0

    def test_hit_result_is_a_private_copy(self, batches):
        fleet = make_fleet(1, data_plane=True, max_batch=1, max_wait_ms=0.0)
        fleet.submit_request(batches[0], 5)
        fleet.drain()
        fleet.submit_request(batches[0], 5)
        (hit,) = fleet.drain()
        hit.result.top_indices[:] = -1  # a rude caller scribbles on it
        fleet.submit_request(batches[0], 5)
        (second_hit,) = fleet.drain()
        assert not np.array_equal(second_hit.result.top_indices, hit.result.top_indices)

    def test_in_flight_coalescing(self, batches):
        fleet = make_fleet(1, data_plane=True, max_batch=1, max_wait_ms=0.0)
        leader_id = fleet.submit_request(batches[0], 5)
        follower_id = fleet.submit_request(batches[0], 5)
        outcomes = {o.request_id: o for o in fleet.drain()}
        assert outcomes[leader_id].cache is None  # served the pass
        follower = outcomes[follower_id]
        assert follower.cache == "coalesced"
        assert follower.service_seconds == 0.0
        assert follower.finish == outcomes[leader_id].finish
        assert selection_bytes(follower.result) == selection_bytes(
            outcomes[leader_id].result
        )
        stats = fleet.stats().data_plane
        assert stats.coalesced == 1 and stats.memo_hits == 0

    def test_memoize_false_opts_out_end_to_end(self, batches):
        fleet = make_fleet(1, data_plane=True, max_batch=1, max_wait_ms=0.0)
        fleet.submit_request(batches[0], 5, memoize=False)
        fleet.submit_request(batches[0], 5, memoize=False)
        outcomes = fleet.drain()
        assert all(o.cache is None for o in outcomes)
        assert all(o.replica is not None for o in outcomes)
        stats = fleet.stats().data_plane
        assert stats.requests == 0 and stats.hits == 0

    def test_plane_off_fleet_reports_no_plane_stats(self, batches):
        fleet = make_fleet(1, max_batch=1, max_wait_ms=0.0)
        fleet.submit_request(batches[0], 5)
        fleet.drain()
        assert fleet.stats().data_plane is None

    def test_plane_serving_is_byte_identical_to_plane_off(self, batches):
        """The tentpole exactness claim at fleet scope: a repeated
        stream through the plane selects byte-for-byte what a
        plane-less fleet selects."""
        stream = [batches[0], batches[1], batches[0], batches[2], batches[1], batches[0]]
        results = {}
        for mode in (False, True):
            fleet = make_fleet(2, data_plane=mode, max_batch=2, max_wait_ms=0.0)
            for batch in stream:
                fleet.submit_request(batch, 5)
            results[mode] = selections_by_id(fleet.drain())
        assert set(results[True]) == set(results[False])
        assert results[True] == results[False]

    def test_epoch_bump_forgets_completed_results(self, batches):
        fleet = make_fleet(1, data_plane=True, max_batch=1, max_wait_ms=0.0)
        fleet.submit_request(batches[0], 5)
        (first,) = fleet.drain()
        fleet.data_plane.bump_epoch(at=fleet.clock.now, reason="recalibration")
        fleet.submit_request(batches[0], 5)
        (again,) = fleet.drain()
        # No hit — the entry is gone and the fingerprint moved — but
        # the re-served selection is still byte-identical.
        assert again.cache is None and again.replica is not None
        assert selection_bytes(again.result) == selection_bytes(first.result)
        stats = fleet.stats().data_plane
        assert stats.memo_hits == 0 and stats.misses == 2


# ----------------------------------------------------------------------
# partial-overlap candidate reuse
# ----------------------------------------------------------------------
class TestFleetOverlap:
    @pytest.mark.parametrize("intra_concurrency", [1, 4])
    def test_overlap_reuse_is_exact(self, overlap_batches, intra_concurrency):
        base, variant = overlap_batches
        outcomes = {}
        for mode in (False, True):
            fleet = make_fleet(
                1,
                data_plane=mode,
                max_batch=1,
                max_wait_ms=0.0,
                intra_concurrency=intra_concurrency,
            )
            fleet.submit_request(base, 5)
            fleet.drain()
            fleet.submit_request(variant, 5)
            (outcome,) = fleet.drain()
            outcomes[mode] = outcome
            if mode:
                stats = fleet.stats().data_plane
                assert stats.overlap_hits == 1
                assert stats.shared_rows == 8 and stats.residue_rows == 8
                assert stats.seconds_saved > 0 and stats.bytes_saved > 0
        assert selection_bytes(outcomes[True].result) == selection_bytes(
            outcomes[False].result
        )
        # The reduced pass is cheaper than the full one.
        assert outcomes[True].service_seconds < outcomes[False].service_seconds

    def test_all_shared_subset_completes_without_a_pass(self, overlap_batches):
        """A batch whose every row is already in the directory needs no
        residue: pure shadow replay, zero service time."""
        base, _ = overlap_batches
        subset = base.select(np.arange(8))
        reference = make_fleet(1, max_batch=1, max_wait_ms=0.0)
        reference.submit_request(subset, 5)
        (expected,) = reference.drain()
        fleet = make_fleet(
            1, data_plane=True, max_batch=1, max_wait_ms=0.0, intra_concurrency=4
        )
        fleet.submit_request(base, 5)
        fleet.drain()
        fleet.submit_request(subset, 5)
        (outcome,) = fleet.drain()
        assert outcome.service_seconds == 0.0
        assert selection_bytes(outcome.result) == selection_bytes(expected.result)
        stats = fleet.stats().data_plane
        assert stats.overlap_hits == 1 and stats.residue_rows == 0

    def test_below_min_overlap_serves_a_full_pass(self, overlap_batches):
        base, variant = overlap_batches
        fleet = make_fleet(
            1,
            data_plane=True,
            data_plane_config=DataPlaneConfig(min_overlap=0.9),
            max_batch=1,
            max_wait_ms=0.0,
        )
        fleet.submit_request(base, 5)
        fleet.drain()
        fleet.submit_request(variant, 5)
        fleet.drain()
        stats = fleet.stats().data_plane
        assert stats.overlap_hits == 0 and stats.misses == 2


# ----------------------------------------------------------------------
# memoization edges: dead leaders (satellite c)
# ----------------------------------------------------------------------
class TestDeadLeaders:
    def test_cancelled_leader_redispatches_followers(self, batches):
        """A coalesced leader cancelled mid-pass must not strand its
        followers: the first becomes the new leader, siblings
        re-coalesce, and everyone still gets the exact selection."""
        reference = make_fleet(1, max_batch=1, max_wait_ms=0.0)
        reference.submit_request(batches[0], 5)
        (expected,) = reference.drain()

        fleet = make_fleet(1, data_plane=True, max_batch=1, max_wait_ms=0.0)
        leader_id = fleet.submit_request(batches[0], 5, cancel_at=0.05)
        f1 = fleet.submit_request(batches[0], 5)
        f2 = fleet.submit_request(batches[0], 5)
        outcomes = {o.request_id: o for o in fleet.drain()}
        (drop,) = fleet.dropped_requests
        assert drop.request_id == leader_id and drop.reason == "cancelled"
        assert set(outcomes) == {f1, f2}
        assert outcomes[f1].cache is None  # promoted to leader
        assert outcomes[f2].cache == "coalesced"  # re-coalesced onto f1
        for request_id in (f1, f2):
            assert selection_bytes(outcomes[request_id].result) == selection_bytes(
                expected.result
            )
        stats = fleet.stats().data_plane
        assert stats.invalidations == 1 and stats.redispatched == 2

    def test_shed_leader_never_poisons_the_memo(self, batches):
        """A leader shed behind a long batch leaves no memo entry: the
        next identical request is a fresh miss served by a real pass,
        never a hit on a result that was never computed."""
        fleet = make_fleet(1, data_plane=True, max_batch=1, max_wait_ms=0.0)
        fleet.submit_request(batches[1], 5)  # occupies the replica
        shed_id = fleet.submit_request(batches[0], 5, deadline=0.01)
        retry_id = fleet.submit_request(batches[0], 5, at=5.0)
        outcomes = {o.request_id: o for o in fleet.drain()}
        (drop,) = fleet.dropped_requests
        assert drop.request_id == shed_id and drop.reason == "shed"
        retry = outcomes[retry_id]
        assert retry.cache is None and retry.replica is not None
        reference = make_fleet(1, max_batch=1, max_wait_ms=0.0)
        reference.submit_request(batches[0], 5)
        (expected,) = reference.drain()
        assert selection_bytes(retry.result) == selection_bytes(expected.result)
        stats = fleet.stats().data_plane
        assert stats.memo_hits == 0 and stats.invalidations == 1

    def test_cancelled_follower_drops_while_waiting(self, batches):
        """A follower whose cancel fires before its leader finishes
        drops without ever occupying a replica."""
        fleet = make_fleet(1, data_plane=True, max_batch=1, max_wait_ms=0.0)
        leader_id = fleet.submit_request(batches[0], 5)
        follower_id = fleet.submit_request(batches[0], 5, cancel_at=0.01)
        outcomes = {o.request_id: o for o in fleet.drain()}
        assert leader_id in outcomes and follower_id not in outcomes
        (drop,) = fleet.dropped_requests
        assert drop.request_id == follower_id and drop.reason == "cancelled"

    @pytest.mark.parametrize(
        "fault_kind,num_replicas",
        [(FAULT_SSD_READ_ERROR, 1), (FAULT_REPLICA_CRASH, 2)],
    )
    def test_faulted_leader_invalidates_and_everyone_recovers(
        self, batches, fault_kind, num_replicas
    ):
        """The PR 5 fault matrix extended to plane leaders: an injected
        ``ssd_read_error`` / ``replica_crash`` kills the leader's
        pending entry (never the memo), its followers re-dispatch, and
        after failover every request completes with selections
        byte-identical to a plane-less fleet under the same plan."""
        plan = FaultPlan([FaultEvent(fault_kind, at=0.05, replica=0)])
        stream = [batches[0], batches[0], batches[1], batches[1]]
        results = {}
        for mode in (False, True):
            fleet = make_fleet(
                num_replicas,
                data_plane=mode,
                max_batch=2,
                max_wait_ms=0.0,
                fault_plan=plan,
                resilience=ResilienceConfig(max_retries=2, cooldown_s=1e6),
            )
            ids = [fleet.submit_request(batch, 5) for batch in stream]
            outcomes = fleet.drain()
            assert sorted(o.request_id for o in outcomes) == ids  # zero lost
            assert fleet.stats().failed_requests == 0
            results[mode] = selections_by_id(outcomes)
            if mode:
                stats = fleet.stats().data_plane
                # The faulted leader's pending entry was invalidated...
                assert stats.invalidations >= 1
                # ...and the plane still deduplicated the repeats.
                assert stats.hits >= 1
        assert results[True] == results[False]


# ----------------------------------------------------------------------
# observability: cache events & terminal accounting
# ----------------------------------------------------------------------
class TestPlaneEvents:
    def test_cache_hit_events_carry_mode(self, batches):
        log = EventLog()
        fleet = make_fleet(
            1, data_plane=True, max_batch=1, max_wait_ms=0.0, event_log=log
        )
        fleet.submit_request(batches[0], 5)
        fleet.submit_request(batches[0], 5)  # coalesces
        fleet.drain()
        fleet.submit_request(batches[0], 5)  # memo hit
        fleet.drain()
        hits = [e for e in log.events if e.kind == EVENT_CACHE_HIT]
        assert sorted(e.data["mode"] for e in hits) == ["coalesced", "memo"]
        assert all(e.tier == "fleet" for e in hits)

    def test_every_admission_still_gets_exactly_one_terminal(self, batches):
        """Plane short-circuits (hits, coalesced followers, redispatch)
        must preserve the §10 ledger: one terminal event per admit."""
        log = EventLog()
        fleet = make_fleet(
            1, data_plane=True, max_batch=1, max_wait_ms=0.0, event_log=log
        )
        fleet.submit_request(batches[0], 5, cancel_at=0.05)  # dying leader
        fleet.submit_request(batches[0], 5)  # re-dispatched follower
        fleet.submit_request(batches[0], 5)  # re-coalesced follower
        fleet.submit_request(batches[1], 5)  # plain miss
        fleet.drain()
        fleet.submit_request(batches[1], 5)  # memo hit
        fleet.drain()
        fleet_events = [e for e in log.events if e.tier == "fleet"]
        admitted = [e.request for e in fleet_events if e.kind == "admit"]
        assert len(admitted) == 5
        terminals = [e.request for e in fleet_events if e.kind in TERMINAL_KINDS]
        assert sorted(terminals) == sorted(admitted)

    def test_plane_off_fleet_emits_no_cache_events(self, batches):
        log = EventLog()
        fleet = make_fleet(1, max_batch=1, max_wait_ms=0.0, event_log=log)
        fleet.submit_request(batches[0], 5)
        fleet.submit_request(batches[0], 5)
        fleet.drain()
        assert not any(
            e.kind in (EVENT_CACHE_HIT, EVENT_CACHE_EVICT) for e in log.events
        )


# ----------------------------------------------------------------------
# the plane through the public request API (FleetServer)
# ----------------------------------------------------------------------
class TestFleetServerPlane:
    """The fleet is the plane's only owner: memo hits, coalesced twins
    and the ``memoize`` opt-out surface on :class:`SelectionResponse`."""

    def make_server(self, plane=True):
        return FleetServer(make_fleet(1, data_plane=plane, intra_concurrency=4))

    def wave_requests(self, batches):
        return [
            SelectionRequest(batch=batches[0], k=5, request_id="leader"),
            SelectionRequest(batch=batches[0], k=5, request_id="twin"),
            SelectionRequest(batch=batches[1], k=5, request_id="other"),
        ]

    def test_coalescing_and_memoization_in_one_wave(self, batches):
        server = self.make_server()
        by_id = {r.request_id: r for r in serve_all(server, self.wave_requests(batches))}
        leader, twin, other = by_id["leader"], by_id["twin"], by_id["other"]
        assert all(r.ok for r in by_id.values())
        assert twin.cache == "coalesced" and twin.service_seconds == 0.0
        assert leader.cache is None and other.cache is None
        assert selection_bytes(twin.result) == selection_bytes(leader.result)
        # A verbatim repeat memo-hits without touching a replica.
        (hit,) = serve_all(
            server, [SelectionRequest(batch=batches[0], k=5, request_id="again")]
        )
        assert hit.cache == "hit" and hit.service_seconds == 0.0
        assert hit.replica is None
        assert selection_bytes(hit.result) == selection_bytes(leader.result)
        stats = server.fleet.stats().data_plane
        assert stats.coalesced == 1 and stats.memo_hits == 1

    def test_plane_selections_match_plane_off_fleet(self, batches):
        selections = {}
        for plane in (True, False):
            responses = serve_all(self.make_server(plane), self.wave_requests(batches))
            selections[plane] = {r.request_id: selection_bytes(r.result) for r in responses}
        assert selections[True] == selections[False]

    def test_memoize_false_bypasses_the_plane(self, batches):
        server = self.make_server()
        responses = serve_all(
            server,
            [
                SelectionRequest(batch=batches[0], k=5, request_id="a", memoize=False),
                SelectionRequest(batch=batches[0], k=5, request_id="b", memoize=False),
            ],
        )
        assert all(r.ok and r.cache is None and r.replica is not None for r in responses)
        assert server.fleet.stats().data_plane.requests == 0

    def test_service_owns_no_plane(self):
        """The device tier has no plane of its own to attach."""
        with pytest.raises(TypeError):
            SemanticSelectionService(
                shared_model(QWEN3_0_6B),
                get_profile("nvidia_5070"),
                data_plane=DataPlane(model_key="qwen"),
            )


# ----------------------------------------------------------------------
# fleet-shared embedding residency (layer 3)
# ----------------------------------------------------------------------
class TestSharedEmbeddingCache:
    def make_executor(self):
        return DeviceExecutor(NVIDIA_5070.create())

    def make_plane(self, capacity=4, row_nbytes=2048):
        plane = SharedEmbeddingCache(capacity_rows=capacity)
        executor = self.make_executor()
        plane.attach(executor, vocab_size=1000, row_nbytes=row_nbytes)
        return plane, executor

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            SharedEmbeddingCache(capacity_rows=0)
        with pytest.raises(ValueError):
            SharedEmbeddingCache(fraction=0.0)

    def test_attach_charges_each_devices_slab(self):
        plane, executor = self.make_plane(capacity=4, row_nbytes=1000)
        assert executor.device.memory.live_bytes("embedding-plane") == 4000
        second = self.make_executor()
        plane.attach(second, vocab_size=1000, row_nbytes=1000)
        assert second.device.memory.live_bytes("embedding-plane") == 4000
        plane.detach(second)
        assert second.device.memory.in_use == 0

    def test_row_size_mismatch_rejected(self):
        plane, _ = self.make_plane(row_nbytes=1000)
        with pytest.raises(ValueError):
            plane.attach(self.make_executor(), vocab_size=1000, row_nbytes=2000)

    def test_lookup_before_attach_rejected(self):
        plane = SharedEmbeddingCache(capacity_rows=4)
        with pytest.raises(RuntimeError):
            plane.lookup(np.array([1]), self.make_executor())

    def test_residency_is_shared_across_devices(self):
        """The promotion claim: a row one replica faulted in is a hit
        for every other replica, while the miss I/O stays charged on
        the replica that faulted it in."""
        plane, first = self.make_plane()
        second = self.make_executor()
        plane.attach(second, vocab_size=1000, row_nbytes=2048)
        lookup_a, pin_a = plane.lookup(np.array([1, 2, 3]), first)
        assert lookup_a.misses == 3 and first.now > 0
        lookup_b, pin_b = plane.lookup(np.array([1, 2, 3]), second)
        assert lookup_b.hits == 3 and lookup_b.io_seconds == 0.0
        assert second.now == 0.0  # no I/O billed to the hitting replica
        pin_a.release()
        pin_b.release()

    def test_pinned_rows_survive_lru_pressure(self):
        plane, executor = self.make_plane(capacity=2)
        _, pin = plane.lookup(np.array([1, 2]), executor)
        # Both rows pinned; a third admission cannot evict under the
        # reader — it overflows instead.
        plane.lookup(np.array([3]), executor)[1].release()
        assert plane.pinned_overflow == 1
        assert plane.is_resident(1) and plane.is_resident(2)
        pin.release()
        assert plane.pinned_rows == 0
        # Unpinned, the LRU reclaims down to capacity as usual.
        plane.lookup(np.array([4]), executor)[1].release()
        assert plane.resident_rows <= 3
        assert plane.total_evictions >= 1

    def test_pin_release_is_idempotent(self):
        plane, executor = self.make_plane()
        _, pin = plane.lookup(np.array([1]), executor)
        pin.release()
        pin.release()  # double release must not underflow the refcount
        assert plane.pinned_rows == 0

    def test_unused_plane_reports_no_hit_rate(self):
        plane, _ = self.make_plane()
        assert plane.hit_rate is None

    def test_fleet_replicas_share_one_directory(self, batches):
        fleet = make_fleet(
            2,
            shared_embedding_cache=True,
            max_batch=1,
            max_wait_ms=0.0,
            routing="round_robin",
        )
        assert fleet.embedding_plane is not None
        fleet.submit_request(batches[0], 5)
        fleet.submit_request(batches[0], 5)  # same tokens, other replica
        fleet.drain()
        plane = fleet.embedding_plane
        assert plane.total_hits > 0  # replica 1 hit rows replica 0 loaded
        # Every pass released its pins at the pass boundary.
        assert plane.pinned_rows == 0
        for replica in fleet.replicas:
            tracked = replica.service.device.memory.live_bytes("embedding-plane")
            assert tracked == plane.capacity_rows * plane.row_nbytes

    def test_faulted_miss_read_unpins_its_hits(self):
        """A lookup whose miss read raises hands no pin to the caller,
        so it must unpin the hit rows it pinned before the read."""
        plane, executor = self.make_plane(capacity=8)
        plane.lookup(np.array([1, 2]), executor)[1].release()
        executor.device.install_faults(FaultPlan([FaultEvent(FAULT_SSD_READ_ERROR, at=0.0)]))
        with pytest.raises(DeviceFault):
            plane.lookup(np.array([1, 2, 3]), executor)
        assert plane.pinned_rows == 0
        assert not plane.is_resident(3)
        # Unpinned, rows 1 and 2 are evictable again: admitting seven new
        # rows over capacity evicts the oldest instead of overflowing.
        plane.lookup(np.arange(10, 17), executor)[1].release()
        assert plane.total_evictions == 1 and plane.pinned_overflow == 0
        assert not plane.is_resident(1) and plane.is_resident(2)

    def test_fleet_read_fault_leaves_no_pins(self, batches):
        """Fleet tier: an ``ssd_read_error`` that lands on a pass's
        embedding miss read (rows from an earlier pass are hits) fails
        the pass, the retry completes, and no row stays pinned."""
        plan = FaultPlan([FaultEvent(FAULT_SSD_READ_ERROR, at=4.0, replica=0)])
        fleet = make_fleet(
            1,
            shared_embedding_cache=True,
            max_batch=1,
            max_wait_ms=0.0,
            fault_plan=plan,
            resilience=ResilienceConfig(max_retries=2, cooldown_s=0.0),
        )
        first = fleet.submit_request(batches[0], 5)
        second = fleet.submit_request(batches[1], 5, at=5.0)
        outcomes = {o.request_id: o for o in fleet.drain()}
        assert set(outcomes) == {first, second}
        assert outcomes[second].attempts == 2  # the faulted pass, then the retry
        plane = fleet.embedding_plane
        assert plane.total_hits > 0
        assert plane.pinned_rows == 0
