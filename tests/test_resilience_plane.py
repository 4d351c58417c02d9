"""Tests for the resilience plane (DESIGN.md §9).

Deterministic fault injection on the device substrate, fault
containment in the scheduler, health-checked failover and hedging in
the fleet, and the queue-depth autoscaler — plus the load-bearing
equivalence: a fault-free plan changes nothing, byte for byte.
"""

import numpy as np
import pytest

from repro.core.api import (
    REQUEST_FAILED,
    DeviceServer,
    EngineServer,
    FleetServer,
    SelectionRequest,
    serve_all,
)
from repro.core.config import PrismConfig
from repro.core.engine import PrismEngine
from repro.core.events import EventLog
from repro.core.fleet import FleetConfig, FleetService
from repro.core.resilience import (
    FAULT_BANDWIDTH_DEGRADATION,
    FAULT_REPLICA_CRASH,
    FAULT_REPLICA_STALL,
    FAULT_SSD_READ_ERROR,
    AutoscalerConfig,
    DeviceFault,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    ResilienceConfig,
)
from repro.core.scheduler import DeviceScheduler, SchedulerConfig
from repro.core.service import SemanticSelectionService
from repro.core.trace import TraceRequest, TraceSpec, build_server, run_trace
from repro.data.datasets import get_dataset
from repro.data.workloads import build_batch
from repro.device.platforms import get_profile
from repro.harness.runner import shared_model, shared_tokenizer
from repro.model.zoo import QWEN3_0_6B, get_model_config


@pytest.fixture(scope="module")
def batches():
    tokenizer = shared_tokenizer(QWEN3_0_6B)
    queries = get_dataset("wikipedia").queries(8, 12)
    return [build_batch(q, tokenizer, QWEN3_0_6B.max_seq_len) for q in queries]


def make_engine(config=None, faults=None):
    device = get_profile("nvidia_5070").create()
    if faults is not None:
        device.install_faults(faults)
    engine = PrismEngine(
        shared_model(QWEN3_0_6B), device, config or PrismConfig(numerics=False)
    )
    engine.prepare()
    return engine


def make_fleet(num_replicas=2, profile="nvidia_5070", **kwargs):
    fleet_kwargs = {
        key: kwargs.pop(key)
        for key in ("fault_plan", "resilience", "autoscaler", "sample_rate")
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


# ----------------------------------------------------------------------
# fault primitives
# ----------------------------------------------------------------------
class TestFaultPrimitives:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent("gamma_ray", at=0.0)

    def test_negative_instant_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(FAULT_REPLICA_CRASH, at=-1.0)

    def test_degradation_needs_window_and_fraction(self):
        with pytest.raises(ValueError):
            FaultEvent(FAULT_BANDWIDTH_DEGRADATION, at=0.0, fraction=0.5)
        with pytest.raises(ValueError):
            FaultEvent(FAULT_BANDWIDTH_DEGRADATION, at=0.0, duration=1.0, fraction=1.5)

    def test_stall_needs_duration(self):
        with pytest.raises(ValueError):
            FaultEvent(FAULT_REPLICA_STALL, at=0.0)

    def test_plan_filters_by_replica(self):
        plan = FaultPlan(
            [
                FaultEvent(FAULT_REPLICA_CRASH, at=1.0, replica=0),
                FaultEvent(FAULT_REPLICA_CRASH, at=2.0, replica=1),
                FaultEvent(FAULT_REPLICA_STALL, at=3.0, duration=0.1),  # all
            ]
        )
        assert len(plan.for_replica(0)) == 2
        assert len(plan.for_replica(1)) == 2
        assert len(plan.for_replica(7)) == 1
        assert not plan.empty and FaultPlan().empty

    def test_injector_point_events_are_one_shot(self):
        injector = FaultInjector([FaultEvent(FAULT_REPLICA_CRASH, at=1.0)])
        assert injector.pop_crash(0.5) is None
        assert injector.pop_crash(1.5) is not None
        assert injector.pop_crash(2.0) is None  # consumed
        assert injector.pending_events == 0
        assert len(injector.fired) == 1

    def test_injector_rebases_onto_origin(self):
        injector = FaultInjector([FaultEvent(FAULT_REPLICA_CRASH, at=1.0)], origin=10.0)
        assert injector.pop_crash(1.5) is None
        assert injector.pop_crash(11.0) is not None

    def test_degradation_windows_compose(self):
        injector = FaultInjector(
            [
                FaultEvent(FAULT_BANDWIDTH_DEGRADATION, at=0.0, duration=2.0, fraction=0.5),
                FaultEvent(FAULT_BANDWIDTH_DEGRADATION, at=1.0, duration=2.0, fraction=0.5),
            ]
        )
        assert injector.bandwidth_fraction(0.5) == 0.5
        assert injector.bandwidth_fraction(1.5) == 0.25
        assert injector.bandwidth_fraction(2.5) == 0.5
        assert injector.bandwidth_fraction(3.5) == 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(max_retries=-1)
        with pytest.raises(ValueError):
            ResilienceConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            ResilienceConfig(latency_degradation_factor=0.5)
        with pytest.raises(ValueError):
            AutoscalerConfig(min_replicas=0)
        with pytest.raises(ValueError):
            AutoscalerConfig(min_replicas=4, max_replicas=2)
        with pytest.raises(ValueError):
            AutoscalerConfig(scale_up_queue_depth=0)


# ----------------------------------------------------------------------
# device-level injection
# ----------------------------------------------------------------------
class TestDeviceInjection:
    def test_read_error_surfaces_as_typed_fault(self):
        device = get_profile("nvidia_5070").create()
        device.install_faults([FaultEvent(FAULT_SSD_READ_ERROR, at=0.0)])
        with pytest.raises(DeviceFault) as excinfo:
            device.ssd.read_sync("load/x", 1 << 20)
        assert excinfo.value.kind == FAULT_SSD_READ_ERROR
        # One-shot: the next read succeeds.
        device.ssd.read_sync("load/y", 1 << 20)

    def test_degraded_window_stretches_reads(self):
        nominal = get_profile("nvidia_5070").create()
        t_nominal = nominal.ssd.read_sync("load/x", 64 << 20)
        degraded = get_profile("nvidia_5070").create()
        degraded.install_faults(
            [FaultEvent(FAULT_BANDWIDTH_DEGRADATION, at=0.0, duration=60.0, fraction=0.25)]
        )
        t_degraded = degraded.ssd.read_sync("load/x", 64 << 20)
        # Transfer component scales by 1/fraction; command latency stands.
        latency = nominal.profile.ssd.latency
        assert t_degraded == pytest.approx(latency + (t_nominal - latency) / 0.25)

    def test_empty_plan_changes_nothing(self):
        plain = get_profile("nvidia_5070").create()
        planned = get_profile("nvidia_5070").create()
        planned.install_faults(FaultPlan())
        assert plain.ssd.read_sync("load/x", 32 << 20) == planned.ssd.read_sync(
            "load/x", 32 << 20
        )


# ----------------------------------------------------------------------
# engine / scheduler containment
# ----------------------------------------------------------------------
class TestSchedulerContainment:
    def test_crash_closes_every_inflight_task(self, batches):
        """A crash fails all in-flight and waiting requests, and every
        weight-plane refcount is released — exactly like a cancel."""
        engine = make_engine(
            config=PrismConfig(numerics=False, shared_weight_plane=True),
            faults=FaultPlan([FaultEvent(FAULT_REPLICA_CRASH, at=0.05)]),
        )
        scheduler = DeviceScheduler(
            engine, SchedulerConfig(policy="fusion", max_concurrency=3)
        )
        for batch in batches[:3]:
            scheduler.submit_request(batch, 5)
        outcomes = scheduler.drain()
        assert outcomes == []
        assert len(scheduler.dropped) == 3
        assert all(d.reason == "failed" for d in scheduler.dropped)
        assert all(d.detail == FAULT_REPLICA_CRASH for d in scheduler.dropped)
        plane = engine.weight_plane
        assert plane is not None
        assert plane.open_passes == 0
        assert plane.resident_layers == set()

    def test_read_error_fails_one_request_others_complete(self, batches):
        engine = make_engine(
            faults=FaultPlan([FaultEvent(FAULT_SSD_READ_ERROR, at=0.05)])
        )
        scheduler = DeviceScheduler(
            engine, SchedulerConfig(policy="round_robin", max_concurrency=2)
        )
        for batch in batches[:3]:
            scheduler.submit_request(batch, 5)
        outcomes = scheduler.drain()
        assert len(outcomes) == 2
        (drop,) = scheduler.dropped
        assert drop.reason == "failed"
        assert drop.detail == FAULT_SSD_READ_ERROR

    def test_stall_inflates_latency_only(self, batches):
        plain_engine = make_engine()
        result = plain_engine.start(batches[0], 5).run()
        stalled_engine = make_engine(
            faults=FaultPlan(
                [FaultEvent(FAULT_REPLICA_STALL, at=0.0, duration=0.5)]
            )
        )
        stalled = stalled_engine.start(batches[0], 5).run()
        assert np.array_equal(stalled.top_indices, result.top_indices)
        assert stalled_engine.device.clock.now == pytest.approx(
            plain_engine.device.clock.now + 0.5
        )

    def test_engine_server_reports_failed_status(self, batches):
        engine = make_engine(
            faults=FaultPlan([FaultEvent(FAULT_SSD_READ_ERROR, at=0.05)])
        )
        responses = serve_all(
            EngineServer(engine),
            [
                SelectionRequest(batch=batches[0], k=5, request_id="dead"),
                SelectionRequest(batch=batches[1], k=5, request_id="alive"),
            ],
        )
        by_id = {r.request_id: r for r in responses}
        assert by_id["dead"].status == REQUEST_FAILED
        assert by_id["alive"].ok

    def test_device_server_reports_failed_status(self, batches):
        service = SemanticSelectionService(
            shared_model(QWEN3_0_6B),
            get_profile("nvidia_5070"),
            config=PrismConfig(numerics=False),
            scheduler=SchedulerConfig(max_concurrency=2),
        )
        service.device.install_faults(
            [FaultEvent(FAULT_REPLICA_CRASH, at=0.05)]
        )
        responses = serve_all(
            DeviceServer(service),
            [SelectionRequest(batch=b, k=5, request_id=i) for i, b in enumerate(batches[:3])],
        )
        assert all(r.status == REQUEST_FAILED for r in responses)

    def test_crash_fails_the_rest_of_the_drain_on_both_tiers(self):
        """Four requests arrive together; a crash lands while the second
        runs.  The engine tier, like a one-slot ``fifo`` device tier,
        fails the second and every later request at the crash instant;
        the later ones get an admit and a ``replica_crash`` fail event."""
        queries = get_dataset("nfcorpus").queries(4, 6)
        requests = [TraceRequest(q, k=2, request_id=f"r{i}") for i, q in enumerate(queries)]
        crash = ({"kind": FAULT_REPLICA_CRASH, "at": 0.349},)
        outcomes = []
        for spec in (
            TraceSpec(tier="engine", faults=crash),
            TraceSpec(tier="device", device={"policy": "fifo"}, faults=crash),
        ):
            run = run_trace(spec, requests)
            by_id = {r.request_id: r for r in run.responses}
            outcomes.append([(by_id[r].status, by_id[r].finish) for r in ("r0", "r1", "r2", "r3")])
            if spec.tier == "engine":
                engine_events = run.log.events
        assert outcomes[0] == outcomes[1]
        statuses, finishes = zip(*outcomes[0])
        assert statuses == ("ok", REQUEST_FAILED, REQUEST_FAILED, REQUEST_FAILED)
        assert finishes[1] >= 0.349 and set(finishes[1:]) == {finishes[1]}
        for request in requests[2:]:
            lifecycle = [
                (e.kind, e.data.get("detail"))
                for e in engine_events
                if e.tier == "engine" and e.request == request.request_id
            ]
            assert lifecycle == [("admit", None), ("fail", FAULT_REPLICA_CRASH)]

    @pytest.mark.parametrize(
        "spec",
        [
            TraceSpec(tier="engine", faults=({"kind": FAULT_REPLICA_CRASH, "at": 0.349},)),
            TraceSpec(
                tier="device",
                device={"policy": "fifo"},
                faults=({"kind": FAULT_REPLICA_CRASH, "at": 0.349},),
            ),
        ],
        ids=["engine", "device"],
    )
    def test_a_crash_is_one_shot_and_the_next_drain_is_served(self, spec):
        """A ``replica_crash`` fails the rest of the drain it lands in and
        leaves no dead device behind: a fifth request, in a second drain
        on the same server, completes (the fleet charges the restart as
        ``ResilienceConfig.cooldown_s``)."""
        config = get_model_config(spec.model)
        tokenizer = shared_tokenizer(config)
        batches = [
            build_batch(q, tokenizer, config.max_seq_len)
            for q in get_dataset("nfcorpus").queries(5, 6)
        ]
        server, clock = build_server(spec, None)
        first = serve_all(
            server,
            [SelectionRequest(batch=b, k=2, request_id=f"r{i}") for i, b in enumerate(batches[:4])],
        )
        assert [r.status for r in first] == ["ok"] + [REQUEST_FAILED] * 3
        crashed_at = clock.now
        (fifth,) = serve_all(server, [SelectionRequest(batch=batches[4], k=2, request_id="r4")])
        assert fifth.ok
        assert fifth.finish > crashed_at >= 0.349


# ----------------------------------------------------------------------
# fleet failover
# ----------------------------------------------------------------------
class TestFleetFailover:
    CRASH = FaultPlan([FaultEvent(FAULT_REPLICA_CRASH, at=0.2, replica=0)])

    def test_crash_failover_completes_everything(self, batches):
        fleet = make_fleet(
            2,
            max_batch=2,
            max_wait_ms=0.0,
            fault_plan=self.CRASH,
            resilience=ResilienceConfig(max_retries=2, cooldown_s=1e6),
        )
        ids = [fleet.submit_request(batch, 5) for batch in batches]
        outcomes = fleet.drain()
        stats = fleet.stats()
        assert sorted(o.request_id for o in outcomes) == ids  # zero lost
        assert stats.failed_requests == 0
        assert stats.failovers > 0
        failed_over = [o for o in outcomes if o.attempts > 1]
        assert failed_over
        for outcome in failed_over:
            assert outcome.failed_over_from == (0,)
            assert outcome.replica != 0  # requeued onto a healthy replica

    def test_retry_never_starts_before_its_fault(self, batches):
        """Failover must not rewind time: a retry's service cannot
        begin before the fault that spawned it, even when the backup
        replica has been idle all along."""
        crash_at = 0.05
        fleet = make_fleet(
            2,
            max_batch=1,
            max_wait_ms=0.0,
            routing="round_robin",
            fault_plan=FaultPlan(
                [FaultEvent(FAULT_REPLICA_CRASH, at=crash_at, replica=0)]
            ),
            resilience=ResilienceConfig(cooldown_s=1e6),
        )
        fleet.submit_request(batches[0], 5)
        (outcome,) = fleet.drain()
        assert outcome.attempts == 2
        assert outcome.replica == 1
        assert outcome.start >= crash_at
        assert outcome.service_start >= crash_at

    def test_concurrent_dispatch_failover(self, batches):
        fleet = make_fleet(
            2,
            max_batch=4,
            max_wait_ms=0.0,
            intra_concurrency=4,
            fault_plan=self.CRASH,
            resilience=ResilienceConfig(cooldown_s=1e6),
        )
        ids = [fleet.submit_request(batch, 5) for batch in batches]
        outcomes = fleet.drain()
        assert sorted(o.request_id for o in outcomes) == ids
        assert any(o.attempts > 1 for o in outcomes)

    def test_read_error_fails_over_only_the_faulted_pass(self, batches):
        """An SSD read error kills the pass that issued the read, not the
        replica: the requests queued behind it in the same wave still
        complete there, on their first attempt."""
        fleet = make_fleet(
            2,
            max_batch=3,
            max_wait_ms=0.0,
            fault_plan=FaultPlan(
                [FaultEvent(FAULT_SSD_READ_ERROR, at=0.01, replica=0)]
            ),
        )
        for i, batch in enumerate(batches[:3]):
            fleet.submit_request(batch, 5, at=0.0, client_id=f"r{i}")
        by_id = {outcome.client_id: outcome for outcome in fleet.drain()}
        assert fleet.stats().failovers == 1
        assert by_id["r0"].attempts == 2 and by_id["r0"].failed_over_from == (0,)
        for client_id in ("r1", "r2"):
            assert by_id[client_id].replica == 0
            assert by_id[client_id].attempts == 1

    def test_retries_bounded(self, batches):
        """With zero retries, the crash's victims drop as failed —
        bounded failover, never a loop."""
        fleet = make_fleet(
            2,
            max_batch=2,
            max_wait_ms=0.0,
            fault_plan=self.CRASH,
            resilience=ResilienceConfig(max_retries=0, cooldown_s=1e6),
        )
        ids = [fleet.submit_request(batch, 5) for batch in batches]
        outcomes = fleet.drain()
        stats = fleet.stats()
        failed = [d for d in fleet.dropped_requests if d.reason == "failed"]
        assert failed and stats.failed_requests == len(failed)
        assert len(outcomes) + len(failed) == len(ids)  # accounted, not lost
        # The drop record keeps the failover provenance: which replica
        # failed the final attempt, and how many attempts were burned.
        for drop in failed:
            assert drop.failed_over_from == (0,)
            assert drop.attempts == 1  # max_retries=0: one attempt allowed

    def test_crashed_replica_excluded_until_cooldown(self, batches):
        fleet = make_fleet(
            2,
            max_batch=2,
            max_wait_ms=0.0,
            fault_plan=self.CRASH,
            resilience=ResilienceConfig(cooldown_s=5.0),
        )
        for batch in batches:
            fleet.submit_request(batch, 5)
        outcomes = fleet.drain()
        dead = fleet.replicas[0]
        assert not dead.health.healthy(dead.health.unhealthy_until - 1e-9)
        # Everything dispatched after the crash ran on the survivor.
        for outcome in outcomes:
            if outcome.start > 0.2:
                assert outcome.replica == 1
        # After the cooldown the replica serves again.
        late = fleet.submit_request(batches[0], 5, at=fleet.clock.now + 10.0)
        (outcome,) = [o for o in fleet.drain() if o.request_id == late]
        assert outcome.replica in (0, 1)
        assert fleet.replicas[0].health.healthy(fleet.clock.now)

    def test_failover_provenance_reaches_selection_response(self, batches):
        fleet = make_fleet(
            2,
            max_batch=2,
            max_wait_ms=0.0,
            fault_plan=self.CRASH,
            resilience=ResilienceConfig(cooldown_s=1e6),
        )
        responses = serve_all(
            FleetServer(fleet),
            [
                SelectionRequest(batch=batch, k=5, request_id=f"q{i}")
                for i, batch in enumerate(batches)
            ],
        )
        assert all(r.ok for r in responses)
        retried = [r for r in responses if r.attempts > 1]
        assert retried
        assert all(r.failed_over_from == (0,) for r in retried)

    def test_failed_response_keeps_failover_provenance(self, batches):
        """A retries-exhausted request's SelectionResponse still shows
        the failover journey — attempts and the failing replicas."""
        fleet = make_fleet(
            1,
            max_batch=2,
            max_wait_ms=0.0,
            fault_plan=FaultPlan(
                [FaultEvent(FAULT_REPLICA_CRASH, at=0.05, replica=0)]
            ),
            resilience=ResilienceConfig(max_retries=0, cooldown_s=0.1),
        )
        responses = serve_all(
            FleetServer(fleet),
            [
                SelectionRequest(batch=batch, k=5, request_id=f"q{i}")
                for i, batch in enumerate(batches[:3])
            ],
        )
        failed = [r for r in responses if r.status == REQUEST_FAILED]
        assert failed
        for response in failed:
            assert response.failed_over_from == (0,)

    def test_spawned_replica_ignores_past_fault_events(self):
        """A replacement spawned after a fault instant must not re-fire
        the event that predates its own existence; events still ahead
        (and the live remainder of degradation windows) apply."""
        from repro.device.platforms import get_profile as profile_of

        fleet = make_fleet(
            1,
            # replica=None targets every replica — including, naively,
            # ones spawned long after the instant has passed.
            fault_plan=FaultPlan(
                [
                    FaultEvent(FAULT_REPLICA_CRASH, at=0.1),
                    FaultEvent(FAULT_REPLICA_STALL, at=10.0, duration=0.5),
                    FaultEvent(
                        FAULT_BANDWIDTH_DEGRADATION,
                        at=0.0,
                        duration=20.0,
                        fraction=0.5,
                    ),
                ]
            ),
        )
        late = fleet._spawn_replica(profile_of("nvidia_5070"), spawned_at=5.0)
        injector = late.service.device.faults
        assert injector is not None
        # The crash at 0.1 predates the spawn: never fires, however
        # late the replica consults the injector.
        assert injector.pop_crash(late.origin + 1e9) is None
        # The stall at 10.0 is still ahead: it fires.
        assert injector.pop_stall(late.origin + 1e9) is not None
        # The degradation window still overlaps the future: it applies.
        assert injector.bandwidth_fraction(late.origin + 15.0) == 0.5

    def test_spawned_at_construction_keeps_all_events(self):
        fleet = make_fleet(
            2,
            fault_plan=FaultPlan([FaultEvent(FAULT_REPLICA_CRASH, at=0.1)]),
        )
        for replica in fleet.replicas:
            injector = replica.service.device.faults
            assert injector is not None and injector.pending_events == 1

    def test_slow_replica_probe_marks_unhealthy(self, batches):
        """A stalled replica never fails a request — the EWMA latency
        probe has to catch it."""
        plan = FaultPlan(
            [FaultEvent(FAULT_REPLICA_STALL, at=0.0, replica=0, duration=2.0)]
        )
        fleet = make_fleet(
            2,
            max_batch=1,
            max_wait_ms=0.0,
            routing="round_robin",
            fault_plan=plan,
            resilience=ResilienceConfig(
                latency_degradation_factor=2.0, cooldown_s=1e6
            ),
        )
        for batch in batches[:4]:
            fleet.submit_request(batch, 5)
        fleet.drain()
        assert fleet.replicas[0].health.unhealthy_marks >= 1
        assert fleet.replicas[1].health.unhealthy_marks == 0


# ----------------------------------------------------------------------
# hedging
# ----------------------------------------------------------------------
class TestHedging:
    def test_hedge_wins_against_stalled_primary(self, batches):
        plan = FaultPlan(
            [FaultEvent(FAULT_REPLICA_STALL, at=0.0, replica=0, duration=1.0)]
        )
        fleet = make_fleet(
            2, max_batch=1, max_wait_ms=0.0, routing="round_robin", fault_plan=plan
        )
        request_id = fleet.submit_request(batches[0], 5, hedge_after_ms=300.0)
        (outcome,) = fleet.drain()
        stats = fleet.stats()
        assert outcome.request_id == request_id
        assert outcome.hedged
        assert outcome.replica == 1  # the duplicate won
        assert stats.hedges_launched == 1 and stats.hedges_won == 1

    def test_hedge_loser_is_cancelled_midpass(self, batches):
        """Identical replicas, hedge fired deep into the primary's
        ~300 ms pass: the duplicate cannot catch up, loses the race,
        and is cancelled mid-pass through the ordinary cancel path."""
        fleet = make_fleet(2, max_batch=1, max_wait_ms=0.0)
        fleet.submit_request(batches[0], 5, hedge_after_ms=200.0)
        (outcome,) = fleet.drain()
        stats = fleet.stats()
        assert outcome.replica == 0  # the primary won
        assert outcome.hedged
        assert stats.hedges_launched == 1 and stats.hedges_won == 0
        # The loser's pass was cancelled on the backup replica.
        assert fleet.replicas[1].service.stats.requests_dropped == 1

    def test_fast_primary_never_hedges(self, batches):
        fleet = make_fleet(2, max_batch=1, max_wait_ms=0.0)
        fleet.submit_request(batches[0], 5, hedge_after_ms=60_000.0)
        (outcome,) = fleet.drain()
        assert not outcome.hedged
        assert fleet.stats().hedges_launched == 0

    def test_bad_hedge_rejected(self, batches):
        fleet = make_fleet(1)
        with pytest.raises(ValueError):
            fleet.submit_request(batches[0], 5, hedge_after_ms=0.0)
        with pytest.raises(ValueError):
            SelectionRequest(batch=batches[0], k=5, hedge_after_ms=-1.0)
        # A valid hedge composes with intra-replica concurrency: the
        # stalled primary loses to the duplicate's wave on replica 1.
        plan = FaultPlan(
            [FaultEvent(FAULT_REPLICA_STALL, at=0.0, replica=0, duration=1.0)]
        )
        concurrent = make_fleet(
            2, max_batch=1, max_wait_ms=0.0, intra_concurrency=2, fault_plan=plan
        )
        concurrent.submit_request(batches[0], 5, hedge_after_ms=300.0)
        (outcome,) = concurrent.drain()
        assert outcome.hedged and outcome.replica == 1
        assert concurrent.stats().hedges_won == 1


# ----------------------------------------------------------------------
# autoscaler
# ----------------------------------------------------------------------
class TestAutoscaler:
    AUTOSCALER = AutoscalerConfig(
        min_replicas=1,
        max_replicas=4,
        scale_up_queue_depth=2,
        scale_down_idle_s=1.0,
        warmup_s=0.1,
        action_cooldown_s=0.0,
    )

    def test_scale_up_on_queue_depth(self, batches):
        fleet = make_fleet(
            1, max_batch=2, max_wait_ms=0.0, autoscaler=self.AUTOSCALER
        )
        ids = [fleet.submit_request(batch, 5, at=0.0) for batch in batches]
        outcomes = fleet.drain()
        stats = fleet.stats()
        assert sorted(o.request_id for o in outcomes) == ids
        ups = [e for e in stats.scaling_events if e.action == "scale_up"]
        assert ups and ups[0].reason == "queue_depth"
        assert stats.peak_capacity > 1
        assert stats.capacity_samples[0] == (0.0, 1)

    def test_warmup_charged_before_first_dispatch(self, batches):
        fleet = make_fleet(
            1, max_batch=2, max_wait_ms=0.0, autoscaler=self.AUTOSCALER
        )
        for batch in batches:
            fleet.submit_request(batch, 5, at=0.0)
        outcomes = fleet.drain()
        spawn_at = {
            e.replica: e.at
            for e in fleet.stats().scaling_events
            if e.action == "scale_up"
        }
        for outcome in outcomes:
            if outcome.replica in spawn_at:
                assert outcome.start >= spawn_at[outcome.replica] + 0.1 - 1e-9

    def test_scale_down_retires_idle_replica(self, batches):
        fleet = make_fleet(
            1, max_batch=2, max_wait_ms=0.0, autoscaler=self.AUTOSCALER
        )
        for batch in batches:
            fleet.submit_request(batch, 5, at=0.0)
        fleet.drain()
        assert len(fleet.active_replicas) > 1
        # A trickle arriving long after the burst: the idle extra
        # replicas are retired on the way, never below min_replicas.
        fleet.submit_request(batches[0], 5, at=fleet.clock.now + 30.0)
        fleet.drain()
        stats = fleet.stats()
        downs = [e for e in stats.scaling_events if e.action == "scale_down"]
        assert downs and downs[0].reason == "idle"
        assert len(fleet.active_replicas) >= self.AUTOSCALER.min_replicas
        retired = {e.replica for e in downs}
        assert all(fleet.replicas[i].retired for i in retired)

    def test_max_replicas_respected(self, batches):
        fleet = make_fleet(
            1,
            max_batch=1,
            max_wait_ms=0.0,
            autoscaler=AutoscalerConfig(
                max_replicas=2, scale_up_queue_depth=1, warmup_s=0.0,
                action_cooldown_s=0.0,
            ),
        )
        for batch in batches + batches:
            fleet.submit_request(batch, 5, at=0.0)
        fleet.drain()
        assert len(fleet.active_replicas) <= 2


# ----------------------------------------------------------------------
# the load-bearing equivalence
# ----------------------------------------------------------------------
class TestFaultFreeEquivalence:
    def test_fault_free_plan_is_byte_identical(self, batches):
        """The acceptance bar: under a fault-free plan (and default
        resilience config) every outcome — selection, replica, timing —
        matches a fleet constructed without the resilience plane."""
        plain = make_fleet(2, max_batch=2, max_wait_ms=5.0)
        planned = make_fleet(
            2,
            max_batch=2,
            max_wait_ms=5.0,
            fault_plan=FaultPlan(),
            resilience=ResilienceConfig(),
        )
        for batch in batches:
            plain.submit_request(batch, 5)
            planned.submit_request(batch, 5)
        signature = lambda outcomes: [  # noqa: E731
            (
                o.request_id,
                o.replica,
                o.start,
                o.finish,
                o.attempts,
                o.result.top_indices.tolist(),
                o.result.top_scores.tolist(),
            )
            for o in outcomes
        ]
        assert signature(plain.drain()) == signature(planned.drain())
        assert plain.clock.now == planned.clock.now

    def test_injected_run_preserves_selections(self, batches):
        """Faults move where and when requests run — never what they
        compute: selections match the fault-free fleet's exactly."""
        plain = make_fleet(2, max_batch=2, max_wait_ms=0.0)
        faulted = make_fleet(
            2,
            max_batch=2,
            max_wait_ms=0.0,
            fault_plan=FaultPlan(
                [FaultEvent(FAULT_REPLICA_CRASH, at=0.2, replica=0)]
            ),
            resilience=ResilienceConfig(cooldown_s=1e6),
        )
        for batch in batches:
            plain.submit_request(batch, 5)
            faulted.submit_request(batch, 5)
        reference = {o.request_id: o for o in plain.drain()}
        for outcome in faulted.drain():
            assert np.array_equal(
                outcome.result.top_indices,
                reference[outcome.request_id].result.top_indices,
            )

    def test_engine_identical_under_empty_plan(self, batches):
        plain = make_engine().start(batches[0], 5).run()
        planned = make_engine(faults=FaultPlan()).start(batches[0], 5).run()
        assert np.array_equal(plain.top_indices, planned.top_indices)
        assert np.array_equal(plain.top_scores, planned.top_scores)
        assert plain.latency_seconds == planned.latency_seconds
        assert plain.io_stall_seconds == planned.io_stall_seconds

    def test_scheduler_trace_identical_under_empty_plan(self, batches):
        traces = []
        for plan in (None, FaultPlan()):
            engine = make_engine(faults=plan)
            log = EventLog()
            engine.device.attach_event_log(log)
            scheduler = DeviceScheduler(
                engine, SchedulerConfig(policy="round_robin", max_concurrency=2), event_log=log
            )
            for batch in batches[:3]:
                scheduler.submit_request(batch, 5)
            scheduler.drain()
            traces.append(log.lines())
        assert traces[0] == traces[1]
        assert traces[0]  # non-vacuous: the schedule was observed


# ----------------------------------------------------------------------
# duplicate in-flight ids (satellite)
# ----------------------------------------------------------------------
class TestDuplicateRequestIds:
    def test_fleet_rejects_duplicate_inflight_client_id(self, batches):
        fleet = make_fleet(1)
        fleet.submit_request(batches[0], 5, client_id="q0")
        with pytest.raises(ValueError, match="duplicate in-flight request id"):
            fleet.submit_request(batches[1], 5, client_id="q0")
        fleet.drain()
        # Drained: the id is no longer in flight and may be reused.
        fleet.submit_request(batches[1], 5, client_id="q0")
        fleet.drain()

    def test_scheduler_rejects_duplicate_inflight_client_id(self, batches):
        engine = make_engine()
        scheduler = DeviceScheduler(engine)
        scheduler.submit_request(batches[0], 5, client_id=7)
        with pytest.raises(ValueError, match="duplicate in-flight request id"):
            scheduler.submit_request(batches[1], 5, client_id=7)
        scheduler.drain()
        scheduler.submit_request(batches[1], 5, client_id=7)

    def test_client_id_never_collides_with_a_fleet_id(self, batches):
        """Every tier labels a request by its client id, else its fleet
        id: a collision is settled at submission, never mid-drain."""
        fleet = make_fleet(1)
        fleet.submit_request(batches[0], 5, client_id=1)
        anonymous = fleet.submit_request(batches[1], 5)
        assert anonymous == 2  # fleet id 1 is an in-flight label
        with pytest.raises(ValueError, match="duplicate in-flight request id"):
            fleet.submit_request(batches[2], 5, client_id=2)
        assert len(fleet.drain()) == 2

    def test_distinct_ids_still_fine(self, batches):
        fleet = make_fleet(1)
        fleet.submit_request(batches[0], 5, client_id="a")
        fleet.submit_request(batches[1], 5, client_id="b")
        fleet.submit_request(batches[2], 5)  # anonymous never collides
        assert len(fleet.drain()) == 3
