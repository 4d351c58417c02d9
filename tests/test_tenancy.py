"""Tests for tenant-aware fair admission (DESIGN.md §13)."""

import numpy as np
import pytest

from repro.core.config import PrismConfig
from repro.core.events import EventLog
from repro.core.fleet import FleetConfig, FleetService
from repro.core.tenancy import (
    SLO_CLASSES,
    FairAdmission,
    SLOClass,
    TenancyConfig,
    TenantPolicy,
    TokenBucket,
    selection_requests_from_trace,
)
from repro.data import workloads
from repro.data.datasets import get_dataset
from repro.data.traffic import TrafficConfig, generate_traffic
from repro.data.workloads import build_batch
from repro.device.platforms import get_profile
from repro.harness.runner import shared_model, shared_tokenizer
from repro.model.zoo import QWEN3_0_6B


@pytest.fixture(scope="module")
def batches():
    tokenizer = shared_tokenizer(QWEN3_0_6B)
    queries = get_dataset("wikipedia").queries(8, 8)
    return [build_batch(q, tokenizer, QWEN3_0_6B.max_seq_len) for q in queries]


def make_fleet(tenancy, num_replicas=1, event_log=None, **fleet_kwargs):
    return FleetService.homogeneous(
        shared_model(QWEN3_0_6B),
        get_profile("nvidia_5070"),
        num_replicas,
        fleet_config=FleetConfig(**fleet_kwargs),
        config=PrismConfig(numerics=False),
        tenancy=tenancy,
        event_log=event_log,
    )


class TestValidation:
    def test_slo_classes_closed(self):
        assert set(SLO_CLASSES) == {"interactive", "batch", "best_effort"}

    def test_bad_shed_bound(self):
        with pytest.raises(ValueError):
            SLOClass(name="x", priority=0, deadline_s=None, shed_bound=1.5, weight=1.0)

    def test_bad_class_weight(self):
        with pytest.raises(ValueError):
            SLOClass(name="x", priority=0, deadline_s=None, shed_bound=0.5, weight=0.0)

    def test_unknown_slo(self):
        with pytest.raises(ValueError):
            TenantPolicy(slo="platinum")

    def test_burst_below_one_rejected(self):
        # burst >= 1 underpins the starvation-freedom guarantee: the
        # first request must always find a token.
        with pytest.raises(ValueError):
            TenantPolicy(burst=0.5)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            TenantPolicy(rate=-1.0)

    def test_bad_queue_cap(self):
        with pytest.raises(ValueError):
            TenancyConfig(max_tenant_queue=0)

    def test_policy_fallback(self):
        config = TenancyConfig(
            policies={"a": TenantPolicy(slo="interactive")},
            default=TenantPolicy(slo="batch"),
        )
        assert config.policy_for("a").slo == "interactive"
        assert config.policy_for("stranger").slo == "batch"
        assert config.policy_for(None).slo == "batch"


class TestTokenBucket:
    def test_starts_full_and_burst_bounds_admissions(self):
        bucket = TokenBucket(rate=2.0, burst=3.0)
        # A burst of simultaneous requests: only `burst` admitted.
        admitted = sum(bucket.try_take(0.0) for _ in range(10))
        assert admitted == 3

    def test_admissions_over_window_bounded_by_rate_plus_burst(self):
        rate, burst, horizon = 5.0, 2.0, 4.0
        bucket = TokenBucket(rate=rate, burst=burst)
        rng = np.random.default_rng(0)
        arrivals = np.sort(rng.uniform(0.0, horizon, size=200))
        admitted = sum(bucket.try_take(float(t)) for t in arrivals)
        assert admitted <= burst + rate * horizon + 1e-9

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=2.0)
        assert bucket.try_take(0.0)
        bucket.refill(10.0)
        assert bucket.tokens == pytest.approx(2.0)

    def test_unlimited_rate_never_denies(self):
        bucket = TokenBucket(rate=None, burst=1.0)
        assert all(bucket.try_take(0.0) for _ in range(50))
        assert bucket.debt == 0.0

    def test_debt_tracks_spent_burst(self):
        bucket = TokenBucket(rate=1.0, burst=4.0)
        bucket.try_take(0.0)
        bucket.try_take(0.0)
        assert bucket.debt == pytest.approx(2.0)


class _Queued:
    """Minimal stand-in for a queued FleetRequest."""

    def __init__(self, request_id, tenant):
        self.request_id = request_id
        self.tenant = tenant


class TestFairQueueing:
    def _drain_order(self, weights, rounds=120):
        """Admit `rounds` requests per tenant, flush one at a time."""
        config = TenancyConfig(
            policies={
                name: TenantPolicy(slo="best_effort", weight=weight)
                for name, weight in weights.items()
            }
        )
        admission = FairAdmission(config)
        queue = []
        rid = 0
        for _ in range(rounds):
            for name in weights:
                assert admission.admit(name, rid, 0.0) is None
                queue.append(_Queued(rid, name))
                rid += 1
        order = []
        while queue:
            queue.sort(key=admission.order_key)
            head, queue = queue[0], queue[1:]
            admission.on_flush([head])
            order.append(head.tenant)
        return order

    def test_weighted_share_convergence(self):
        # Under sustained backlog, each tenant's share of the first K
        # dispatches converges to its weight share (SFQ property).
        weights = {"heavy": 3.0, "light": 1.0}
        order = self._drain_order(weights)
        window = order[:80]
        heavy_share = window.count("heavy") / len(window)
        assert heavy_share == pytest.approx(0.75, abs=0.05)

    def test_equal_weights_interleave(self):
        order = self._drain_order({"a": 1.0, "b": 1.0})
        window = order[:40]
        assert abs(window.count("a") - window.count("b")) <= 1

    def test_work_conservation(self):
        # SFQ never idles while backlog exists: draining the queue
        # dispatches every admitted request exactly once.
        order = self._drain_order({"a": 5.0, "b": 1.0}, rounds=30)
        assert len(order) == 60
        assert order.count("a") == 30 and order.count("b") == 30

    def test_starvation_free_under_heavy_neighbour(self):
        # Even a 100:1 weight disparity serves the light tenant early:
        # its first request's start tag is 0, the global minimum.
        order = self._drain_order({"heavy": 100.0, "light": 1.0}, rounds=50)
        assert "light" in order[:2]

    def test_queue_cap_sheds_with_detail(self):
        config = TenancyConfig(max_tenant_queue=2)
        admission = FairAdmission(config)
        assert admission.admit("t", 0, 0.0) is None
        assert admission.admit("t", 1, 0.0) is None
        assert admission.admit("t", 2, 0.0) == "queue_limit"
        assert admission.shed_counts["queue_limit"] == 1

    def test_rate_limit_detail(self):
        config = TenancyConfig(default=TenantPolicy(rate=0.0, burst=1.0))
        admission = FairAdmission(config)
        assert admission.admit("t", 0, 0.0) is None
        assert admission.admit("t", 1, 0.0) == "rate_limit"
        assert admission.shed_counts["rate_limit"] == 1

    def test_note_queued_keeps_original_tag(self):
        admission = FairAdmission(TenancyConfig())
        admission.admit("t", 0, 0.0)
        tag = admission.order_key(_Queued(0, "t"))
        admission.note_queued("t", 0)  # retry re-enters the queue
        assert admission.order_key(_Queued(0, "t")) == tag


class TestFleetIntegration:
    def test_work_conserving_all_admitted_complete(self, batches):
        # Unlimited buckets: every submitted request is admitted and
        # the drain completes all of them — admission never loses work.
        fleet = make_fleet(TenancyConfig(), max_batch=4)
        for index, batch in enumerate(batches):
            fleet.submit_request(batch, 2, at=index * 0.005, tenant=f"t{index % 3}")
        outcomes = fleet.drain()
        assert len(outcomes) == len(batches)
        stats = fleet.stats()
        assert sum(t.completed for t in stats.tenants.values()) == len(batches)
        assert not stats.starved_tenants
        assert not stats.shed_bound_violations

    def test_rate_limited_tenant_sheds_and_stats_roll_up(self, batches):
        tenancy = TenancyConfig(
            policies={"greedy": TenantPolicy(rate=0.0, burst=1.0)},
        )
        fleet = make_fleet(tenancy, max_batch=4)
        for index, batch in enumerate(batches[:6]):
            fleet.submit_request(batch, 2, at=index * 0.001, tenant="greedy")
        outcomes = fleet.drain()
        assert len(outcomes) == 1  # the burst token
        stats = fleet.stats()
        greedy = stats.tenants["greedy"]
        assert greedy.submitted == 6
        assert greedy.completed == 1
        assert greedy.shed == 5
        assert greedy.shed_rate == pytest.approx(5 / 6)
        # Completed once: never starved, and its drop records say why.
        assert not stats.starved_tenants
        assert all(d.reason == "shed" for d in fleet.dropped_requests)
        assert all(d.detail == "rate_limit" for d in fleet.dropped_requests)
        assert all(d.tenant == "greedy" for d in fleet.dropped_requests)

    def test_admit_and_shed_events_carry_tenant_ids(self, batches):
        log = EventLog()
        tenancy = TenancyConfig(
            policies={"capped": TenantPolicy(rate=0.0, burst=1.0)},
        )
        fleet = make_fleet(tenancy, event_log=log, max_batch=2)
        fleet.submit_request(batches[0], 2, at=0.0, tenant="capped")
        fleet.submit_request(batches[1], 2, at=0.001, tenant="capped")
        fleet.submit_request(batches[2], 2, at=0.002, tenant="free")
        fleet.drain()
        admits = [e for e in log if e.kind == "admit"]
        sheds = [e for e in log if e.kind == "shed"]
        assert {e.tenant for e in admits} == {"capped", "free"}
        assert [e.tenant for e in sheds] == ["capped"]
        completes = [e for e in log if e.kind == "complete"]
        assert {e.tenant for e in completes} == {"capped", "free"}

    def test_tenants_that_print_alike_roll_up_apart(self, batches):
        # None and "" (and 1 and "1") share one exposition label, but
        # admission gives each its own bucket: one token apiece here.
        from repro.core.telemetry import TelemetryCollector

        log = EventLog()
        subscription = log.subscribe(capacity=65536)
        fleet = make_fleet(
            TenancyConfig(default=TenantPolicy(rate=0.0, burst=1.0)),
            event_log=log,
            max_batch=2,
        )
        tenants = [None, None, None, "", "", 1, "1", "1"]
        for index, (batch, tenant) in enumerate(zip(batches, tenants)):
            fleet.submit_request(batch, 2, at=index * 0.001, tenant=tenant)
        outcomes = fleet.drain()
        stats = fleet.stats()
        assert set(stats.tenants) == {None, "", 1, "1"}
        for tenant in stats.tenants:
            rollup = stats.tenants[tenant]
            assert rollup.submitted == tenants.count(tenant)
            assert rollup.completed == 1
            assert rollup.shed == tenants.count(tenant) - 1
            (own,) = [o.latency for o in outcomes if o.tenant == tenant]
            assert rollup.p50_latency == rollup.p99_latency == own
        # The fold of the event stream rolls up the same four tenants.
        collector = TelemetryCollector()
        collector.consume(subscription)
        assert collector.lifecycle.tenant_rollups(fleet._admission) == stats.tenants

    def test_zero_completion_tenant_renders_dash(self, batches):
        from repro.harness.reporting import ms

        tenancy = TenancyConfig(
            policies={"starved": TenantPolicy(rate=0.0, burst=1.0)},
            max_tenant_queue=1,
        )
        fleet = make_fleet(tenancy, max_batch=2)
        # Both requests land before the drain; the queue cap sheds the
        # second, the bucket admits exactly one.
        fleet.submit_request(batches[0], 2, at=0.0, tenant="quiet")
        fleet.drain()
        stats = fleet.stats()
        # A tenant known to the admission plane but with nothing
        # completed must render "-", not crash (the PR 6/8 convention).
        quiet = stats.tenants["quiet"]
        assert quiet.p50_latency is not None
        ghost = fleet._admission.state("ghost")  # registered, no traffic
        stats = fleet.stats()
        assert stats.tenants["ghost"].p50_latency is None
        assert stats.tenants["ghost"].p99_latency is None
        assert ms(stats.tenants["ghost"].p50_latency) == "-"
        assert stats.tenants["ghost"].shed_rate == 0.0

    def test_tenancy_disabled_is_structurally_off(self, batches):
        fleet = make_fleet(None)
        assert fleet._admission is None
        fleet.submit_request(batches[0], 2)
        outcomes = fleet.drain()
        assert outcomes[0].tenant is None
        assert fleet.stats().tenants == {}


class TestRequestApiThreading:
    def test_selection_request_tenant_flows_to_response(self, batches):
        from repro.core.api import FleetServer, SelectionRequest, serve_all

        fleet = make_fleet(TenancyConfig())
        responses = serve_all(
            FleetServer(fleet),
            [
                SelectionRequest(batch=batches[0], k=2, request_id="a", tenant="acme"),
                SelectionRequest(batch=batches[1], k=2, request_id="b"),
            ],
        )
        by_id = {r.request_id: r for r in responses}
        assert by_id["a"].tenant == "acme"
        assert by_id["b"].tenant is None

    def test_device_tier_events_carry_tenant(self, batches):
        """The device tier labels its events and drops with the tenant:
        the tenant fold behind ``cli serve --tier device`` sees every
        completion under its tenant, not under an empty label."""
        from repro.core.api import DeviceServer, SelectionRequest, serve_all
        from repro.core.scheduler import SchedulerConfig
        from repro.core.service import SemanticSelectionService
        from repro.core.telemetry import TelemetryCollector

        log = EventLog()
        subscription = log.subscribe()
        service = SemanticSelectionService(
            shared_model(QWEN3_0_6B),
            get_profile("nvidia_5070"),
            config=PrismConfig(numerics=False),
            scheduler=SchedulerConfig(policy="round_robin", max_concurrency=2),
            event_log=log,
        )
        requests = [
            SelectionRequest(
                batch=batches[i], k=2, request_id=f"d{i}", tenant="ab"[i % 2]
            )
            for i in range(4)
        ]
        requests.append(
            SelectionRequest(batch=batches[4], k=2, request_id="late", tenant="c", deadline=1e-6)
        )
        serve_all(DeviceServer(service), requests)
        collector = TelemetryCollector(tenant_tier="device")
        collector.consume(subscription)
        completed = collector.lifecycle.tenant_completed
        assert completed.value("a") == 2 and completed.value("b") == 2
        assert completed.total() == 4
        assert {e.tenant for e in log if e.tier == "device"} == {"a", "b", "c"}
        (drop,) = service.last_scheduler.dropped
        assert drop.reason == "shed" and drop.tenant == "c"


class TestTracePacking:
    def test_each_distinct_head_is_packed_once(self, monkeypatch):
        """A traffic trace's repeats and truncations share one build per head."""
        trace = generate_traffic(
            TrafficConfig(
                num_tenants=40,
                duration_s=2.0,
                rate_rps=60.0,
                seed=3,
                num_base_queries=16,
                max_candidates=8,
            )
        )
        build = workloads.build_batch
        built = []

        def counting(query, tokenizer, max_len):
            built.append(query)
            return build(query, tokenizer, max_len)

        monkeypatch.setattr(workloads, "build_batch", counting)
        tokenizer = shared_tokenizer(QWEN3_0_6B)
        max_len = QWEN3_0_6B.max_seq_len
        requests = selection_requests_from_trace(trace, tokenizer, max_len)
        queries = [record.query for record in trace.requests]

        # A head: a candidate tuple under its (seed, query_length) that
        # no other tuple there extends.
        groups: dict[tuple[int, int], set] = {}
        for query in queries:
            groups.setdefault((query.seed, query.query_length), set()).add(query.candidates)
        heads = sum(
            1
            for tuples in groups.values()
            for short in tuples
            if not any(len(long) > len(short) and long[: len(short)] == short for long in tuples)
        )
        assert len(built) == heads < len(requests)
        for request, query in zip(requests, queries):
            want = build(query, tokenizer, max_len)
            for field in ("tokens", "lengths", "relevance", "uids"):
                got, expected = getattr(request.batch, field), getattr(want, field)
                assert got.dtype == expected.dtype and got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()
