"""Tests for the live telemetry plane (DESIGN.md §14).

Three contracts: subscriber fan-out never perturbs the simulation
(byte-identity, bounded drops), the registry's Prometheus exposition is
grammatically valid and parses back exactly, and every lifecycle number
is one fold — the `/metrics` text and `cli trace summary` reproduce
committed snapshots, and a fleet's fold of its own records equals the
fold of its event stream.
"""

import contextlib
import io
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.api import SelectionRequest, serve_all
from repro.core.config import PrismConfig
from repro.core.events import EVENT_KINDS, EventLog
from repro.core.fleet import FleetConfig, FleetService
from repro.core.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    LifecycleFold,
    MetricsRegistry,
    TelemetryCollector,
    dashboard_views,
    estimate_quantile_from_buckets,
    parse_exposition,
    slo_lookup,
)
from repro.core.tenancy import TenancyConfig, TenantPolicy
from repro.core.trace import (
    TraceSpec,
    build_server,
    render_trace,
    run_trace,
    summarize_events,
)
from repro.data.datasets import get_dataset
from repro.data.workloads import build_batch
from repro.device.platforms import get_profile
from repro.harness.cli import main as cli_main
from repro.harness.runner import shared_model, shared_tokenizer
from repro.harness.traces import build_scenario
from repro.model.zoo import QWEN3_0_6B

#: Prometheus text-format sample line: name{labels} value.
_LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\["n\\])*"'
SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    rf"(\{{{_LABEL}(,{_LABEL})*\}})?"
    r" (\+Inf|-Inf|NaN|-?[0-9.eE+-]+)$"
)
COMMENT_LINE = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$")


SNAPSHOTS = Path(__file__).resolve().parent / "fixtures" / "telemetry"

#: The canonical quick scenarios plus the tenancy + data-plane fleet run.
SNAPSHOT_RUNS = ("engine", "device", "fleet", "deadline", "resilience", "tenancy")

#: The stack the tenancy run serves, as a trace header (the summary
#: reads only the events; tenancy is ``build_server``'s parameter,
#: not a spec field).
TENANCY_SPEC = TraceSpec(
    tier="fleet",
    platforms=("nvidia_5070", "nvidia_5070"),
    fleet={"max_batch": 4, "data_plane": True},
)
TENANCY = TenancyConfig(policies={"greedy": TenantPolicy(rate=0.0, burst=2.0)})


def make_batches():
    tokenizer = shared_tokenizer(QWEN3_0_6B)
    queries = get_dataset("wikipedia").queries(8, 8)
    return [build_batch(q, tokenizer, QWEN3_0_6B.max_seq_len) for q in queries]


@pytest.fixture(scope="module")
def batches():
    return make_batches()


def make_fleet(tenancy=None, event_log=None, **fleet_kwargs):
    return FleetService.homogeneous(
        shared_model(QWEN3_0_6B),
        get_profile("nvidia_5070"),
        2,
        fleet_config=FleetConfig(**fleet_kwargs),
        config=PrismConfig(numerics=False),
        tenancy=tenancy,
        event_log=event_log,
    )


def serve_tenancy_run(batches, event_log=None):
    """Greedy tenants shed at admission, the rest share a data plane."""
    fleet = make_fleet(
        tenancy=TENANCY, event_log=event_log, max_batch=4, data_plane=True
    )
    for index, batch in enumerate(batches):
        tenant = "greedy" if index % 2 else f"t{index % 3}"
        fleet.submit_request(batch, 2, at=index * 0.002, tenant=tenant)
    fleet.drain()
    return fleet


def snapshot_run(name: str) -> tuple[TraceSpec, EventLog, TelemetryCollector]:
    """One snapshot run: its spec, its log and the collector that folded it."""
    log = EventLog()
    subscription = log.subscribe(capacity=65536)
    if name == "tenancy":
        spec = TENANCY_SPEC
        serve_tenancy_run(make_batches(), event_log=log)
        collector = TelemetryCollector(slo_of=slo_lookup(TENANCY))
    else:
        spec, requests = build_scenario(name, quick=True)
        run_trace(spec, requests, log=log)
        collector = TelemetryCollector(tenant_tier=spec.tier)
    collector.consume(subscription)
    assert subscription.dropped == 0
    return spec, log, collector


def trace_summary_text(spec: TraceSpec, log: EventLog, path: Path) -> str:
    """``cli trace summary`` output for a log written as a trace file."""
    path.write_text(render_trace(spec, log))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["trace", "summary", str(path)]) == 0
    return out.getvalue()


class TestSubscription:
    def test_fan_out_delivers_in_order(self):
        log = EventLog()
        sub = log.subscribe()
        for i in range(5):
            log.emit("step", at=float(i), tier="engine", request=i)
        events = sub.poll()
        assert [e.request for e in events] == list(range(5))
        assert sub.delivered == 5 and sub.dropped == 0

    def test_slow_subscriber_drops_with_accounting(self):
        # The §14 guarantee: a subscriber slower than the event rate
        # loses events to a counted drop, never blocks the emitter.
        log = EventLog()
        sub = log.subscribe(capacity=3)
        for i in range(10):
            log.emit("step", at=float(i), tier="engine", request=i)
        assert len(log) == 10  # the log itself never loses events
        assert sub.backlog == 3
        assert sub.delivered == 3
        assert sub.dropped == 7
        # Draining frees capacity for subsequent events.
        assert len(sub.poll()) == 3
        log.emit("step", at=10.0, tier="engine", request=10)
        assert sub.poll()[0].request == 10

    def test_filters_restrict_delivery(self):
        log = EventLog()
        sub = log.subscribe(kinds=("complete",), tiers=("fleet",))
        log.emit("admit", at=0.0, tier="fleet", request=1)
        log.emit("complete", at=0.1, tier="device", request=1)
        log.emit("complete", at=0.2, tier="fleet", request=1)
        events = sub.poll()
        assert [(e.kind, e.tier) for e in events] == [("complete", "fleet")]
        # Filtered-out events count as neither delivered nor dropped.
        assert sub.delivered == 1 and sub.dropped == 0

    def test_unknown_kind_filter_rejected(self):
        log = EventLog()
        with pytest.raises(ValueError):
            log.subscribe(kinds=("nonsense",))

    def test_close_detaches(self):
        log = EventLog()
        sub = log.subscribe()
        assert log.subscriber_count == 1
        sub.close()
        assert log.subscriber_count == 0
        log.emit("step", at=0.0, tier="engine", request=1)
        assert sub.poll() == []

    def test_subscribed_run_is_byte_identical(self):
        # Attaching subscribers (including one too small to keep up)
        # must not change a single emitted byte or selection.
        spec, requests = build_scenario("deadline", quick=True)
        baseline = run_trace(spec, requests)
        log = EventLog()
        log.subscribe(capacity=65536)
        log.subscribe(capacity=2)  # deliberately lossy
        log.subscribe(kinds=("complete",))
        observed = run_trace(spec, requests, log=log)
        assert observed.log.lines() == baseline.log.lines()
        assert observed.selections == baseline.selections


class TestRegistryPrimitives:
    def test_counter_monotone(self):
        counter = Counter("repro_test_total", "t", ("tier",))
        counter.labels("fleet").inc()
        counter.labels("fleet").inc(2.0)
        assert counter.value("fleet") == 3.0
        with pytest.raises(ValueError):
            counter.labels("fleet").inc(-1.0)

    def test_gauge_sets(self):
        gauge = Gauge("repro_test_depth", "t")
        gauge.set(7.0)
        gauge.set(3.0)
        assert gauge.value() == 3.0

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            Counter("0bad", "t")
        with pytest.raises(ValueError):
            Counter("repro_ok_total", "t", ("0bad",))
        with pytest.raises(ValueError):
            Histogram("repro_h", "t", buckets=(2.0, 1.0))

    def test_duplicate_family_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "t")
        with pytest.raises(ValueError):
            registry.counter("repro_x_total", "t")

    def test_histogram_exact_quantile_matches_numpy(self):
        histogram = Histogram("repro_lat", "t", ("tier",))
        values = [0.01, 0.2, 0.35, 0.8, 1.7, 4.0]
        for value in values:
            histogram.labels("fleet").observe(value)
        for p in (50, 95, 99):
            assert histogram.quantile(p, "fleet") == float(np.percentile(values, p))
        assert histogram.quantile(50, "device") is None

    def test_histogram_bucket_interpolation(self):
        cumulative = [(1.0, 50), (2.0, 100), (float("inf"), 100)]
        assert estimate_quantile_from_buckets(cumulative, 100, 50) == pytest.approx(1.0)
        assert estimate_quantile_from_buckets(cumulative, 100, 75) == pytest.approx(1.5)
        assert estimate_quantile_from_buckets([], 0, 50) is None


class TestExposition:
    def _sample_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        counter = registry.counter("repro_demo_total", "Demo counter.", ("kind",))
        counter.labels("admit").inc(3)
        counter.labels('we"ird\nlabel').inc()
        registry.gauge("repro_demo_depth", "Demo gauge.").set(2.5)
        histogram = registry.histogram("repro_demo_seconds", "Demo histogram.", ("tier",))
        for value in (0.01, 0.3, 7.0, 200.0):
            histogram.labels("fleet").observe(value)
        return registry

    def test_every_line_is_grammatical(self):
        for line in self._sample_registry().render().splitlines():
            if not line:
                continue
            pattern = COMMENT_LINE if line.startswith("#") else SAMPLE_LINE
            assert pattern.match(line), f"malformed exposition line: {line!r}"

    def test_help_and_type_precede_samples(self):
        text = self._sample_registry().render()
        seen: set[str] = set()
        for line in text.splitlines():
            if line.startswith("# HELP "):
                seen.add(line.split()[2])
            elif line and not line.startswith("#"):
                name = re.split(r"[{ ]", line, 1)[0]
                base = re.sub(r"_(bucket|sum|count)$", "", name)
                assert base in seen or name in seen

    def test_histogram_buckets_monotone_and_inf_terminated(self):
        text = self._sample_registry().render()
        counts = []
        for line in text.splitlines():
            if line.startswith("repro_demo_seconds_bucket"):
                counts.append(int(line.rsplit(" ", 1)[1]))
        assert counts == sorted(counts), "cumulative buckets must be monotone"
        assert 'le="+Inf"' in text
        # The +Inf bucket equals _count (every observation lands somewhere).
        count = int(
            [l for l in text.splitlines() if l.startswith("repro_demo_seconds_count")][
                0
            ].rsplit(" ", 1)[1]
        )
        assert counts[-1] == count == 4

    def test_parse_round_trip(self):
        registry = self._sample_registry()
        samples = parse_exposition(registry.render())
        assert ({"kind": "admit"}, 3.0) in samples["repro_demo_total"]
        assert ({"kind": 'we"ird\nlabel'}, 1.0) in samples["repro_demo_total"]
        assert samples["repro_demo_depth"] == [({}, 2.5)]
        inf_buckets = [
            value
            for labels, value in samples["repro_demo_seconds_bucket"]
            if labels["le"] == "+Inf"
        ]
        assert inf_buckets == [4.0]

    @settings(max_examples=200, deadline=None)
    @example(["a}b", "a\\n"])  # a brace, and a backslash before an n
    @given(st.lists(st.text(), min_size=1, max_size=4, unique=True))
    def test_parse_inverts_render(self, values):
        # Label values come from traffic files and request JSON, so any
        # string must survive render → parse unchanged.
        registry = MetricsRegistry()
        counter = registry.counter("repro_demo_total", "Demo.", ("tenant", "reason"))
        histogram = registry.histogram("repro_demo_seconds", "Demo.", ("tenant",))
        for index, value in enumerate(values):
            counter.labels(value, value[::-1]).inc(index + 1)
            histogram.labels(value).observe(0.5)
        samples = parse_exposition(registry.render())
        assert sorted(
            (labels["tenant"], labels["reason"], value)
            for labels, value in samples["repro_demo_total"]
        ) == sorted((value, value[::-1], float(i + 1)) for i, value in enumerate(values))
        assert sorted(labels["tenant"] for labels, _ in samples["repro_demo_seconds_count"]) == (
            sorted(values)
        )

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_exposition("this is not { an exposition line\n")

    def test_dashboard_views_from_scrape(self):
        collector = TelemetryCollector()
        log = EventLog()
        sub = log.subscribe()
        log.emit("admit", at=0.0, tier="fleet", request=1, arrival=0.0)
        log.emit("complete", at=0.5, tier="fleet", request=1, latency=0.5)
        log.emit("admit", at=0.0, tier="fleet", request=2, arrival=0.0)
        log.emit("shed", at=0.1, tier="fleet", request=2, detail="rate_limit")
        collector.consume(sub)
        views = dashboard_views(parse_exposition(collector.registry.render()))
        (fleet,) = [v for v in views if v.tier == "fleet"]
        assert fleet.admitted == 2 and fleet.completed == 1 and fleet.shed == 1
        assert fleet.p50_latency is not None and 0.0 < fleet.p50_latency <= 1.0


class TestCollector:
    def test_all_kinds_observed_without_error(self):
        # Every kind in the taxonomy folds cleanly (no KeyError on a
        # payload-less event) and lands in repro_events_total.
        collector = TelemetryCollector()
        log = EventLog()
        sub = log.subscribe()
        for index, kind in enumerate(sorted(EVENT_KINDS)):
            log.emit(kind, at=float(index), tier="fleet", request=index)
        collector.consume(sub)
        assert collector.events_seen == len(EVENT_KINDS)
        assert collector.events_total.total() == len(EVENT_KINDS)

    def test_shed_reason_normalization(self):
        # A bare deadline shed (empty detail) counts as "deadline";
        # tenancy sheds keep their detail strings.
        collector = TelemetryCollector()
        log = EventLog()
        sub = log.subscribe()
        log.emit("shed", at=0.0, tier="fleet", request=1, detail="")
        log.emit("shed", at=0.0, tier="fleet", request=2, detail="rate_limit")
        log.emit("shed", at=0.0, tier="fleet", request=3, detail="queue_limit")
        collector.consume(sub)
        shed = collector.lifecycle.shed
        assert shed.value("fleet", "deadline") == 1
        assert shed.value("fleet", "rate_limit") == 1
        assert shed.value("fleet", "queue_limit") == 1

    def test_device_latency_from_admit_pairing(self):
        # Device/engine completes carry no latency field: the collector
        # pairs them with the admit's arrival on the same replica axis.
        collector = TelemetryCollector()
        log = EventLog()
        sub = log.subscribe()
        log.emit("admit", at=0.0, tier="device", request=1, replica=0, arrival=0.25)
        log.emit("admit", at=0.0, tier="device", request=1, replica=1, arrival=0.5)
        log.emit("complete", at=1.0, tier="device", request=1, replica=0)
        log.emit("complete", at=2.0, tier="device", request=1, replica=1)
        collector.consume(sub)
        assert collector.lifecycle.latency.merged_samples("device") == [0.75, 1.5]

    def test_tenant_tier_validation(self):
        with pytest.raises(ValueError):
            TelemetryCollector(tenant_tier="warehouse")

    def test_burn_rate_tracks_shed_fraction(self):
        tenancy = TenancyConfig(default=TenantPolicy(slo="batch"))
        collector = TelemetryCollector(slo_of=slo_lookup(tenancy))
        log = EventLog()
        sub = log.subscribe()
        for index in range(4):
            log.emit("admit", at=0.0, tier="fleet", request=index, tenant="t")
        log.emit("shed", at=0.1, tier="fleet", request=0, tenant="t", detail="rate_limit")
        collector.consume(sub)
        # 1 shed / 4 submitted over batch's 0.80 bound.
        assert collector.lifecycle.slo_burn_rate.value("batch") == pytest.approx(0.25 / 0.80)


def serve_resilience_run(event_log: EventLog) -> FleetService:
    """The resilience scenario's fleet: a crash, failover, hedges, scaling."""
    spec, requests = build_scenario("resilience", quick=True)
    server, _ = build_server(spec, event_log)
    tokenizer = shared_tokenizer(QWEN3_0_6B)
    serve_all(
        server,
        [
            SelectionRequest(
                batch=build_batch(r.query, tokenizer, QWEN3_0_6B.max_seq_len),
                k=r.k,
                request_id=r.request_id,
                arrival=r.arrival,
                hedge_after_ms=r.hedge_after_ms,
            )
            for r in requests
        ],
    )
    return server.fleet


def serve_repeats_run(batches, event_log: EventLog) -> FleetService:
    """Three queries asked again and again: memo hits and coalescing."""
    fleet = make_fleet(event_log=event_log, max_batch=2, data_plane=True)
    for index in range(12):
        fleet.submit_request(batches[index % 3], 2, at=index * 0.05)
    fleet.drain()
    return fleet


def fleet_view(fold: LifecycleFold) -> tuple:
    """What a fleet's records carry: every fleet-tier and tenant count,
    reason and percentile of a fold — all but the admissions."""
    reasons = {
        labels: child.value
        for family in (fold.shed, fold.failed, fold.tenant_shed)
        for labels, child in family.children.items()
        if family is fold.tenant_shed or labels[0] == "fleet"
    }
    tenants = {key[0] for key in [*fold.tenant_completed.children, *fold.tenant_shed.children]}
    per_tenant = {
        tenant: (
            fold.tenant_completed.value(tenant),
            [fold.tenant_latency.quantile(p, tenant) for p in (50, 95, 99)],
        )
        for tenant in tenants
    }
    return replace(fold.tier("fleet"), admitted=0), reasons, per_tenant


class TestScenarioEquivalence:
    """Every lifecycle view is a view of one fold."""

    @pytest.mark.parametrize("scenario", ["deadline", "resilience"])
    def test_registry_matches_summarize_events(self, scenario):
        _, log, collector = snapshot_run(scenario)
        assert collector.events_seen == len(log)
        dashboard = summarize_events(log.events)
        assert dashboard.tiers, "scenario produced no serving-tier events"
        # Only the throughput column needs more than the fold: the
        # tier's whole observed span.
        assert [replace(tier, throughput_rps=None) for tier in dashboard.tiers] == (
            collector.lifecycle.tiers()
        )
        assert collector.faults.total() == dashboard.faults
        assert collector.failovers.value() == dashboard.failovers
        assert collector.hedges.total() == dashboard.hedges
        assert collector.fetches.total() == dashboard.fetches
        assert collector.fetched_bytes.total() == dashboard.fetched_bytes

    @pytest.mark.parametrize("run", ["tenancy", "resilience", "repeats"])
    def test_record_fold_equals_event_fold(self, run, batches):
        """``fleet.stats()`` folds the fleet's own completion and drop
        records; the collector folds its event stream.  The two agree on
        counts, reasons and p50/p95/p99, per tier and per tenant."""
        log = EventLog()
        subscription = log.subscribe(capacity=65536)
        if run == "tenancy":
            fleet = serve_tenancy_run(batches, event_log=log)
        elif run == "resilience":
            fleet = serve_resilience_run(log)
        else:
            fleet = serve_repeats_run(batches, log)
        collector = TelemetryCollector(slo_of=slo_lookup(TENANCY) if run == "tenancy" else None)
        collector.consume(subscription)
        assert subscription.dropped == 0
        stats = fleet.stats()
        assert fleet_view(stats.lifecycle) == fleet_view(collector.lifecycle)
        live = collector.lifecycle.tier("fleet")
        # Exactly one terminal record per admission.
        assert live.admitted == len(stats.outcomes) + len(fleet.dropped_requests)
        assert (stats.p50_latency, stats.p95_latency, stats.p99_latency) == (
            live.p50_latency,
            live.p95_latency,
            live.p99_latency,
        )
        # Non-lifecycle counters against the fleet's own accounting.
        assert collector.failovers.value() == stats.failovers
        assert collector.hedges.total() == stats.hedges_launched
        assert collector.hedges.value("won") == stats.hedges_won
        assert collector.scale_actions.total() == len(stats.scaling_events)
        plane = stats.data_plane
        for mode, hits in (
            ("memo", plane.memo_hits if plane else 0),
            ("coalesced", plane.coalesced if plane else 0),
            ("overlap", plane.overlap_hits if plane else 0),
        ):
            assert collector.cache_hits.value("fleet", mode) == hits
        if run == "tenancy":
            assert stats.tenants and fleet.dropped_requests  # sheds happened
            assert stats.tenants == collector.lifecycle.tenant_rollups(fleet._admission)
            # Token debt at the last rate-limit shed is observable live.
            assert collector.lifecycle.tenant_token_debt.value("greedy") == pytest.approx(2.0)
        elif run == "resilience":
            assert stats.failovers and stats.hedges_launched and stats.scaling_events
        else:
            assert plane.memo_hits + plane.coalesced > 0


@pytest.mark.parametrize("name", SNAPSHOT_RUNS)
def test_lifecycle_views_match_snapshots(name, tmp_path):
    """The /metrics text and the trace summary of each run reproduce
    their committed snapshots byte for byte.  Regenerate after an
    intentional change with ``PYTHONPATH=src python tests/test_telemetry.py``
    and review the diff."""
    spec, log, collector = snapshot_run(name)
    exposition = (SNAPSHOTS / f"{name}.prom").read_text()
    assert collector.registry.render() == exposition
    summary = (SNAPSHOTS / f"{name}.summary.txt").read_text()
    assert trace_summary_text(spec, log, tmp_path / f"{name}.jsonl") == summary


DEFAULT_BUCKET_COUNT = len(DEFAULT_LATENCY_BUCKETS)


def test_default_buckets_strictly_increasing():
    assert list(DEFAULT_LATENCY_BUCKETS) == sorted(set(DEFAULT_LATENCY_BUCKETS))
    assert DEFAULT_BUCKET_COUNT >= 10


if __name__ == "__main__":
    import tempfile

    SNAPSHOTS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for run_name in SNAPSHOT_RUNS:
            run_spec, run_log, run_collector = snapshot_run(run_name)
            (SNAPSHOTS / f"{run_name}.prom").write_text(run_collector.registry.render())
            (SNAPSHOTS / f"{run_name}.summary.txt").write_text(
                trace_summary_text(run_spec, run_log, Path(scratch) / "run.jsonl")
            )
            print(f"wrote {run_name}.prom and {run_name}.summary.txt")
