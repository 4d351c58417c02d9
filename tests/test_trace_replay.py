"""Trace record/replay determinism across serving tiers (DESIGN.md §10).

Two guarantees pinned here:

* **Zero perturbation** — attaching an event log changes nothing: a
  scenario served with no sink produces byte-identical selections and
  identical completion instants to the observed run.
* **Replay fidelity** — re-executing a recorded trace (workload
  reconstructed from the log itself, stack from the header) yields an
  event-identical log and byte-identical selections, including through
  a mid-stream replica crash with failover, hedging and autoscaling.
"""

import json

import pytest

from repro.core.scheduler import SchedulerConfig
from repro.core.tenancy import TenancyConfig
from repro.core.trace import (
    TRACE_SCHEMA,
    TRACE_VERSION,
    TraceSpec,
    build_server,
    compare_logs,
    parse_trace,
    record_trace,
    render_trace,
    replay_trace,
    requests_from_events,
    run_trace,
)
from repro.harness.traces import SCENARIOS, build_scenario

TIER_SCENARIOS = ("engine", "device", "fleet")
ALL_SCENARIOS = tuple(sorted(SCENARIOS))


@pytest.fixture(scope="module")
def recorded():
    """Scenario name → (spec, requests, run, rendered JSONL)."""
    out = {}
    for name in ALL_SCENARIOS:
        spec, requests = build_scenario(name, quick=True)
        run, text = record_trace(spec, requests)
        out[name] = (spec, requests, run, text)
    return out


class TestZeroPerturbation:
    """No sink attached → byte-identical behaviour (§10)."""

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_unobserved_run_identical(self, recorded, name):
        spec, requests, observed, _ = recorded[name]
        bare = run_trace(spec, requests, observe=False)
        assert len(bare.log) == 0, "observe=False must attach no sink"
        assert bare.selections == observed.selections
        assert [r.finish for r in bare.responses] == [
            r.finish for r in observed.responses
        ]
        assert [r.status for r in bare.responses] == [
            r.status for r in observed.responses
        ]


class TestReplay:
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_replay_event_identical(self, recorded, name):
        _, _, run, text = recorded[name]
        replayed, report = replay_trace(text=text)
        assert report.event_identical, (
            f"first divergence at {report.first_divergence}: "
            f"{report.recorded_line!r} != {report.replayed_line!r}"
        )
        assert replayed.selections == run.selections

    @pytest.mark.parametrize("name", TIER_SCENARIOS)
    def test_workload_roundtrip(self, recorded, name):
        """trace-tier admits carry the complete workload."""
        spec, requests, run, _ = recorded[name]
        rebuilt = requests_from_events(run.log)
        assert rebuilt == list(requests)

    def test_crash_mid_stream_replays(self, recorded):
        """The §9 stack under a mid-stream replica crash is replayable."""
        spec, _, run, text = recorded["resilience"]
        kinds = {e.kind for e in run.log}
        # The crash genuinely fired mid-stream and the fleet recovered.
        assert "fault" in kinds and "failover" in kinds
        faults = [e for e in run.log if e.kind == "fault"]
        assert any(e.data["fault"] == "replica_crash" for e in faults)
        assert all(r.ok for r in run.responses), "failover must recover every request"
        replayed, report = replay_trace(text=text)
        assert report.event_identical
        assert replayed.selections == run.selections

    def test_replay_detects_divergence(self, recorded):
        """A tampered log is reported at its first divergent line."""
        spec, _, run, _ = recorded["device"]
        lines = run.log.lines()
        tampered = list(lines)
        payload = json.loads(tampered[3])
        payload["at"] += 1.0
        tampered[3] = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        report = compare_logs(tampered, lines)
        assert not report.event_identical
        assert report.first_divergence == 3

    def test_truncated_log_reported_as_divergent(self, recorded):
        _, _, run, _ = recorded["engine"]
        lines = run.log.lines()
        report = compare_logs(lines, lines[:-2])
        assert not report.event_identical
        assert report.first_divergence == len(lines) - 2


class TestArtifact:
    def test_header_shape(self, recorded):
        _, _, _, text = recorded["fleet"]
        header = json.loads(text.splitlines()[0])
        assert header["schema"] == TRACE_SCHEMA
        assert header["version"] == TRACE_VERSION
        assert header["spec"]["tier"] == "fleet"

    def test_render_parse_roundtrip(self, recorded):
        spec, _, run, text = recorded["device"]
        parsed_spec, events, lines = parse_trace(text)
        assert parsed_spec == spec
        assert lines == run.log.lines()
        assert [e.line() for e in events] == lines
        assert render_trace(parsed_spec, run.log) == text

    def test_bad_schema_rejected(self):
        with pytest.raises(ValueError, match="not a repro.trace"):
            parse_trace('{"schema":"other","version":1}\n')
        with pytest.raises(ValueError, match="empty trace"):
            parse_trace("")

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown trace tier"):
            TraceSpec(tier="warp")

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"tier": "device", "device": {"polciy": "fusion"}}, "unknown device knobs"),
            ({"tier": "fleet", "device": {"policy": "fusion"}}, "fleet tier would ignore"),
            ({"tier": "engine", "device": {"edf": True}}, "engine tier would ignore"),
            (
                {"tier": "device", "fleet": {"max_batch": 3}, "resilience": {"max_retries": 9}},
                "fleet knobs.*resilience",
            ),
            ({"tier": "device", "autoscaler": {}}, "autoscaler"),
            ({"tier": "engine", "platforms": ("nvidia_5070", "apple_m2")}, "2 platforms"),
            ({"tier": "device", "device": {"policy": "warp"}}, "unknown scheduling policy 'warp'"),
            ({"tier": "device", "device": {"quantum_layers": 0}}, "quantum_layers must be >= 1"),
            ({"tier": "device", "device": {"max_skew": -1.0}}, "max_skew must be >= 0"),
            ({"tier": "device", "device": {"max_skew": 5.0}}, "only to the fusion policy"),
        ],
        ids=[
            "misspelt-device-knob",
            "device-knob-on-fleet",
            "device-knob-on-engine",
            "fleet-and-resilience-on-device",
            "autoscaler-on-device",
            "two-platforms-on-engine",
            "unknown-device-policy",
            "zero-quantum",
            "negative-max-skew",
            "max-skew-off-fusion",
        ],
    )
    def test_knob_the_tier_ignores_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            TraceSpec(**kwargs)

    def test_device_spec_fixes_the_service_scheduler(self):
        """The device tier's ``SchedulerConfig`` is built with the spec,
        on ``build_server``'s defaults, and the service serves with it."""
        assert TraceSpec("device").scheduler == SchedulerConfig(
            policy="round_robin", max_concurrency=1
        )
        assert TraceSpec("fleet").scheduler is None
        spec = TraceSpec("device", device={"policy": "fusion", "max_skew": 0.5, "edf": True})
        assert spec.scheduler == SchedulerConfig(
            policy="fusion", max_concurrency=1, max_skew=0.5, edf=True
        )
        server, _ = build_server(spec)
        assert server.service.scheduler is spec.scheduler

    @pytest.mark.parametrize("tier", ["engine", "device"])
    def test_tenancy_off_the_fleet_tier_rejected(self, tier):
        with pytest.raises(ValueError, match="only to the fleet tier"):
            build_server(TraceSpec(tier=tier), None, TenancyConfig())
