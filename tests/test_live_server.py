"""Tests for the live progress server + timeline export (DESIGN.md §14).

Covers the HTTP surfaces (`/metrics` exposition, `/events` SSE framing
and filters, `/healthz`), the incremental trace follower behind
``cli trace tail --follow``, Chrome trace-event timeline export, and
the ``serve --live-port`` / ``trace timeline`` / ``live`` CLI wiring.
"""

import json
import re
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.events import EventLog
from repro.core.trace import read_trace, timeline_events, write_timeline
from repro.harness.cli import main
from repro.harness.live import LiveServer, LiveTelemetry, follow_trace_lines, sse_frame


def _get(url: str, timeout: float = 10.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.headers, response.read().decode()


@pytest.fixture()
def server():
    log = EventLog()
    live = LiveServer(log)  # port 0: ephemeral
    live.start()
    yield log, live
    live.close()


def _emit_lifecycle(log: EventLog) -> None:
    log.emit("admit", at=0.0, tier="fleet", request="q0", tenant="acme", arrival=0.0)
    log.emit("dispatch", at=0.1, tier="fleet", request="q0", tenant="acme")
    log.emit("complete", at=0.5, tier="fleet", request="q0", tenant="acme", latency=0.5)
    log.emit("admit", at=0.0, tier="fleet", request="q1", tenant="beta", arrival=0.0)
    log.emit("shed", at=0.2, tier="fleet", request="q1", tenant="beta", detail="rate_limit")


class TestEndpoints:
    def test_metrics_scrape_is_prometheus_text(self, server):
        log, live = server
        _emit_lifecycle(log)
        status, headers, body = _get(live.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "repro_requests_completed_total" in body
        assert 'repro_requests_shed_total{tier="fleet",reason="rate_limit"} 1' in body
        # HELP/TYPE comments present for every family with samples.
        assert "# TYPE repro_requests_completed_total counter" in body

    def test_healthz_reports_liveness(self, server):
        log, live = server
        _emit_lifecycle(log)
        _get(live.url + "/metrics")  # pump
        status, _, body = _get(live.url + "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["events"] == len(log)
        assert payload["dropped"] == 0

    def test_unknown_path_404(self, server):
        _, live = server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(live.url + "/nope")
        excinfo.value.close()  # the error holds the response socket
        assert excinfo.value.code == 404

    def test_sse_framing_and_live_follow(self, server):
        log, live = server

        def emit_soon():
            time.sleep(0.2)
            _emit_lifecycle(log)

        threading.Thread(target=emit_soon, daemon=True).start()
        status, headers, body = _get(live.url + "/events?max=3")
        assert status == 200
        assert headers["Content-Type"].startswith("text/event-stream")
        frames = [frame for frame in body.split("\n\n") if frame.strip()]
        assert len(frames) == 3
        for frame in frames:
            lines = frame.splitlines()
            assert lines[0].startswith("event: ")
            assert lines[1].startswith("data: ")
            payload = json.loads(lines[1][len("data: ") :])
            assert lines[0] == f"event: {payload['kind']}"

    def test_sse_filters_and_replay(self, server):
        log, live = server
        _emit_lifecycle(log)
        # replay=1 streams history, so a post-run consumer still sees
        # events; the tenant filter drops beta's lifecycle entirely.
        _, _, body = _get(live.url + "/events?max=2&replay=1&tenant=acme&kind=admit,complete")
        payloads = [
            json.loads(line[len("data: ") :])
            for line in body.splitlines()
            if line.startswith("data: ")
        ]
        assert [p["kind"] for p in payloads] == ["admit", "complete"]
        assert all(p["tenant"] == "acme" for p in payloads)

    def test_sse_bad_filter_rejected(self, server):
        _, live = server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(live.url + "/events?kind=bogus&max=1")
        excinfo.value.close()
        assert excinfo.value.code == 400

    def test_sse_frame_uses_canonical_line(self):
        log = EventLog()
        log.emit("admit", at=0.0, tier="fleet", request="q0", arrival=0.0)
        event = log.events[0]
        assert sse_frame(event) == f"event: admit\ndata: {event.line()}\n\n".encode()

    def test_consumers_never_perturb_the_log(self, server):
        # The server itself rides subscriptions: emitting with scrapers
        # attached leaves the log byte-identical to an unobserved one.
        log, live = server
        _get(live.url + "/metrics")
        _emit_lifecycle(log)
        _get(live.url + "/metrics")
        bare = EventLog()
        _emit_lifecycle(bare)
        assert log.lines() == bare.lines()


class TestLiveTelemetry:
    def test_drain_folds_everything(self):
        log = EventLog()
        telemetry = LiveTelemetry(log)
        _emit_lifecycle(log)
        folded = telemetry.drain()
        assert folded == len(log)
        assert telemetry.collector.lifecycle.completed.value("fleet") == 1
        telemetry.close()
        assert log.subscriber_count == 0


class TestFollowTraceLines:
    def test_incremental_append_yields_new_lines(self, tmp_path):
        path = tmp_path / "grow.jsonl"
        path.write_text("one\ntwo\n")
        follower = follow_trace_lines(path, poll_s=0.01, idle_timeout_s=0.05)
        assert next(follower) == "one"
        assert next(follower) == "two"
        with path.open("a") as handle:
            handle.write("three\n")
        assert next(follower) == "three"

    def test_partial_line_buffered_until_newline(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        path.write_text('{"half":')
        follower = follow_trace_lines(path, poll_s=0.01, idle_timeout_s=0.05)
        with path.open("a") as handle:
            handle.write(' true}\n')
        assert next(follower) == '{"half": true}'

    def test_idle_timeout_terminates(self, tmp_path):
        path = tmp_path / "static.jsonl"
        path.write_text("only\n")
        lines = list(follow_trace_lines(path, poll_s=0.01, idle_timeout_s=0.05))
        assert lines == ["only"]

    def test_truncation_restarts_from_zero(self, tmp_path):
        path = tmp_path / "rotate.jsonl"
        path.write_text("aaaa\nbbbb\n")
        follower = follow_trace_lines(path, poll_s=0.01, idle_timeout_s=0.2)
        assert next(follower) == "aaaa"
        assert next(follower) == "bbbb"
        path.write_text("cc\n")  # rotated: shorter than the old offset
        assert next(follower) == "cc"


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    out = tmp_path_factory.mktemp("live") / "deadline.jsonl"
    assert main(["trace", "record", str(out), "--scenario", "deadline", "--quick"]) == 0
    return out


class TestTimeline:
    def test_spans_nest_and_load_as_chrome_trace(self, recorded, tmp_path):
        out_path = recorded
        _, events, _ = read_trace(out_path)
        rendered = timeline_events(events)
        spans = [e for e in rendered if e["ph"] == "X"]
        metas = [e for e in rendered if e["ph"] == "M"]
        assert spans and metas
        request_spans = [s for s in spans if s["name"].startswith("request ")]
        # One whole-lifetime span per terminal request.
        terminals = [
            e for e in events
            if e.tier != "trace" and e.kind in ("complete", "shed", "cancel", "fail")
        ]
        assert len(request_spans) == len(terminals)
        for span in spans:
            assert span["dur"] >= 0.0
            assert span["ts"] >= 0.0
        # Child spans stay inside their request's envelope.
        by_tid = {}
        for span in request_spans:
            by_tid[(span["pid"], span["tid"])] = span
        for span in spans:
            parent = by_tid.get((span["pid"], span["tid"]))
            if parent is None or span is parent:
                continue
            assert span["ts"] >= parent["ts"] - 1e-6
            assert span["ts"] + span["dur"] <= parent["ts"] + parent["dur"] + 1e-6

    def test_write_timeline_is_loadable_json(self, recorded, tmp_path):
        out_path = recorded
        _, events, _ = read_trace(out_path)
        json_path = tmp_path / "timeline.json"
        count = write_timeline(events, json_path)
        payload = json.loads(json_path.read_text())
        assert set(payload) == {"traceEvents", "displayTimeUnit"}
        assert len(payload["traceEvents"]) == count > 0

    def test_status_and_tenant_ride_span_args(self):
        log = EventLog()
        log.emit("admit", at=0.0, tier="fleet", request="q", tenant="t", arrival=0.0)
        log.emit("shed", at=0.3, tier="fleet", request="q", tenant="t", detail="rate_limit")
        (span,) = [
            e
            for e in timeline_events(log.events)
            if e["ph"] == "X" and e["name"].startswith("request ")
        ]
        assert span["args"]["status"] == "shed"
        assert span["args"]["detail"] == "rate_limit"
        assert span["args"]["tenant"] == "t"


class TestCli:
    def test_serve_live_port_scrapes_and_holds_equivalence(self, tmp_path, capsys):
        requests = tmp_path / "requests.json"
        requests.write_text(
            json.dumps(
                [
                    {"id": "q0", "k": 2, "num_candidates": 6},
                    {"id": "q1", "k": 2, "num_candidates": 6, "arrival": 0.05},
                ]
            )
        )
        timeline = tmp_path / "timeline.json"
        code = main(
            [
                "serve",
                str(requests),
                "--tier",
                "fleet",
                "--live-port",
                "0",
                "--timeline",
                str(timeline),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        # Exit code 2 would mean the live fold missed events.
        assert re.search(r"live telemetry: (\d+) of \1 events folded", out), out
        match = re.search(r"live telemetry at (http://[\d.:]+)", out)
        assert match, out
        assert timeline.exists()
        assert json.loads(timeline.read_text())["traceEvents"]

    def test_serve_live_port_exits_2_when_the_fold_misses_events(
        self, tmp_path, capsys, monkeypatch
    ):
        # A subscription too small for the run drops events: the live
        # fold is then incomplete, and serve says so with exit code 2.
        import repro.harness.live as live_module

        class LossyTelemetry(live_module.LiveTelemetry):
            def __init__(self, log, tenancy=None, tenant_tier="fleet"):
                super().__init__(log, tenancy=tenancy, tenant_tier=tenant_tier, capacity=2)

        monkeypatch.setattr(live_module, "LiveTelemetry", LossyTelemetry)
        requests = tmp_path / "requests.json"
        requests.write_text(json.dumps([{"id": "q0", "k": 2, "num_candidates": 6}]))
        code = main(["serve", str(requests), "--tier", "fleet", "--live-port", "0"])
        out = capsys.readouterr().out
        assert code == 2
        assert "live telemetry MISSED events" in out

    def test_trace_timeline_subcommand(self, recorded, tmp_path, capsys):
        out_path = recorded
        json_path = tmp_path / "t.json"
        assert main(["trace", "timeline", str(out_path), "--out", str(json_path)]) == 0
        assert "Perfetto" in capsys.readouterr().out
        assert json.loads(json_path.read_text())["traceEvents"]

    def test_trace_tail_follow_streams_then_times_out(self, recorded, capsys):
        out_path = recorded
        code = main(
            [
                "trace",
                "tail",
                str(out_path),
                "--follow",
                "--idle-timeout",
                "0.2",
                "--poll",
                "0.05",
                "--kind",
                "complete",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = [line for line in out.splitlines() if "/complete" in line]
        assert lines, out
        assert "events followed" in out

    def test_live_dashboard_scrapes_running_server(self, capsys):
        log = EventLog()
        live = LiveServer(log).start()
        try:
            _emit_lifecycle(log)
            assert main(["live", live.url]) == 0
        finally:
            live.close()
        out = capsys.readouterr().out
        assert "live telemetry" in out
        assert "fleet" in out
