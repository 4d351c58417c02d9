"""Stdlib-only live progress server over the event log (DESIGN.md §14).

The §10 event log already records everything the stack does; this
module streams it *while the run is still going*.  A
:class:`LiveTelemetry` folds a bounded
:class:`~repro.core.events.EventSubscription` into the §14 metrics
registry — the same lifecycle fold ``FleetStats`` and ``cli trace
summary`` read, so the live numbers agree with them by construction,
and the one thing left to check is that the fold saw every event
(``collector.events_seen`` against the log, ``subscription.dropped``).
A :class:`LiveServer` (a ``ThreadingHTTPServer`` on a daemon thread —
no third-party dependency) exposes:

``/metrics``
    Prometheus text exposition 0.0.4 of the derived registry.
``/events``
    Server-sent events: each log event as one ``event:``/``data:``
    frame, filterable by ``?kind=``, ``?tier=``, ``?tenant=`` (CSV
    accepted) and bounded by ``?max=N`` for one-shot consumers.
    ``?replay=1`` first streams the already-logged history (then keeps
    following), so a consumer attaching after a fast run still sees
    its events.
``/healthz``
    Liveness JSON: events folded, subscriber drop counters.

Every consumer rides its own bounded subscription, so a slow scraper
drops (with an accounted counter) instead of back-pressuring the
virtual clock — the §14 zero-perturbation guarantee.

:func:`follow_trace_lines` is the file-side twin: incremental tailing
of a growing JSONL trace from the last byte offset (``cli trace tail
--follow``).
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Iterator
from urllib.parse import parse_qs, urlsplit

from ..core.events import Event, EventLog
from ..core.telemetry import MetricsRegistry, TelemetryCollector, slo_lookup

#: Default per-consumer subscription queue depth.
DEFAULT_CAPACITY = 65536


class LiveTelemetry:
    """One log → one collector → one registry, pumped on demand.

    ``pump()`` drains whatever the subscription has buffered into the
    registry (collector and registry share a lock, so a concurrent
    scrape sees a consistent snapshot); ``drain()`` pumps until the
    queue is empty — call it after the run finishes so the registry
    reflects the complete stream before checking that none was missed.
    """

    def __init__(
        self,
        log: EventLog,
        tenancy=None,
        tenant_tier: str = "fleet",
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self.log = log
        self.collector = TelemetryCollector(
            slo_of=slo_lookup(tenancy) if tenancy is not None else None,
            tenant_tier=tenant_tier,
        )
        self.registry: MetricsRegistry = self.collector.registry
        self.subscription = log.subscribe(capacity=capacity)

    def pump(self) -> int:
        """Fold buffered events into the registry; returns how many."""
        return self.collector.consume(self.subscription)

    def drain(self) -> int:
        total = 0
        while True:
            folded = self.pump()
            total += folded
            if folded == 0 and self.subscription.backlog == 0:
                return total

    def close(self) -> None:
        self.subscription.close()


def _sse_filters(query: dict[str, list[str]]) -> dict[str, set[str] | None]:
    def csv(name: str) -> set[str] | None:
        values: set[str] = set()
        for chunk in query.get(name, []):
            values.update(v for v in chunk.split(",") if v)
        return values or None

    return {"kind": csv("kind"), "tier": csv("tier"), "tenant": csv("tenant")}


def sse_frame(event: Event) -> bytes:
    """One SSE frame: ``event:`` names the kind, ``data:`` carries the
    canonical event line (the same JSON identity replay checks)."""
    return f"event: {event.kind}\ndata: {event.line()}\n\n".encode()


class LiveServer:
    """Background HTTP server publishing one run's live telemetry.

    Stdlib only (``http.server``); binds ``host:port`` (port 0 picks an
    ephemeral port — read :attr:`port` after :meth:`start`).  The
    handler threads are daemons: an abandoned scrape can never hold the
    process open.
    """

    def __init__(
        self,
        log: EventLog,
        tenancy=None,
        tenant_tier: str = "fleet",
        host: str = "127.0.0.1",
        port: int = 0,
        poll_s: float = 0.05,
    ) -> None:
        self.telemetry = LiveTelemetry(log, tenancy=tenancy, tenant_tier=tenant_tier)
        self.log = log
        self.poll_s = poll_s
        self._closing = threading.Event()
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *args) -> None:  # quiet: stdout is the dashboard's
                pass

            def _respond(self, body: bytes, content_type: str, status: int = 200) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                url = urlsplit(self.path)
                if url.path == "/metrics":
                    server.telemetry.pump()
                    body = server.telemetry.registry.render().encode()
                    self._respond(body, "text/plain; version=0.0.4; charset=utf-8")
                elif url.path == "/healthz":
                    subscription = server.telemetry.subscription
                    body = (
                        json.dumps(
                            {
                                "status": "ok",
                                "events": server.telemetry.collector.events_seen,
                                "backlog": subscription.backlog,
                                "delivered": subscription.delivered,
                                "dropped": subscription.dropped,
                                "subscribers": server.log.subscriber_count,
                            }
                        ).encode()
                        + b"\n"
                    )
                    self._respond(body, "application/json")
                elif url.path == "/events":
                    self._stream_events(parse_qs(url.query))
                else:
                    self._respond(b"not found\n", "text/plain", status=404)

            def _stream_events(self, query: dict[str, list[str]]) -> None:
                filters = _sse_filters(query)
                limit = None
                if "max" in query:
                    limit = max(1, int(query["max"][0]))
                try:
                    subscription = server.log.subscribe(
                        capacity=DEFAULT_CAPACITY,
                        kinds=filters["kind"],
                        tiers=filters["tier"],
                        tenants=filters["tenant"],
                    )
                except ValueError as error:  # unknown kind/tier filter
                    self._respond(f"{error}\n".encode(), "text/plain", status=400)
                    return
                self.send_response(200)
                self.send_header("Content-Type", "text/event-stream")
                self.send_header("Cache-Control", "no-cache")
                # SSE has no Content-Length: the stream ends when the
                # connection closes, so opt out of HTTP/1.1 keep-alive
                # on both sides (a ?max= consumer otherwise deadlocks
                # waiting for an EOF the server never sends).
                self.send_header("Connection", "close")
                self.close_connection = True
                self.end_headers()
                sent = 0
                idle_beats = 0
                replayed_through = -1
                try:
                    if query.get("replay", ["0"])[0] not in ("0", ""):
                        # History first: the subscription attached above,
                        # so skipping queued events at or below the
                        # snapshot's last seq avoids double delivery.
                        history = list(server.log)
                        if history:
                            replayed_through = history[-1].seq
                        for event in history:
                            if not subscription.matches(event):
                                continue
                            self.wfile.write(sse_frame(event))
                            sent += 1
                            if limit is not None and sent >= limit:
                                self.wfile.flush()
                                return
                        self.wfile.flush()
                    while not server._closing.is_set():
                        events = [
                            event
                            for event in subscription.poll()
                            if event.seq > replayed_through
                        ]
                        if not events:
                            idle_beats += 1
                            if idle_beats >= 20:
                                # Comment heartbeat keeps proxies from
                                # timing the stream out while idle.
                                self.wfile.write(b": keep-alive\n\n")
                                self.wfile.flush()
                                idle_beats = 0
                            time.sleep(server.poll_s)
                            continue
                        idle_beats = 0
                        for event in events:
                            self.wfile.write(sse_frame(event))
                            sent += 1
                            if limit is not None and sent >= limit:
                                self.wfile.flush()
                                return
                        self.wfile.flush()
                except (BrokenPipeError, ConnectionResetError):
                    pass  # consumer went away; the subscription closes below
                finally:
                    subscription.close()

        self.http = ThreadingHTTPServer((host, port), Handler)
        self.http.daemon_threads = True
        self._thread = threading.Thread(
            target=self.http.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-live-server",
            daemon=True,
        )

    @property
    def host(self) -> str:
        return self.http.server_address[0]

    @property
    def port(self) -> int:
        return self.http.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "LiveServer":
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving and detach every log subscription."""
        self._closing.set()
        self.http.shutdown()
        self.http.server_close()
        self.telemetry.close()


def follow_trace_lines(
    path: str | Path,
    poll_s: float = 0.2,
    idle_timeout_s: float | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> Iterator[str]:
    """Tail a growing JSONL trace incrementally (``trace tail --follow``).

    Yields complete lines as they are appended, resuming from the last
    byte offset on every poll instead of re-reading the file — O(new
    bytes), not O(file).  A partially-written line (no newline yet)
    stays buffered until its terminator lands, so a reader never sees
    half a JSON object.  Stops after ``idle_timeout_s`` with no growth
    (``None`` follows forever); a missing file counts as idle until it
    appears.
    """
    path = Path(path)
    offset = 0
    pending = ""
    idle = 0.0
    while True:
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            size = offset
        if size > offset:
            idle = 0.0
            with path.open("r") as handle:
                handle.seek(offset)
                chunk = handle.read()
                offset = handle.tell()
            pending += chunk
            while "\n" in pending:
                line, pending = pending.split("\n", 1)
                if line.strip():
                    yield line
        else:
            if size < offset:
                # Truncated / rotated underneath us: start over.
                offset = 0
                pending = ""
                continue
            if idle_timeout_s is not None and idle >= idle_timeout_s:
                return
            idle += poll_s
            sleep(poll_s)


__all__ = [
    "DEFAULT_CAPACITY",
    "LiveServer",
    "LiveTelemetry",
    "follow_trace_lines",
    "sse_frame",
]
