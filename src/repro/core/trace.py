"""Trace record/replay over the typed event log (DESIGN.md §10).

A *trace* is one JSONL artifact: a schema header describing the serving
stack (tier, model, platforms, scheduler/fleet/resilience knobs, the
fault plan) followed by one canonical line per
:class:`~repro.core.events.Event`.  The workload itself rides inside
the log: every request is announced by a ``trace``-tier ``admit`` event
carrying its full intent — the compact
:class:`~repro.data.workloads.RerankQuery` spec plus arrival, deadline,
priority, cancellation and hedge intent — so *replay* needs nothing but
the file: it rebuilds the stack from the header, reconstructs each
request's :class:`~repro.model.transformer.CandidateBatch`
deterministically via :func:`~repro.data.workloads.build_batches`,
re-executes, and asserts the fresh log is event-identical to the
recorded one, line for line.

Because every simulated instant derives from the virtual clock and
candidate scores depend only on (model seed, uid, layer), a replayed
trace reproduces the original byte-for-byte — including injected
faults, failover retries and hedge races (DESIGN.md §9).  Divergence
therefore always means a real behaviour change, never noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Iterable, Sequence

from ..data.workloads import CandidateSpec, RerankQuery, build_batches
from ..device.faults import FaultEvent, FaultPlan
from ..device.platforms import get_profile
from ..model.shared import shared_model, shared_tokenizer
from ..model.zoo import get_model_config
from .api import SelectionRequest, DeviceServer, EngineServer, FleetServer
from .config import PrismConfig
from .engine import PrismEngine
from .events import (
    EVENTS_VERSION,
    SERVING_TIERS,
    TERMINAL_KINDS,
    Event,
    EventLog,
)
from .fleet import FleetConfig, FleetService
from .resilience import AutoscalerConfig, ResilienceConfig
from .scheduler import LANE_BATCH, SchedulerConfig
from .service import SemanticSelectionService
from .tenancy import TenancyConfig
from .telemetry import EventFold, LifecycleFold, TierSummary, lifecycle_key

#: JSONL header schema tag / version.
TRACE_SCHEMA = "repro.trace"
TRACE_VERSION = 1

#: Tiers a trace can drive end-to-end.
TRACE_TIERS = ("engine", "device", "fleet")

#: The device-tier knobs a spec's ``device`` dict may set: the
#: :class:`~repro.core.scheduler.SchedulerConfig` fields, and the
#: service's shared weight plane.
DEVICE_KNOBS = tuple(f.name for f in fields(SchedulerConfig)) + ("shared_weights",)


# ---------------------------------------------------------------------------
# workload serialization
# ---------------------------------------------------------------------------
def query_to_payload(query: RerankQuery) -> dict[str, Any]:
    """A :class:`RerankQuery` as pure JSON scalars (exact round-trip)."""
    return {
        "query_id": query.query_id,
        "seed": query.seed,
        "query_length": query.query_length,
        "candidates": [
            [c.uid, c.seed, c.length, c.relevance, bool(c.is_relevant)]
            for c in query.candidates
        ],
    }


def query_from_payload(payload: dict[str, Any]) -> RerankQuery:
    return RerankQuery(
        query_id=int(payload["query_id"]),
        seed=int(payload["seed"]),
        query_length=int(payload["query_length"]),
        candidates=tuple(
            CandidateSpec(
                uid=int(uid),
                seed=int(seed),
                length=int(length),
                relevance=float(relevance),
                is_relevant=bool(is_relevant),
            )
            for uid, seed, length, relevance, is_relevant in payload["candidates"]
        ),
    )


@dataclass(frozen=True)
class TraceRequest:
    """One recorded request: workload spec + serving intent.

    All instants are *offsets* from the serving wave's origin, the same
    axis :class:`~repro.core.api.SelectionRequest` uses; the query spec
    (not the token arrays) is the payload — ``build_batch`` regenerates
    the exact batch from it on replay.
    """

    query: RerankQuery
    k: int
    request_id: str
    arrival: float = 0.0
    priority: int = LANE_BATCH
    deadline: float | None = None
    cancel_at: float | None = None
    hedge_after_ms: float | None = None
    sample: bool | None = None

    def to_payload(self) -> dict[str, Any]:
        return {
            "query": query_to_payload(self.query),
            "k": self.k,
            "arrival": self.arrival,
            "priority": self.priority,
            "deadline": self.deadline,
            "cancel_at": self.cancel_at,
            "hedge_after_ms": self.hedge_after_ms,
            "sample": self.sample,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any], request_id: str) -> "TraceRequest":
        return cls(
            query=query_from_payload(payload["query"]),
            k=int(payload["k"]),
            request_id=request_id,
            arrival=float(payload.get("arrival", 0.0)),
            priority=int(payload.get("priority", LANE_BATCH)),
            deadline=payload.get("deadline"),
            cancel_at=payload.get("cancel_at"),
            hedge_after_ms=payload.get("hedge_after_ms"),
            sample=payload.get("sample"),
        )


@dataclass(frozen=True)
class TraceSpec:
    """The serving stack a trace runs against (the JSONL header body).

    ``device`` holds device-tier knobs (:data:`DEVICE_KNOBS`), from
    which the device tier's :attr:`scheduler` is built with the
    defaults ``round_robin`` and cap 1 (DESIGN.md §6);
    ``fleet`` holds :class:`~repro.core.fleet.FleetConfig` kwargs;
    ``resilience`` / ``autoscaler`` hold the §9 config kwargs (``None``
    = defaults / disabled); ``faults`` holds
    :class:`~repro.device.faults.FaultEvent` kwargs with instants
    relative to the serving origin.  A knob the tier would not read,
    or a device knob value the scheduler rejects, fails when the spec
    is built, never at serving time (DESIGN.md §10).
    """

    tier: str
    model: str = "qwen3-reranker-0.6b"
    platforms: tuple[str, ...] = ("nvidia_5070",)
    device: dict[str, Any] = field(default_factory=dict)
    fleet: dict[str, Any] = field(default_factory=dict)
    resilience: dict[str, Any] | None = None
    autoscaler: dict[str, Any] | None = None
    faults: tuple[dict[str, Any], ...] = ()
    #: The device tier's scheduling, built from ``device``; ``None`` on
    #: the other tiers.
    scheduler: SchedulerConfig | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.tier not in TRACE_TIERS:
            known = ", ".join(TRACE_TIERS)
            raise ValueError(f"unknown trace tier {self.tier!r}; known: {known}")
        if not self.platforms:
            raise ValueError("a trace needs at least one platform")
        unknown = sorted(set(self.device) - set(DEVICE_KNOBS))
        if unknown:
            raise ValueError(f"unknown device knobs {unknown}; known: {', '.join(DEVICE_KNOBS)}")
        off_fleet = self.tier != "fleet"
        ignored = [
            what
            for what, off_tier in (
                (f"device knobs {sorted(self.device)}", self.device and self.tier != "device"),
                (f"fleet knobs {sorted(self.fleet)}", self.fleet and off_fleet),
                ("resilience", self.resilience is not None and off_fleet),
                ("autoscaler", self.autoscaler is not None and off_fleet),
                (f"{len(self.platforms)} platforms", len(self.platforms) > 1 and off_fleet),
            )
            if off_tier
        ]
        if ignored:
            raise ValueError(f"the {self.tier} tier would ignore {', '.join(ignored)}")
        if self.tier == "device":
            knobs = {"policy": "round_robin", "max_concurrency": 1, **self.device}
            knobs.pop("shared_weights", None)
            object.__setattr__(self, "scheduler", SchedulerConfig(**knobs))

    def to_payload(self) -> dict[str, Any]:
        return {
            "tier": self.tier,
            "model": self.model,
            "platforms": list(self.platforms),
            "device": dict(self.device),
            "fleet": dict(self.fleet),
            "resilience": self.resilience,
            "autoscaler": self.autoscaler,
            "faults": [dict(f) for f in self.faults],
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "TraceSpec":
        return cls(
            tier=str(payload["tier"]),
            model=str(payload["model"]),
            platforms=tuple(payload["platforms"]),
            device=dict(payload.get("device", {})),
            fleet=dict(payload.get("fleet", {})),
            resilience=payload.get("resilience"),
            autoscaler=payload.get("autoscaler"),
            faults=tuple(dict(f) for f in payload.get("faults", [])),
        )

    def fault_events(self) -> tuple[FaultEvent, ...]:
        return tuple(FaultEvent(**kwargs) for kwargs in self.faults)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------
@dataclass
class TraceRun:
    """One executed trace: the log plus the request outcomes."""

    spec: TraceSpec
    requests: list[TraceRequest]
    log: EventLog
    responses: list  # SelectionResponse, completion order

    @property
    def selections(self) -> dict[str, list[int] | None]:
        """Request id → selected candidate indices (None when dropped)."""
        return {
            str(response.request_id): (
                [int(i) for i in response.result.top_indices]
                if response.result is not None
                else None
            )
            for response in self.responses
        }

    @property
    def statuses(self) -> dict[str, str]:
        return {str(r.request_id): r.status for r in self.responses}


def build_server(
    spec: TraceSpec, log: EventLog | None = None, tenancy: TenancyConfig | None = None
):
    """Instantiate the serving stack a spec describes: the one
    constructor of ``cli serve``, the serving studies and replay.

    Returns ``(server, clock)`` where ``clock`` is the tier's workload
    time axis (the fleet clock, or the single device's clock).  With
    ``log=None`` the stack runs unobserved — the equivalence tests use
    exactly this to pin zero behaviour change.  ``tenancy`` attaches
    the fleet's admission plane (DESIGN.md §13); like the requests, it
    comes from a traffic trace, not from the spec.
    """
    if tenancy is not None and spec.tier != "fleet":
        raise ValueError(f"tenancy applies only to the fleet tier, not {spec.tier}")
    model = shared_model(get_model_config(spec.model))
    profiles = [get_profile(name) for name in spec.platforms]
    config = PrismConfig(numerics=False)
    if spec.tier == "engine":
        device = profiles[0].create()
        engine = PrismEngine(model, device, config)
        engine.prepare()
        if log is not None:
            device.attach_event_log(log)
        if spec.faults:
            device.install_faults(spec.fault_events(), origin=device.clock.now)
        return EngineServer(engine), device.clock
    if spec.tier == "device":
        service = SemanticSelectionService(
            model,
            profiles[0],
            config=config,
            scheduler=spec.scheduler,
            shared_weights=spec.device.get("shared_weights", False),
            event_log=log,
        )
        if spec.faults:
            service.device.install_faults(
                spec.fault_events(), origin=service.device.clock.now
            )
        return DeviceServer(service), service.device.clock
    fleet = FleetService(
        model,
        profiles,
        fleet_config=FleetConfig(**spec.fleet),
        config=config,
        fault_plan=FaultPlan(spec.fault_events()) if spec.faults else None,
        resilience=(
            ResilienceConfig(**spec.resilience) if spec.resilience is not None else None
        ),
        autoscaler=(
            AutoscalerConfig(**spec.autoscaler) if spec.autoscaler is not None else None
        ),
        tenancy=tenancy,
        event_log=log,
    )
    return FleetServer(fleet), fleet.clock


def run_trace(
    spec: TraceSpec,
    requests: Sequence[TraceRequest],
    log: EventLog | None = None,
    observe: bool = True,
) -> TraceRun:
    """Execute a workload against the stack a spec describes.

    Emits one ``trace``-tier ``admit`` event per request before serving
    begins — the self-contained workload record replay reads back.
    ``observe=False`` runs the identical submission path with *no* sink
    attached anywhere (the returned run's log stays empty) — the
    §10 zero-perturbation guarantee is pinned by comparing its
    selections against an observed run's.
    """
    if not observe:
        log = None
    elif log is None:
        log = EventLog()
    server, clock = build_server(spec, log)
    model_config = get_model_config(spec.model)
    tokenizer = shared_tokenizer(model_config)
    origin = clock.now
    if log is not None:
        for request in requests:
            log.emit(
                "admit",
                at=origin,
                tier="trace",
                request=request.request_id,
                **request.to_payload(),
            )
    batches = build_batches(
        [request.query for request in requests], tokenizer, model_config.max_seq_len
    )
    handles = []
    for request, batch in zip(requests, batches):
        handle = server.submit(
            SelectionRequest(
                batch=batch,
                k=request.k,
                request_id=request.request_id,
                priority=request.priority,
                arrival=request.arrival,
                deadline=request.deadline,
                sample=request.sample,
                hedge_after_ms=request.hedge_after_ms,
            )
        )
        if request.cancel_at is not None:
            handle.cancel(at=request.cancel_at)
        handles.append(handle)
    responses = server.drain()
    return TraceRun(
        spec=spec,
        requests=list(requests),
        log=log if log is not None else EventLog(),
        responses=responses,
    )


# ---------------------------------------------------------------------------
# the JSONL artifact
# ---------------------------------------------------------------------------
def render_trace(spec: TraceSpec, log: EventLog) -> str:
    """The canonical JSONL artifact: schema header + one line per event."""
    header = {
        "schema": TRACE_SCHEMA,
        "version": TRACE_VERSION,
        "events_version": EVENTS_VERSION,
        "spec": spec.to_payload(),
    }
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    lines.extend(log.lines())
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> tuple[TraceSpec, list[Event], list[str]]:
    """Parse a JSONL trace → (spec, events, canonical event lines)."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty trace: no schema header")
    header = json.loads(lines[0])
    if header.get("schema") != TRACE_SCHEMA:
        raise ValueError(f"not a {TRACE_SCHEMA} file (schema={header.get('schema')!r})")
    if header.get("version") != TRACE_VERSION:
        raise ValueError(
            f"trace version {header.get('version')!r} != supported {TRACE_VERSION}"
        )
    spec = TraceSpec.from_payload(header["spec"])
    events = [Event.from_payload(json.loads(line)) for line in lines[1:]]
    return spec, events, lines[1:]


def read_trace(path: str | Path) -> tuple[TraceSpec, list[Event], list[str]]:
    return parse_trace(Path(path).read_text())


def requests_from_events(events: Iterable[Event]) -> list[TraceRequest]:
    """Reconstruct the recorded workload from ``trace``-tier admits."""
    return [
        TraceRequest.from_payload(event.data, request_id=str(event.request))
        for event in events
        if event.tier == "trace" and event.kind == "admit"
    ]


def record_trace(
    spec: TraceSpec, requests: Sequence[TraceRequest], path: str | Path | None = None
) -> tuple[TraceRun, str]:
    """Run a workload with recording on; optionally write the JSONL."""
    run = run_trace(spec, requests)
    text = render_trace(spec, run.log)
    if path is not None:
        Path(path).write_text(text)
    return run, text


@dataclass
class ReplayReport:
    """Line-level verdict of one record → replay comparison."""

    recorded_events: int
    replayed_events: int
    #: Index (0-based, into the event lines) of the first divergence;
    #: ``None`` when the logs are event-identical.
    first_divergence: int | None = None
    recorded_line: str | None = None
    replayed_line: str | None = None

    @property
    def event_identical(self) -> bool:
        return (
            self.first_divergence is None
            and self.recorded_events == self.replayed_events
        )


def compare_logs(recorded_lines: Sequence[str], replayed_lines: Sequence[str]) -> ReplayReport:
    """First-divergence comparison of two canonical line sequences."""
    report = ReplayReport(
        recorded_events=len(recorded_lines), replayed_events=len(replayed_lines)
    )
    for index, (old, new) in enumerate(zip(recorded_lines, replayed_lines)):
        if old != new:
            report.first_divergence = index
            report.recorded_line = old
            report.replayed_line = new
            return report
    if len(recorded_lines) != len(replayed_lines):
        index = min(len(recorded_lines), len(replayed_lines))
        report.first_divergence = index
        report.recorded_line = (
            recorded_lines[index] if index < len(recorded_lines) else None
        )
        report.replayed_line = (
            replayed_lines[index] if index < len(replayed_lines) else None
        )
    return report


def replay_trace(
    path: str | Path | None = None, text: str | None = None
) -> tuple[TraceRun, ReplayReport]:
    """Re-execute a recorded trace; report event-identity line by line.

    The workload (arrivals, deadlines, priorities, cancellations,
    hedges) is reconstructed from the recorded log itself; the stack
    (including the fault plan — faults are part of the spec, so a
    mid-stream crash replays deterministically) comes from the header.
    """
    if (path is None) == (text is None):
        raise ValueError("pass exactly one of path / text")
    spec, events, recorded_lines = (
        read_trace(path) if path is not None else parse_trace(text)  # type: ignore[arg-type]
    )
    run = run_trace(spec, requests_from_events(events))
    return run, compare_logs(recorded_lines, run.log.lines())


# ---------------------------------------------------------------------------
# aggregation (cli trace summary / tail)
# ---------------------------------------------------------------------------
@dataclass
class TraceSummary:
    """The fleet dashboard a log aggregates into (DESIGN.md §10)."""

    events: int
    kinds: dict[str, int]
    tiers: list[TierSummary]
    faults: int = 0
    failovers: int = 0
    hedges: int = 0
    scale_actions: int = 0
    fetches: int = 0
    fetched_bytes: int = 0


def summarize_events(events: Sequence[Event]) -> TraceSummary:
    """Aggregate a log: per-tier throughput, latency percentiles, drops.

    The lifecycle columns are the :class:`~repro.core.telemetry.LifecycleFold`
    view of the log (latency is ``terminal.at − arrival`` on the tier's
    own clock); throughput is completions over the tier's observed span.
    """
    lifecycle = LifecycleFold()
    feed = EventFold(lifecycle).feed
    kinds: dict[str, int] = {}
    spans: dict[str, tuple[float, float]] = {}
    fetched_bytes = 0
    for event in events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
        first, last = spans.get(event.tier, (event.at, event.at))
        spans[event.tier] = (min(first, event.at), max(last, event.at))
        if event.kind == "fetch":
            fetched_bytes += int(event.data.get("nbytes", 0))
        feed(event)
    tiers = lifecycle.tiers()
    for row in tiers:
        first, last = spans[row.tier]
        if row.completed and last > first:
            row.throughput_rps = row.completed / (last - first)
    return TraceSummary(
        events=len(events),
        kinds=kinds,
        tiers=tiers,
        faults=kinds.get("fault", 0),
        failovers=kinds.get("failover", 0),
        hedges=kinds.get("hedge", 0),
        scale_actions=kinds.get("scale", 0),
        fetches=kinds.get("fetch", 0),
        fetched_bytes=fetched_bytes,
    )


# ---------------------------------------------------------------------------
# timeline export (cli trace timeline, DESIGN.md §14)
# ---------------------------------------------------------------------------
#: Event kinds rendered as instants inside a request's span.
_TIMELINE_INSTANTS = ("step", "fetch", "fuse", "hedge", "cache_hit")


def _span(name: str, pid: int, tid: int, start: float, end: float, args=None) -> dict:
    event: dict[str, Any] = {
        "name": name,
        "ph": "X",
        "pid": pid,
        "tid": tid,
        "ts": round(start * 1e6, 3),
        "dur": round(max(0.0, end - start) * 1e6, 3),
        "cat": "request",
    }
    if args:
        event["args"] = args
    return event


def timeline_events(events: Sequence[Event]) -> list[dict]:
    """Chrome trace-event JSON objects for a recorded log (§14).

    Each serving tier becomes a process and each lane a thread, keyed
    by :func:`~repro.core.telemetry.lifecycle_key` as the lifecycle
    fold pairs events (the request on the fleet tier, (replica,
    request) inside); every request renders as nested duration spans —
    the whole lifetime (``admit → terminal``), the queue wait
    (``admit → dispatch``) and the service pass (``dispatch →
    terminal``) — with ``step``/``fetch``/``fuse``/``hedge``/
    ``cache_hit`` instants inside.  Virtual seconds map to trace
    microseconds.  Wrap the list as ``{"traceEvents": [...]}`` (see
    :func:`write_timeline`) and the file loads directly in Perfetto /
    ``chrome://tracing``.
    """
    out: list[dict] = []
    pids = {tier: index + 1 for index, tier in enumerate(SERVING_TIERS)}
    tids: dict[tuple, int] = {}
    open_spans: dict[tuple, dict[str, Any]] = {}
    named_pids: set[int] = set()

    def tid_of(key: tuple, event: Event) -> int:
        if key not in tids:
            tids[key] = len(tids) + 1
            label = str(event.request)
            if event.tier != "fleet" and event.replica is not None:
                label = f"replica{event.replica}/{label}"
            out.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pids[event.tier],
                    "tid": tids[key],
                    "args": {"name": label},
                }
            )
        return tids[key]

    for event in events:
        if event.tier not in pids:
            continue
        pid = pids[event.tier]
        if pid not in named_pids:
            named_pids.add(pid)
            out.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "args": {"name": f"{event.tier} tier"},
                }
            )
        key = lifecycle_key(event)
        tid = tid_of(key, event)
        if event.kind == "admit":
            open_spans[key] = {
                "admit": float(event.data.get("arrival", event.at)),
                "dispatch": None,
                "tenant": event.tenant,
            }
        elif event.kind == "dispatch":
            if key in open_spans:
                open_spans[key]["dispatch"] = event.at
        elif event.kind in _TIMELINE_INSTANTS:
            out.append(
                {
                    "name": event.kind,
                    "ph": "i",
                    "s": "t",
                    "pid": pid,
                    "tid": tid,
                    "ts": round(event.at * 1e6, 3),
                    "cat": event.kind,
                }
            )
        elif event.kind in TERMINAL_KINDS:
            span = open_spans.pop(key, None)
            if span is None:
                continue
            admit, dispatch = span["admit"], span["dispatch"]
            args = {
                "status": event.kind,
                "tenant": span["tenant"],
                "detail": event.data.get("detail", ""),
            }
            out.append(_span(f"request {event.request}", pid, tid, admit, event.at, args))
            if dispatch is not None:
                out.append(_span("queued", pid, tid, admit, dispatch))
                out.append(_span("service", pid, tid, dispatch, event.at))
            else:
                out.append(_span("queued", pid, tid, admit, event.at))
    return out


def write_timeline(events: Sequence[Event], path: str | Path) -> int:
    """Write a log's :func:`timeline_events` as a Perfetto-loadable
    ``{"traceEvents": [...]}`` JSON file; returns the span/event count."""
    rendered = timeline_events(events)
    Path(path).write_text(
        json.dumps({"traceEvents": rendered, "displayTimeUnit": "ms"}) + "\n"
    )
    return len(rendered)
