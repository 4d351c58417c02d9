"""Command-line entry point: regenerate any paper artifact from a shell.

Usage::

    python -m repro.harness.cli list
    python -m repro.harness.cli fig16
    python -m repro.harness.cli table3 --quick
    python -m repro.harness.cli fig8 --out results/
    python -m repro.harness.cli fleet --quick
    python -m repro.harness.cli schedule --quick
    python -m repro.harness.cli shared_weights --quick
    python -m repro.harness.cli deadline --quick
    python -m repro.harness.cli resilience --quick
    python -m repro.harness.cli cache --quick
    python -m repro.harness.cli tenants --quick
    python -m repro.harness.cli serve requests.json --tier fleet

``--quick`` shrinks workloads (fewer datasets/queries) for smoke runs;
the full sizes match the benchmarks under ``benchmarks/``.

The ``serve`` subcommand replays a JSON request file through any
serving tier (``--tier engine|device|fleet``) via the unified request
API (DESIGN.md §8) and prints each request's
:class:`~repro.core.api.SelectionResponse` provenance.  The file holds
a list of request objects::

    [{"id": "q0", "k": 3, "num_candidates": 8},
     {"id": "q1", "k": 3, "num_candidates": 8,
      "priority": 0, "arrival": 0.1, "deadline": 0.5}]

Optional per-request fields: ``priority`` (0 = interactive, 1 =
batch), ``arrival`` (offset seconds), ``deadline`` (seconds after
arrival), ``cancel_at`` (offset seconds — exercises cancellation),
``hedge_after_ms`` (fleet-tier straggler hedging, DESIGN.md §9),
``dataset`` (workload generator, default wikipedia).

``serve`` also accepts a ``repro.traffic`` v1 JSONL trace (DESIGN.md
§13) in place of the JSON list: the trace's arrivals, tenant ids and
SLO lanes are replayed, and on the fleet tier the trace's per-tenant
admission profiles (WFQ weights + token buckets) are attached, so an
overloaded trace exercises tenant-aware shedding end to end.

``serve`` exits non-zero when any request did not complete — shed,
cancelled, or failed — and prints a one-line summary count, so shell
pipelines (and CI) can gate on clean serving runs.

The ``traffic`` subcommand generates and inspects multi-tenant
workload traces (DESIGN.md §13)::

    python -m repro.harness.cli traffic generate out.jsonl --tenants 200 --rate 50
    python -m repro.harness.cli traffic summary out.jsonl

The ``trace`` subcommand drives the observability plane (DESIGN.md
§10)::

    python -m repro.harness.cli trace record out.jsonl --scenario resilience --quick
    python -m repro.harness.cli trace replay out.jsonl
    python -m repro.harness.cli trace tail out.jsonl --last 20
    python -m repro.harness.cli trace summary out.jsonl

``record`` executes a named scenario (see
:data:`repro.harness.traces.SCENARIOS`) with the event log attached and
writes the JSONL trace; ``replay`` reconstructs the workload from a
recorded trace, re-executes it, and exits non-zero on the first
divergent event line; ``tail`` prints the last events human-readably
(``--follow`` switches to incremental live tailing from the last byte
offset, with ``--poll`` / ``--idle-timeout`` controls); ``summary``
aggregates a log into the per-tier fleet dashboard (throughput,
p50/p95/p99, shed/fault/hedge counts); ``timeline`` exports a
Perfetto-loadable Chrome trace-event JSON.

The live telemetry plane (DESIGN.md §14) rides ``serve`` and two
sibling commands::

    python -m repro.harness.cli serve trace.jsonl --tier fleet \
        --live-port 9137 --live-linger 30 --timeline run.timeline.json
    python -m repro.harness.cli live http://127.0.0.1:9137 --watch
    python -m repro.harness.cli trace timeline out.jsonl

``serve --live-port`` publishes Prometheus ``/metrics``, an SSE
``/events`` stream and ``/healthz`` from a stdlib HTTP server while
the run executes (port ``0`` picks an ephemeral port; ``--live-host``
rebinds; ``--live-linger`` keeps the server up after the drain for
late scrapers), then checks that the live fold saw every event the
log emitted — exit code 2 flags missed events, 1 stays "requests
dropped", 0 is clean.  ``live <url>`` renders a
one-shot (or ``--watch``) terminal dashboard from a ``/metrics``
scrape; ``serve --timeline`` / ``trace timeline`` write the Chrome
trace-event view of a run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable

from . import experiments as ex

#: name → (full-size runner, quick-size runner)
_EXPERIMENTS: dict[str, tuple[Callable[[], object], Callable[[], object]]] = {
    "fig1": (
        lambda: ex.fig1_pipeline(num_docs=200, num_queries=4),
        lambda: ex.fig1_pipeline(num_docs=100, num_queries=2),
    ),
    "fig2": (
        lambda: ex.fig2_sparsity(num_queries=6),
        lambda: ex.fig2_sparsity(num_queries=2),
    ),
    "table3": (
        lambda: ex.table3(num_queries=2),
        lambda: ex.table3(
            models=("qwen3-reranker-0.6b",),
            datasets=("wikipedia", "nfcorpus"),
            platforms=("nvidia_5070",),
            num_queries=2,
        ),
    ),
    "fig8": (
        lambda: ex.fig8_wikipedia(num_queries=3),
        lambda: ex.fig8_wikipedia(
            models=("qwen3-reranker-0.6b",), platforms=("nvidia_5070",), num_queries=2
        ),
    ),
    "fig9": (
        lambda: ex.fig9_memory(),
        lambda: ex.fig9_memory(models=("qwen3-reranker-0.6b",)),
    ),
    "fig10": (
        lambda: ex.fig10_tradeoff(num_thresholds=5, num_queries=6),
        lambda: ex.fig10_tradeoff(num_thresholds=3, num_queries=2),
    ),
    "fig11": (
        lambda: ex.fig11_rag(num_docs=200, num_queries=12),
        lambda: ex.fig11_rag(num_docs=100, num_queries=3),
    ),
    "fig12-13": (
        lambda: ex.fig12_13_agent_memory(),
        lambda: ex.fig12_13_agent_memory(workloads=("video",)),
    ),
    "fig14-15": (
        lambda: ex.fig14_15_long_context(num_tasks=24),
        lambda: ex.fig14_15_long_context(num_tasks=6),
    ),
    "fig16": (
        lambda: ex.fig16_ablation(),
        lambda: ex.fig16_ablation(num_candidates=20),
    ),
    "fleet": (
        lambda: ex.fleet_serving(),
        lambda: ex.fleet_serving(replica_counts=(1, 2), num_requests=8),
    ),
    "schedule": (
        lambda: ex.concurrent_serving(),
        lambda: ex.concurrent_serving(
            num_interactive=4, num_batch=2, batch_candidates=32
        ),
    ),
    "shared_weights": (
        lambda: ex.shared_weights_serving(),
        lambda: ex.shared_weights_serving(num_requests=3, num_candidates=4),
    ),
    "deadline": (
        lambda: ex.deadline_serving(),
        lambda: ex.deadline_serving(num_requests=6, num_candidates=8),
    ),
    "resilience": (
        lambda: ex.resilience_serving(),
        lambda: ex.resilience_serving(num_requests=12, num_candidates=8),
    ),
    "cache": (
        lambda: ex.data_plane_serving(),
        lambda: ex.data_plane_serving(
            unique_queries=4, num_requests=16, partial_overlap_rate=0.4
        ),
    ),
    "tenants": (
        lambda: ex.multitenant_serving(),
        lambda: ex.multitenant_serving(
            num_tenants=150, duration_s=5.0, probe_requests=8
        ),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.cli",
        description="Regenerate the paper's tables/figures on the simulator.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS) + ["list", "all"],
        help="which artifact to regenerate ('list' to enumerate, 'all' for everything)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="scaled-down workload for smoke runs"
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="also write the rendered table to DIR"
    )
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.cli serve",
        description="Replay a JSON request file through one serving tier "
        "(the unified request API, DESIGN.md §8).",
    )
    parser.add_argument("requests", type=Path, help="JSON file with a list of requests")
    parser.add_argument(
        "--tier",
        choices=("engine", "device", "fleet"),
        default="device",
        help="which Server adapter serves the requests",
    )
    parser.add_argument(
        "--model", default="qwen3-reranker-0.6b", help="reranker model name"
    )
    parser.add_argument("--platform", default="nvidia_5070", help="device profile")
    parser.add_argument("--policy", help="device-tier scheduling policy (default round_robin)")
    parser.add_argument(
        "--edf", action="store_true", default=None, help="earliest-deadline-first (device tier)"
    )
    parser.add_argument("--concurrency", type=int, help="device-tier in-flight cap (default 4)")
    parser.add_argument("--replicas", type=int, help="fleet-tier replica count (default 2)")
    parser.add_argument(
        "--live-port",
        type=int,
        default=None,
        help="publish live telemetry on this port (0 = ephemeral) "
        "while serving: /metrics, /events (SSE), /healthz (DESIGN.md §14)",
    )
    parser.add_argument(
        "--live-host", default="127.0.0.1", help="live-server bind address"
    )
    parser.add_argument(
        "--live-linger",
        type=float,
        default=0.0,
        help="keep the live server up this many seconds after the drain "
        "(lets external scrapers catch the finished run)",
    )
    parser.add_argument(
        "--timeline",
        type=Path,
        default=None,
        help="write the run's per-request spans as Chrome trace-event "
        "JSON (Perfetto-loadable) to this path",
    )
    return parser


def _serve_spec(parser: argparse.ArgumentParser, args: argparse.Namespace):
    """The stack ``serve`` builds (DESIGN.md §10); a flag the tier would
    ignore is a usage error, the device flags through the spec's check."""
    from ..core.trace import TraceSpec

    if args.replicas is not None and args.tier != "fleet":
        parser.error(f"--replicas applies only to the fleet tier, not {args.tier}")
    given = {"policy": args.policy, "edf": args.edf, "max_concurrency": args.concurrency}
    device = {knob: value for knob, value in given.items() if value is not None}
    if args.tier == "device":
        device = {"policy": "round_robin", "max_concurrency": 4, **device}
    replicas = 2 if args.replicas is None else args.replicas
    try:
        return TraceSpec(
            args.tier,
            model=args.model,
            platforms=(args.platform,) * (replicas if args.tier == "fleet" else 1),
            device=device,
        )
    except ValueError as error:
        parser.error(str(error))


def run_serve(argv: list[str]) -> int:
    """The ``serve`` subcommand: replay requests, print provenance."""
    from ..core.api import SelectionRequest
    from ..core.tenancy import selection_requests_from_trace, tenancy_from_trace
    from ..core.trace import build_server
    from ..data.datasets import get_dataset
    from ..data.traffic import is_traffic_file, read_traffic_trace
    from ..data.workloads import build_batches
    from ..model.zoo import get_model_config
    from .reporting import format_table, ms
    from .runner import shared_tokenizer

    parser = build_serve_parser()
    args = parser.parse_args(argv)
    spec = _serve_spec(parser, args)
    model_config = get_model_config(spec.model)
    tokenizer = shared_tokenizer(model_config)

    # Live telemetry / timeline export both need the event log attached
    # (DESIGN.md §14); a plain serve keeps the unobserved fast path.
    event_log = None
    if args.live_port is not None or args.timeline is not None:
        from ..core.events import EventLog

        event_log = EventLog()

    tenancy = None
    if is_traffic_file(args.requests):
        # A repro.traffic v1 trace (DESIGN.md §13): replay its arrivals
        # with tenant ids and SLO lanes; the fleet tier additionally
        # attaches the trace's per-tenant admission profiles.
        trace = read_traffic_trace(args.requests)
        tenancy = tenancy_from_trace(trace) if args.tier == "fleet" else None
        server, _ = build_server(spec, event_log, tenancy)
        live = _start_live(args, event_log, tenancy)
        for request in selection_requests_from_trace(
            trace, tokenizer, model_config.max_seq_len
        ):
            server.submit(request)
    else:
        entries = json.loads(args.requests.read_text())
        if not isinstance(entries, list) or not entries:
            raise SystemExit("request file must hold a non-empty JSON list")
        server, _ = build_server(spec, event_log)
        live = _start_live(args, event_log, None)
        # Entry ``i`` serves query ``i`` of its (dataset, num_candidates)
        # workload.  ``DatasetSpec.queries`` draws from one sequential
        # generator, so each group is drawn once, up to its last entry.
        groups: dict[tuple[str, int], list[int]] = {}
        for index, entry in enumerate(entries):
            key = (entry.get("dataset", "wikipedia"), int(entry.get("num_candidates", 8)))
            groups.setdefault(key, []).append(index)
        queries = [None] * len(entries)
        for (dataset, num_candidates), indices in groups.items():
            drawn = get_dataset(dataset).queries(indices[-1] + 1, num_candidates)
            for index in indices:
                queries[index] = drawn[index]
        batches = build_batches(queries, tokenizer, model_config.max_seq_len)
        for index, (entry, batch) in enumerate(zip(entries, batches)):
            request = SelectionRequest(
                batch=batch,
                k=int(entry.get("k", 3)),
                request_id=entry.get("id", f"q{index}"),
                priority=int(entry.get("priority", 1)),
                arrival=entry.get("arrival"),
                deadline=entry.get("deadline"),
                hedge_after_ms=entry.get("hedge_after_ms"),
                tenant=entry.get("tenant"),
            )
            handle = server.submit(request)
            if entry.get("cancel_at") is not None:
                handle.cancel(at=float(entry["cancel_at"]))
    responses = server.drain()

    rows = [
        (
            response.request_id,
            response.status,
            response.tier,
            response.tenant or "-",
            response.lane,
            "-" if response.replica is None else response.replica,
            response.policy or "-",
            "-" if response.fused_group is None else response.fused_group,
            "-" if response.threshold is None else f"{response.threshold:.2f}",
            ms(response.queue_seconds),
            ms(response.e2e_seconds),
            {True: "met", False: "MISSED", None: "-"}[response.deadline_met],
            "-" if response.result is None else str(response.result.top_indices.tolist()),
        )
        for response in responses
    ]
    print(
        format_table(
            (
                "request",
                "status",
                "tier",
                "tenant",
                "lane",
                "replica",
                "policy",
                "group",
                "thresh",
                "queue",
                "e2e",
                "deadline",
                "top-k",
            ),
            rows,
            title=f"SelectionResponse provenance ({args.tier} tier)",
        )
    )
    # A serving run is clean only when every request completed: any
    # shed / cancelled / failed request makes the replay exit non-zero
    # with a one-line summary, so pipelines can gate on it.
    counts = {status: 0 for status in ("shed", "cancelled", "failed")}
    for response in responses:
        if response.status in counts:
            counts[response.status] += 1
    dropped = sum(counts.values())
    if dropped:
        print(
            f"serve: {dropped} of {len(responses)} requests did not complete "
            f"(shed={counts['shed']}, cancelled={counts['cancelled']}, "
            f"failed={counts['failed']})"
        )
    missed = False
    if live is not None:
        # Fold whatever the run streamed.  The registry and FleetStats
        # are views of one fold, so the check left is that the live
        # fold saw every event the log emitted.
        live.telemetry.drain()
        folded = live.telemetry.collector.events_seen
        dropped_events = live.telemetry.subscription.dropped
        missed = folded != len(event_log) or dropped_events > 0
        if missed:
            print(
                f"live telemetry MISSED events: folded {folded} of {len(event_log)} "
                f"({dropped_events} dropped by the subscription)"
            )
        else:
            print(f"live telemetry: {folded} of {len(event_log)} events folded")
        if args.live_linger > 0:
            print(f"live server lingering {args.live_linger:.1f}s at {live.url}")
            time.sleep(args.live_linger)
        live.close()
    if args.timeline is not None and event_log is not None:
        from ..core.trace import write_timeline

        spans = write_timeline(event_log.events, args.timeline)
        print(f"timeline: {spans} trace events -> {args.timeline}")
    if missed:
        return 2
    return 1 if dropped else 0


def _start_live(args: argparse.Namespace, event_log, tenancy):
    """Start the §14 live server when ``serve --live-port`` asked for it."""
    if args.live_port is None or event_log is None:
        return None
    from .live import LiveServer

    live = LiveServer(
        event_log,
        tenancy=tenancy,
        tenant_tier=args.tier,
        host=args.live_host,
        port=args.live_port,
    ).start()
    print(f"live telemetry at {live.url} (/metrics, /events, /healthz)")
    return live


def build_traffic_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.cli traffic",
        description="Generate / inspect multi-tenant traffic traces (DESIGN.md §13).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="write a repro.traffic v1 JSONL trace")
    generate.add_argument("out", type=Path, help="trace file to write")
    generate.add_argument("--tenants", type=int, default=100, help="tenant population")
    generate.add_argument(
        "--duration", type=float, default=10.0, help="trace span in virtual seconds"
    )
    generate.add_argument(
        "--rate", type=float, default=50.0, help="mean offered arrival rate (rps)"
    )
    generate.add_argument(
        "--process",
        choices=("poisson", "mmpp", "diurnal"),
        default="poisson",
        help="arrival process",
    )
    generate.add_argument("--seed", type=int, default=0, help="generator seed")
    generate.add_argument(
        "--max-candidates", type=int, default=16, help="largest candidate set"
    )

    summary = sub.add_parser("summary", help="aggregate view of a traffic trace")
    summary.add_argument("trace", type=Path, help="trace file to read")
    return parser


def run_traffic_cmd(argv: list[str]) -> int:
    """The ``traffic`` subcommand: generate / summarize workload traces."""
    from ..data.traffic import (
        TrafficConfig,
        generate_traffic,
        read_traffic_trace,
        summarize_traffic,
        write_traffic_trace,
    )
    from .reporting import format_table

    args = build_traffic_parser().parse_args(argv)

    if args.command == "generate":
        config = TrafficConfig(
            num_tenants=args.tenants,
            duration_s=args.duration,
            rate_rps=args.rate,
            process=args.process,
            seed=args.seed,
            max_candidates=args.max_candidates,
        )
        trace = generate_traffic(config)
        write_traffic_trace(trace, args.out)
        print(
            f"generated {trace.num_requests} arrivals over {args.duration:.1f}s "
            f"({args.process}, {len(trace.arriving_tenants())} of "
            f"{args.tenants} tenants arriving) -> {args.out}"
        )
        return 0

    summary = summarize_traffic(read_traffic_trace(args.trace))
    rows = [
        (slo, count, f"{count / summary.num_requests:.1%}")
        for slo, count in sorted(summary.per_class.items())
    ]
    print(
        format_table(
            ("class", "requests", "share"),
            rows,
            title=f"traffic summary ({args.trace})",
        )
    )
    lo, hi, mean = summary.candidate_sizes
    print(
        f"{summary.num_requests} requests over {summary.duration_s:.1f}s "
        f"(mean {summary.mean_rate_rps:.1f} rps); "
        f"{summary.arriving_tenants} of {summary.num_tenants} tenants arriving; "
        f"candidate sets {lo}..{hi} (mean {mean:.1f})"
    )
    return 0


def build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.cli trace",
        description="Record, replay and inspect event-log traces (DESIGN.md §10).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser("record", help="run a scenario, write its JSONL trace")
    record.add_argument("out", type=Path, help="trace file to write")
    record.add_argument(
        "--scenario",
        default="device",
        help="named scenario from repro.harness.traces.SCENARIOS",
    )
    record.add_argument(
        "--quick", action="store_true", help="scaled-down workload for smoke runs"
    )

    replay = sub.add_parser(
        "replay", help="re-execute a recorded trace, fail on divergence"
    )
    replay.add_argument("trace", type=Path, help="trace file to replay")

    tail = sub.add_parser("tail", help="print the last events human-readably")
    tail.add_argument("trace", type=Path, help="trace file to read")
    tail.add_argument("--last", type=int, default=20, help="how many events to show")
    tail.add_argument("--kind", default=None, help="only events of this kind")
    tail.add_argument("--tier", default=None, help="only events of this tier")
    tail.add_argument(
        "--follow",
        action="store_true",
        help="stream the file incrementally as it grows (poll from the "
        "last byte offset) instead of reading it once",
    )
    tail.add_argument(
        "--poll", type=float, default=0.2, help="--follow poll interval (seconds)"
    )
    tail.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        help="--follow exits after this many idle seconds (default: forever)",
    )

    summary = sub.add_parser("summary", help="aggregate a trace into a dashboard")
    summary.add_argument("trace", type=Path, help="trace file to read")

    timeline = sub.add_parser(
        "timeline",
        help="export per-request spans as Chrome trace-event JSON (Perfetto)",
    )
    timeline.add_argument("trace", type=Path, help="trace file to read")
    timeline.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output JSON path (default: trace path with .timeline.json)",
    )
    return parser


def run_trace_cmd(argv: list[str]) -> int:
    """The ``trace`` subcommand: record / replay / tail / summary."""
    from ..core.trace import read_trace, record_trace, replay_trace, summarize_events
    from .reporting import format_table, ms
    from .traces import SCENARIOS, build_scenario

    args = build_trace_parser().parse_args(argv)

    if args.command == "tail" and args.follow:
        return _follow_tail(args)

    if args.command == "record":
        if args.scenario not in SCENARIOS:
            known = ", ".join(sorted(SCENARIOS))
            raise SystemExit(f"unknown scenario {args.scenario!r}; known: {known}")
        spec, requests = build_scenario(args.scenario, quick=args.quick)
        run, text = record_trace(spec, requests, path=args.out)
        print(
            f"recorded {len(run.log)} events ({args.scenario}, {spec.tier} tier, "
            f"{len(requests)} requests) -> {args.out}"
        )
        return 0

    if args.command == "replay":
        run, report = replay_trace(path=args.trace)
        if report.event_identical:
            print(
                f"replay ok: {report.replayed_events} events, "
                f"event-identical to {args.trace}"
            )
            return 0
        print(
            f"replay DIVERGED at event {report.first_divergence} "
            f"({report.recorded_events} recorded, {report.replayed_events} replayed)"
        )
        print(f"  recorded: {report.recorded_line}")
        print(f"  replayed: {report.replayed_line}")
        return 1

    if args.command == "timeline":
        from ..core.trace import write_timeline

        _, events, _ = read_trace(args.trace)
        out = args.out or args.trace.with_suffix(".timeline.json")
        spans = write_timeline(events, out)
        print(
            f"timeline: {spans} trace events ({len(events)} log events) -> {out} "
            "(load in Perfetto / chrome://tracing)"
        )
        return 0

    spec, events, _ = read_trace(args.trace)
    if args.command == "tail":
        shown = [
            e
            for e in events
            if (args.kind is None or e.kind == args.kind)
            and (args.tier is None or e.tier == args.tier)
        ][-args.last :]
        for event in shown:
            print(event.describe())
        print(f"({len(shown)} of {len(events)} events, {spec.tier} tier)")
        return 0

    # summary: the per-tier fleet dashboard.
    dashboard = summarize_events(events)
    rows = [
        (
            tier.tier,
            tier.admitted,
            tier.completed,
            tier.shed,
            tier.cancelled,
            tier.failed,
            "-" if tier.throughput_rps is None else f"{tier.throughput_rps:.2f}/s",
            ms(tier.p50_latency),
            ms(tier.p95_latency),
            ms(tier.p99_latency),
        )
        for tier in dashboard.tiers
    ]
    print(
        format_table(
            (
                "tier",
                "admitted",
                "completed",
                "shed",
                "cancelled",
                "failed",
                "throughput",
                "p50",
                "p95",
                "p99",
            ),
            rows,
            title=f"trace summary ({dashboard.events} events)",
        )
    )
    print(
        f"faults={dashboard.faults} failovers={dashboard.failovers} "
        f"hedges={dashboard.hedges} scale_actions={dashboard.scale_actions} "
        f"ssd_fetches={dashboard.fetches} ({dashboard.fetched_bytes} bytes)"
    )
    return 0


def _follow_tail(args: argparse.Namespace) -> int:
    """``trace tail --follow``: stream a growing JSONL trace (§14).

    Shares the subscriber-side rendering (``Event.describe``) with the
    one-shot tail; the schema header line is recognised and skipped, so
    following can start before the recorder has written any events.
    """
    import json as json_module

    from ..core.events import Event
    from .live import follow_trace_lines

    shown = 0
    try:
        for line in follow_trace_lines(
            args.trace, poll_s=args.poll, idle_timeout_s=args.idle_timeout
        ):
            payload = json_module.loads(line)
            if "schema" in payload:  # the trace header, not an event
                continue
            event = Event.from_payload(payload)
            if args.kind is not None and event.kind != args.kind:
                continue
            if args.tier is not None and event.tier != args.tier:
                continue
            print(event.describe(), flush=True)
            shown += 1
    except KeyboardInterrupt:
        pass
    print(f"({shown} events followed from {args.trace})")
    return 0


def build_live_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.cli live",
        description="Scrape a running live server's /metrics and render "
        "the per-tier dashboard (DESIGN.md §14).",
    )
    parser.add_argument(
        "url", help="base URL printed by `serve --live-port` (e.g. http://127.0.0.1:9100)"
    )
    parser.add_argument(
        "--watch", action="store_true", help="re-scrape until interrupted"
    )
    parser.add_argument(
        "--interval", type=float, default=2.0, help="--watch scrape interval (seconds)"
    )
    return parser


def run_live_cmd(argv: list[str]) -> int:
    """The ``live`` subcommand: a terminal dashboard over one scrape.

    Works from the exposition alone — quantiles are reconstructed from
    the histogram buckets, which is all a remote scraper ever sees.
    """
    from urllib.request import urlopen

    from ..core.telemetry import dashboard_views, parse_exposition
    from .reporting import format_table, ms

    args = build_live_parser().parse_args(argv)
    base = args.url.rstrip("/")

    def scrape_once() -> None:
        with urlopen(f"{base}/metrics", timeout=10.0) as response:
            text = response.read().decode()
        samples = parse_exposition(text)
        rows = [
            (
                view.tier,
                view.admitted,
                view.completed,
                view.shed,
                view.cancelled,
                view.failed,
                ms(view.p50_latency),
                ms(view.p95_latency),
                ms(view.p99_latency),
            )
            for view in dashboard_views(samples)
        ]
        events = sum(value for _, value in samples.get("repro_events_total", []))
        print(
            format_table(
                (
                    "tier",
                    "admitted",
                    "completed",
                    "shed",
                    "cancelled",
                    "failed",
                    "~p50",
                    "~p95",
                    "~p99",
                ),
                rows,
                title=f"live telemetry ({base}, {int(events)} events, "
                "bucket-estimated quantiles)",
            )
        )

    try:
        scrape_once()
        while args.watch:
            time.sleep(args.interval)
            scrape_once()
    except KeyboardInterrupt:
        pass
    return 0


def run_one(name: str, quick: bool, out: Path | None) -> str:
    full, small = _EXPERIMENTS[name]
    start = time.perf_counter()
    result = (small if quick else full)()
    elapsed = time.perf_counter() - start
    text = result.render()
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{name}.txt").write_text(text + "\n")
    return f"{text}\n[{name}: {elapsed:.1f}s wall]"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "serve":
        return run_serve(argv[1:])
    if argv and argv[0] == "trace":
        return run_trace_cmd(argv[1:])
    if argv and argv[0] == "traffic":
        return run_traffic_cmd(argv[1:])
    if argv and argv[0] == "live":
        return run_live_cmd(argv[1:])
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        for name in sorted(_EXPERIMENTS):
            print(name)
        return 0
    names = sorted(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        print(run_one(name, args.quick, args.out))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
