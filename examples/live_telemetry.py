#!/usr/bin/env python3
"""Live telemetry: watch a fleet run over HTTP while it executes.

DESIGN.md §14: the event log fans out into bounded subscriptions, a
collector folds the stream into a Prometheus-style metrics registry,
and a stdlib HTTP server publishes `/metrics`, an SSE `/events` feed
and `/healthz` — all without perturbing the run (a slow scraper drops
its own events, counted, instead of stalling the virtual clock).

This example serves one small multi-tenant burst with a `LiveServer`
attached and scrapes the endpoints over real HTTP the way a dashboard
would.  The registry and `FleetStats` are two views of one lifecycle
fold — the collector folds the event stream, `fleet.stats()` the
fleet's own records — so the example closes by checking that both give
the same p50/p95/p99.

Run:  python examples/live_telemetry.py
"""

import json
import urllib.request

from repro.core.config import PrismConfig
from repro.core.events import EventLog
from repro.core.fleet import FleetConfig, FleetService
from repro.core.tenancy import TenancyConfig, TenantPolicy
from repro.data import get_dataset
from repro.data.workloads import build_batches
from repro.device.platforms import get_profile
from repro.harness import shared_model, shared_tokenizer
from repro.harness.live import LiveServer
from repro.model.zoo import QWEN3_0_6B

NUM_REQUESTS = 10


def scrape(url: str) -> str:
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.read().decode()


def main() -> None:
    model = shared_model(QWEN3_0_6B)
    tokenizer = shared_tokenizer(QWEN3_0_6B)
    queries = get_dataset("wikipedia").queries(NUM_REQUESTS, num_candidates=8)
    batches = build_batches(queries, tokenizer, QWEN3_0_6B.max_seq_len)

    # Two tenant classes: "greedy" has an empty token bucket (rate 0,
    # burst 2), so its traffic beyond two requests sheds `rate_limit`.
    tenancy = TenancyConfig(policies={"greedy": TenantPolicy(rate=0.0, burst=2.0)})
    log = EventLog()
    fleet = FleetService.homogeneous(
        model,
        get_profile("nvidia_5070"),
        2,
        fleet_config=FleetConfig(max_batch=4),
        config=PrismConfig(numerics=False),
        tenancy=tenancy,
        event_log=log,
    )

    live = LiveServer(log, tenancy=tenancy).start()
    print(f"live telemetry at {live.url}\n")

    for index, batch in enumerate(batches):
        tenant = "greedy" if index % 2 else f"t{index % 3}"
        fleet.submit_request(batch, 2, at=index * 0.002, tenant=tenant)
    fleet.drain()

    # --- what a dashboard sees, over real HTTP ---------------------
    health = json.loads(scrape(live.url + "/healthz"))
    print(f"/healthz: {health['events']} events folded, "
          f"{health['dropped']} dropped, {health['subscribers']} subscriber(s)")

    metrics = scrape(live.url + "/metrics")
    print("/metrics (request counters):")
    for line in metrics.splitlines():
        if line.startswith(("repro_requests_", "repro_tenant_shed_total")):
            print(f"  {line}")

    print("\n/events?replay=1 (first three shed frames):")
    frames = scrape(live.url + "/events?replay=1&kind=shed&max=3")
    for line in frames.splitlines():
        if line.startswith("data: "):
            event = json.loads(line[len("data: "):])
            print(f"  {event['tenant']}/{event['request']} shed: "
                  f"{event['data']['detail']}")

    # --- one fold, two views: the live registry and fleet.stats() --
    live.telemetry.drain()
    row = live.telemetry.collector.lifecycle.tier("fleet")
    stats = fleet.stats()
    live.close()
    registry = (row.p50_latency, row.p95_latency, row.p99_latency)
    post_hoc = (stats.p50_latency, stats.p95_latency, stats.p99_latency)
    if registry != post_hoc:
        raise SystemExit(f"live registry {registry} != fleet.stats() {post_hoc}")
    print("\none fold: fleet.stats() and the live registry agree: "
          + ", ".join(f"p{p}={value * 1e3:.1f}ms" for p, value in zip((50, 95, 99), registry)))


if __name__ == "__main__":
    main()
