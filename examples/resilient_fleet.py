#!/usr/bin/env python3
"""Resilient fleet serving: crash a replica mid-burst, keep every request.

DESIGN.md §9: faults are scheduled on the same virtual clock as the
work, so a replica crash is a deterministic, replayable event.  This
example replays one near-saturating burst three ways — fault-free,
crash with failover only, and crash with the queue-depth autoscaler —
and prints what the resilience plane recorded: failover attempts,
scaling events, and the throughput recovered by the replacement
replica.  No run loses a single request.

Run:  python examples/resilient_fleet.py
"""

from repro.core.api import FleetServer, SelectionRequest, serve_all
from repro.core.config import PrismConfig
from repro.core.fleet import FleetConfig, FleetService
from repro.core.resilience import (
    FAULT_REPLICA_CRASH,
    AutoscalerConfig,
    FaultEvent,
    FaultPlan,
    ResilienceConfig,
)
from repro.data import get_dataset
from repro.data.workloads import build_batches
from repro.device.platforms import get_profile
from repro.harness import shared_model, shared_tokenizer
from repro.harness.reporting import format_table, ms, pct
from repro.model.zoo import QWEN3_0_6B

NUM_REQUESTS = 16
CRASH_AT_S = 0.5  # replica 0 dies half a second into the burst


def main() -> None:
    model = shared_model(QWEN3_0_6B)
    tokenizer = shared_tokenizer(QWEN3_0_6B)
    queries = get_dataset("wikipedia").queries(NUM_REQUESTS, num_candidates=12)
    batches = build_batches(queries, tokenizer, QWEN3_0_6B.max_seq_len)

    crash = FaultPlan([FaultEvent(FAULT_REPLICA_CRASH, at=CRASH_AT_S, replica=0)])
    modes = {
        "fault-free": dict(),
        "crash + failover": dict(
            fault_plan=crash,
            resilience=ResilienceConfig(max_retries=2, cooldown_s=1e6),
        ),
        "crash + autoscaler": dict(
            fault_plan=crash,
            resilience=ResilienceConfig(max_retries=2, cooldown_s=1e6),
            autoscaler=AutoscalerConfig(
                max_replicas=3, scale_up_queue_depth=2, warmup_s=0.05,
                action_cooldown_s=0.1,
            ),
        ),
    }

    rows = []
    reference_throughput = None
    for mode, kwargs in modes.items():
        fleet = FleetService.homogeneous(
            model,
            get_profile("nvidia_5070"),
            2,
            fleet_config=FleetConfig(max_batch=2, max_wait_ms=0.0),
            config=PrismConfig(numerics=False),
            **kwargs,
        )
        responses = serve_all(
            FleetServer(fleet),
            [
                SelectionRequest(batch=batch, k=5, request_id=index)
                for index, batch in enumerate(batches)
            ],
        )
        stats = fleet.stats()
        completed = [r for r in responses if r.ok]
        if reference_throughput is None:
            reference_throughput = stats.throughput_rps
        rows.append(
            (
                mode,
                f"{len(completed)}/{NUM_REQUESTS}",
                stats.failed_over_requests,
                "/".join(
                    f"{e.action}@{ms(e.at)}" for e in stats.scaling_events
                ) or "-",
                f"{stats.throughput_rps:.2f}/s",
                pct(stats.throughput_rps / reference_throughput),
                ms(stats.p99_latency),
            )
        )
        for response in completed:
            if response.attempts > 1:
                print(
                    f"[{mode}] request {response.request_id}: replica "
                    f"{response.failed_over_from} failed it, attempt "
                    f"{response.attempts} completed on replica {response.replica}"
                )
    print()
    print(
        format_table(
            ("mode", "done", "failed over", "scaling", "throughput", "vs ref", "p99"),
            rows,
            title=f"Replica crash at {ms(CRASH_AT_S)}, {NUM_REQUESTS}-request burst",
        )
    )
    print(
        "\nFailover alone completes everything on the surviving replica "
        "at reduced throughput; the autoscaler spawns a replacement once "
        "the queue backs up and recovers most of the loss."
    )


if __name__ == "__main__":
    main()
