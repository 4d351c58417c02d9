#!/usr/bin/env python3
"""Fleet serving: batched, sharded selection across device replicas.

DESIGN.md §5: a single :class:`SemanticSelectionService` serves one
request at a time on one device.  This example stands up a
heterogeneous 4-replica fleet (two RTX 5070s, two M2 Mac Minis) behind
a batched admission queue, replays an open-loop traffic wave under
each routing policy, then runs the coordinated idle-maintenance pass
that propagates the median self-calibrated threshold fleet-wide.

Run:  python examples/fleet_serving.py
"""

from repro.core.api import FleetServer, SelectionRequest, serve_all
from repro.core.config import PrismConfig
from repro.core.fleet import ROUTING_POLICIES, FleetConfig, FleetService
from repro.data import get_dataset
from repro.data.workloads import build_batches
from repro.device.platforms import get_profile
from repro.harness import shared_model, shared_tokenizer
from repro.harness.reporting import format_table, ms
from repro.model.zoo import QWEN3_0_6B

NUM_REQUESTS = 16
ARRIVAL_INTERVAL_S = 0.25  # open-loop: one request every 250 ms


def main() -> None:
    model = shared_model(QWEN3_0_6B)
    tokenizer = shared_tokenizer(QWEN3_0_6B)
    queries = get_dataset("wikipedia").queries(NUM_REQUESTS, num_candidates=20)
    batches = build_batches(queries, tokenizer, QWEN3_0_6B.max_seq_len)
    profiles = [
        get_profile("nvidia_5070"),
        get_profile("nvidia_5070"),
        get_profile("apple_m2"),
        get_profile("apple_m2"),
    ]

    rows = []
    for routing in sorted(ROUTING_POLICIES):
        fleet = FleetService(
            model,
            profiles,
            fleet_config=FleetConfig(max_batch=4, max_wait_ms=100.0, routing=routing),
            config=PrismConfig(numerics=False),
            sample_rate=0.5,
        )
        serve_all(
            FleetServer(fleet),
            [
                SelectionRequest(
                    batch=batch, k=10, request_id=index, arrival=index * ARRIVAL_INTERVAL_S
                )
                for index, batch in enumerate(batches)
            ],
        )
        stats = fleet.stats()
        per_replica = "/".join(
            str(replica.requests_served) for replica in fleet.replicas
        )
        rows.append(
            (
                routing,
                f"{stats.throughput_rps:.2f}/s",
                ms(stats.p50_latency),
                ms(stats.p99_latency),
                per_replica,
            )
        )
        report = fleet.idle_maintenance()
        if routing == "ewma" and report is not None:
            consensus = report.consensus_threshold
            print(
                f"[{routing}] idle maintenance: {report.replicas_adjusted} replicas "
                f"stepped, consensus threshold -> {consensus:.3f} "
                f"(from {['%.3f' % t for t in report.pre_consensus_thresholds]})\n"
            )

    print(
        format_table(
            ("routing", "throughput", "p50", "p99", "requests/replica"),
            rows,
            title="Heterogeneous fleet (2x RTX 5070 + 2x M2), 16-request wave",
        )
    )
    print(
        "\nThe EWMA policy learns the M2 replicas are ~6x slower and "
        "shifts traffic to the 5070s; round-robin splits evenly and "
        "pays the tail for it."
    )


if __name__ == "__main__":
    main()
