#!/usr/bin/env python3
"""Concurrent serving on one device: priority lanes vs FIFO.

DESIGN.md §6: every engine pass is a resumable :class:`RerankTask`
(``run()`` drives it to completion), and a
:class:`DeviceScheduler` time-multiplexes several in-flight tasks on
the device's single virtual clock, preempting at layer boundaries.
This example mixes a batch lane (heavy candidate pools, all due at
t=0) with an interactive lane (light requests trickling in) and shows
the scheduling policy moving tail latency while every selection stays
byte-identical.

Run:  python examples/concurrent_serving.py
"""

from repro.core.api import DeviceServer, SelectionRequest, serve_all
from repro.core.config import PrismConfig
from repro.core.scheduler import LANE_BATCH, LANE_INTERACTIVE, SchedulerConfig
from repro.core.service import SemanticSelectionService
from repro.data import get_dataset
from repro.data.workloads import build_batches
from repro.device.platforms import get_profile
from repro.harness import shared_model, shared_tokenizer
from repro.harness.reporting import format_table, ms
from repro.model.zoo import QWEN3_0_6B

NUM_BATCH = 3  # heavy requests, 40 candidates each, due immediately
NUM_INTERACTIVE = 6  # light requests, 8 candidates, one every 300 ms


def main() -> None:
    model = shared_model(QWEN3_0_6B)
    tokenizer = shared_tokenizer(QWEN3_0_6B)
    spec = get_dataset("wikipedia")
    heavy = build_batches(
        spec.queries(NUM_BATCH, num_candidates=40), tokenizer, QWEN3_0_6B.max_seq_len
    )
    light = build_batches(
        spec.queries(NUM_INTERACTIVE, num_candidates=8), tokenizer, QWEN3_0_6B.max_seq_len
    )

    requests = [
        SelectionRequest(
            batch=batch, k=10, request_id=i, priority=LANE_BATCH, arrival=0.0
        )
        for i, batch in enumerate(heavy)
    ] + [
        SelectionRequest(
            batch=batch,
            k=3,
            request_id=NUM_BATCH + i,
            priority=LANE_INTERACTIVE,
            arrival=0.3 * i,
        )
        for i, batch in enumerate(light)
    ]

    rows = []
    selections = {}
    for policy in ("fifo", "round_robin", "priority"):
        service = SemanticSelectionService(
            model,
            get_profile("nvidia_5070"),
            config=PrismConfig(numerics=False),
            scheduler=SchedulerConfig(policy=policy, max_concurrency=5),
        )
        responses = serve_all(DeviceServer(service), requests)
        selections[policy] = [
            tuple(r.result.top_indices.tolist())
            for r in sorted(responses, key=lambda r: r.request_id)
        ]
        interactive = sorted(
            r.e2e_seconds for r in responses if r.lane == LANE_INTERACTIVE
        )
        batch_lane = sorted(r.e2e_seconds for r in responses if r.lane == LANE_BATCH)
        preempted = sum(
            1 for o in service.last_scheduler.stats().outcomes if o.preempted
        )
        rows.append(
            (
                policy,
                ms(interactive[len(interactive) // 2]),
                ms(interactive[-1]),
                ms(batch_lane[-1]),
                preempted,
            )
        )

    print(
        format_table(
            ("policy", "interactive p50", "interactive worst", "batch worst", "preempted"),
            rows,
            title="One device, mixed lanes: scheduling policy vs latency",
        )
    )
    identical = all(s == selections["fifo"] for s in selections.values())
    print(f"\nselections identical across policies: {'yes' if identical else 'NO'}")


if __name__ == "__main__":
    main()
