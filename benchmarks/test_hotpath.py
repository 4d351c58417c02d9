"""Hot-path microbench: wall-clock per simulated layer step (DESIGN.md §11).

Unlike every other bench in this directory, the metric here is the
*harness's own* wall-clock, not simulated seconds: the forward kernel
changes nothing observable inside the simulation (selections, traces
and events are byte-identical to the float64 reference —
``tests/test_gang_kernels.py``), it only makes each layer crossing's
numpy forward cheaper.  This bench measures that directly — fusion
gangs of N ∈ {1, 4, 8} on the kernel, and the same N=4 and N=8 gangs
with the float64 reference layer (``tests/reference_impls.py``)
patched in for the model's ``forward_layer`` — and records it to
``benchmarks/results/BENCH_hotpath.json``, the committed baseline the
CI perf-regression gate (``benchmarks/perf_gate.py``) diffs fresh runs
against (see ``docs/performance.md``).

Wall-clock is machine-dependent, so the artifact's absolute numbers are
only comparable within one run; the gate therefore normalises every
scenario by the same run's ``solo`` anchor before comparing runs.
"""

import time
from contextlib import nullcontext

from conftest import BENCH_QUICK, run_once

from repro.harness.reporting import format_table

from repro.core.config import PrismConfig
from repro.core.engine import PrismEngine
from repro.core.scheduler import DeviceScheduler, SchedulerConfig
from repro.data.datasets import get_dataset
from repro.data.workloads import build_batch
from repro.device.platforms import get_profile
from repro.harness.runner import shared_model, shared_tokenizer
from repro.model.zoo import QWEN3_0_6B
from tests import reference_impls as ref

#: Candidates per gang member.
NUM_CANDIDATES = 8
#: Timed repeats per scenario; the best (minimum) repeat is recorded —
#: the standard microbench estimator, robust to co-tenant load spikes.
REPEATS = 3 if BENCH_QUICK else 7
#: (scenario name, gang size, float64 reference layer?)
SCENARIOS = (
    ("solo", 1, False),
    ("gang_n4", 4, False),
    ("reference_n4", 4, True),
    ("gang_n8", 8, False),
    ("reference_n8", 8, True),
)


def _batches(n):
    queries = get_dataset("wikipedia").queries(n, NUM_CANDIDATES)
    tokenizer = shared_tokenizer(QWEN3_0_6B)
    return [build_batch(query, tokenizer, QWEN3_0_6B.max_seq_len) for query in queries]


def _wall_time_per_step(gang_size: int, reference: bool) -> float:
    """One timed fused-gang drain → harness seconds per executed step.

    Pruning is disabled so every member crosses every layer: the bench
    measures the steady-state layer loop, not the (workload-dependent)
    early-termination depth.  Setup (engine prepare, batch building)
    happens outside the timed window.
    """
    device = get_profile("nvidia_5070").create()
    engine = PrismEngine(
        shared_model(QWEN3_0_6B), device, PrismConfig(pruning_enabled=False)
    )
    engine.prepare()
    scheduler = DeviceScheduler(
        engine, SchedulerConfig(policy="fusion", max_concurrency=gang_size)
    )
    now = device.clock.now
    for batch in _batches(gang_size):
        scheduler.submit_request(batch, k=3, arrival=now)
    with ref.patch_forward_layer(engine.model) if reference else nullcontext():
        t0 = time.perf_counter()
        scheduler.drain()
        wall = time.perf_counter() - t0
    return wall / sum(scheduler.fused_group_sizes())


def _measure_all() -> dict[str, float]:
    """Best-of-REPEATS per scenario, measured round-robin.

    Interleaving the scenarios across repeats (A B C, A B C, ...)
    decorrelates slow machine-load drift from the scenario axis; taking
    each scenario's minimum discards load spikes entirely.
    """
    samples: dict[str, list[float]] = {name: [] for name, _, _ in SCENARIOS}
    for _ in range(REPEATS):
        for name, size, reference in SCENARIOS:
            samples[name].append(_wall_time_per_step(size, reference))
    return {name: min(times) for name, times in samples.items()}


def test_batched_gang_kernels_cut_wall_clock(benchmark, record_artifact, record_metrics):
    wall = run_once(benchmark, _measure_all)
    speedup_n4 = wall["reference_n4"] / wall["gang_n4"]
    speedup_n8 = wall["reference_n8"] / wall["gang_n8"]
    record_artifact(
        "hotpath",
        format_table(
            ("scenario", "gang", "layer", "wall/step", "x solo"),
            [
                (
                    name,
                    size,
                    "float64 reference" if reference else "kernel",
                    f"{wall[name] * 1e6:.1f}us",
                    f"{wall[name] / wall['solo']:.2f}x",
                )
                for name, size, reference in SCENARIOS
            ],
            title=(
                "Hot-path microbench: harness wall-clock per simulated layer step "
                f"(qwen3-0.6b, nvidia_5070, {NUM_CANDIDATES} candidates/member, "
                f"best of {REPEATS}; kernel vs reference: N=4 {speedup_n4:.2f}x, "
                f"N=8 {speedup_n8:.2f}x)"
            ),
        ),
    )
    record_metrics(
        "hotpath",
        {
            "num_candidates": NUM_CANDIDATES,
            "repeats": REPEATS,
            "model": "qwen3-0.6b",
            "engine": "prism",
        },
        {
            "wall_time_s_per_step": wall,
            "speedup": {
                "kernel_vs_reference_n4": speedup_n4,
                "kernel_vs_reference_n8": speedup_n8,
            },
        },
    )

    # The float32 fused kernel cuts wall-clock per simulated step by
    # >= 2x against the float64 reference for an N=8 gang.  The
    # committed full-mode artifact shows the 2x; the quick-mode bar is
    # looser because it also runs on loaded CI workers.
    assert speedup_n8 >= (1.5 if BENCH_QUICK else 2.0), (
        f"kernel vs reference N=8 speedup {speedup_n8:.2f}x below bar "
        f"(per-step wall: {wall})"
    )
    assert speedup_n4 >= 1.2, f"kernel vs reference N=4 speedup {speedup_n4:.2f}x"
