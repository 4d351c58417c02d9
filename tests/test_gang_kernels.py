"""The forward kernel against the float64 reference layer (DESIGN.md §11).

Every layer crossing runs the model's one kernel
(``CrossEncoderModel.forward_layer_batched``): a fused, float32 forward
over cached cast weights, whose float64 output then gets the exact
semantic channel.  The oracle is the float64 sequential path in
``tests/reference_impls.py``, patched in for the shared model's
``forward_layer``.  The contract is *strict* equivalence:
byte-identical selections, identical fused groups and
identical event-log lines and drops, across every engine family and
through a fusion gang of mixed candidate-set sizes, mid-gang
cancellation and mid-gang injected faults.  Only the harness's own
wall-clock may differ.
"""

from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest

from repro.baselines import (
    HFEngine,
    HFOffloadEngine,
    HFOffloadQuantEngine,
    HFQuantEngine,
    prism_quant_engine,
)
from repro.core.config import PrismConfig
from repro.core.engine import PrismEngine
from repro.core.events import EventLog
from repro.core.scheduler import DeviceScheduler, SchedulerConfig
from repro.data.datasets import get_dataset
from repro.data.workloads import build_batch
from repro.device.faults import (
    FAULT_REPLICA_STALL,
    FAULT_SSD_READ_ERROR,
    FaultEvent,
)
from repro.device.platforms import get_profile
from repro.harness.runner import shared_model, shared_tokenizer
from repro.model.transformer import CrossEncoderModel
from repro.model.zoo import QWEN3_0_6B
from tests import reference_impls as ref


def make_batch(num_candidates=12, query_idx=0):
    query = get_dataset("wikipedia").queries(query_idx + 1, num_candidates)[query_idx]
    tokenizer = shared_tokenizer(QWEN3_0_6B)
    return build_batch(query, tokenizer, QWEN3_0_6B.max_seq_len)


def _prism():
    device = get_profile("nvidia_5070").create()
    engine = PrismEngine(shared_model(QWEN3_0_6B), device, PrismConfig())
    engine.prepare()
    return engine


def _prism_quant():
    device = get_profile("nvidia_5070").create()
    engine = prism_quant_engine(shared_model(QWEN3_0_6B), device, PrismConfig.quant())
    engine.prepare()
    return engine


def _baseline(engine_cls):
    device = get_profile("nvidia_5070").create()
    engine = engine_cls(shared_model(QWEN3_0_6B), device)
    engine.prepare()
    return engine


#: name -> fresh prepared engine with numerics ON (the kernel only runs
#: on the numerics path), covering every engine family.
ENGINE_FACTORIES = {
    "prism": _prism,
    "prism_quant": _prism_quant,
    "hf": lambda: _baseline(HFEngine),
    "hf_offload": lambda: _baseline(HFOffloadEngine),
    "hf_quant": lambda: _baseline(HFQuantEngine),
    "hf_offload_quant": lambda: _baseline(HFOffloadQuantEngine),
}

#: Mixed candidate-set sizes: the gang members are deliberately ragged.
GANG_SIZES = (12, 7, 4)

SCENARIOS = ("plain", "cancel", "stall", "read_error")


def run_fusion(engine_name, scenario, reference=False):
    """One fused-gang drain; returns every observable artifact."""
    model = shared_model(QWEN3_0_6B)  # every factory's engine runs it
    with ref.patch_forward_layer(model) if reference else nullcontext():
        return _run_fusion(engine_name, scenario)


def _run_fusion(engine_name, scenario):
    engine = ENGINE_FACTORIES[engine_name]()
    log = EventLog()
    engine.device.attach_event_log(log)
    scheduler = DeviceScheduler(
        engine,
        SchedulerConfig(policy="fusion", max_concurrency=4),
        event_log=log,
    )
    now = engine.device.clock.now
    if scenario == "stall":
        # Non-fatal mid-gang fault: the device freezes mid-sweep.
        engine.device.install_faults(
            [FaultEvent(FAULT_REPLICA_STALL, at=now + 0.01, duration=0.05)]
        )
    elif scenario == "read_error":
        # Fatal-to-one-task fault: an SSD read dies mid-gang.
        engine.device.install_faults(
            [FaultEvent(FAULT_SSD_READ_ERROR, at=now + 0.01)]
        )
    for idx, n in enumerate(GANG_SIZES):
        cancel_at = None
        if scenario == "cancel" and idx == 1:
            cancel_at = now + 0.02  # lands at a mid-pass layer boundary
        scheduler.submit_request(
            make_batch(n, idx), k=3, arrival=now, cancel_at=cancel_at
        )
    outcomes = scheduler.drain()
    return {
        "selections": {
            o.request_id: (
                o.result.top_indices.tobytes(),
                o.result.top_scores.tobytes(),
            )
            for o in outcomes
        },
        "groups": (scheduler.fused_group_sizes(), scheduler.fused_group_ids()),
        "events": tuple(log.lines()),
        "dropped": [(d.request_id, d.reason, d.at, d.detail) for d in scheduler.dropped],
    }


@pytest.mark.parametrize("engine_name", sorted(ENGINE_FACTORIES))
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_batched_equals_sequential(engine_name, scenario):
    """The kernel entry point against the float64 sequential reference:
    byte-identical selections, fused groups, events and drops — per family,
    through mixed sizes, cancellation and injected faults."""
    kernel = run_fusion(engine_name, scenario)
    reference = run_fusion(engine_name, scenario, reference=True)
    assert kernel["selections"] == reference["selections"]
    assert kernel["groups"] == reference["groups"]
    assert kernel["events"] == reference["events"]
    assert kernel["dropped"] == reference["dropped"]


def test_scenarios_actually_bite():
    """The cancel/fault scenarios must exercise their code paths — a
    scenario that drops nothing would vacuously pass the equivalence."""
    assert [d[1] for d in run_fusion("prism", "cancel")["dropped"]] == ["cancelled"]
    assert [d[1] for d in run_fusion("prism", "read_error")["dropped"]] == ["failed"]
    assert len(run_fusion("prism", "plain")["selections"]) == len(GANG_SIZES)


def test_reference_patch_reaches_the_engines():
    """The equivalence above must compare two different forwards: with
    the reference patched in, the kernel never runs."""
    calls = []
    original = CrossEncoderModel.forward_layer_batched

    def counting(self, states, layer_idx):
        calls.append(len(states))
        return original(self, states, layer_idx)

    with mock.patch.object(CrossEncoderModel, "forward_layer_batched", counting):
        run_fusion("prism", "plain", reference=True)
        assert calls == []
        run_fusion("prism", "plain")
    assert calls and set(calls) == {1}


def test_fusion_gang_sweeps_in_lockstep_with_batched_kernels():
    """The kernel must not change the schedule shape: the schedule
    still shows fused groups the size of the gang."""
    engine = ENGINE_FACTORIES["prism"]()
    scheduler = DeviceScheduler(engine, SchedulerConfig(policy="fusion"))
    now = engine.device.clock.now
    for idx, n in enumerate(GANG_SIZES):
        scheduler.submit_request(make_batch(n, idx), k=3, arrival=now)
    scheduler.drain()
    assert max(scheduler.fused_group_sizes()) == len(GANG_SIZES)


class TestKernelNumerics:
    """Hidden states under the kernel against the float64 reference."""

    def test_kernel_matches_reference_numerics(self):
        """Ragged members crossing three layers: hidden states agree to
        the kernel's reduced precision; scores (the observables) are
        byte-identical because the semantic channel is injected exactly
        on both paths."""
        model = shared_model(QWEN3_0_6B)
        kernel = [model.embed(make_batch(n, i)) for i, n in enumerate(GANG_SIZES)]
        reference = [model.embed(make_batch(n, i)) for i, n in enumerate(GANG_SIZES)]
        for layer in range(3):
            for state in kernel:
                model.forward_layer(state, layer)
            for state in reference:
                ref.forward_layer(model, state, layer)
        for a, b in zip(kernel, reference):
            np.testing.assert_allclose(a.hidden, b.hidden, rtol=1e-4, atol=1e-4)
            assert a.hidden.dtype == np.float64  # cast back after the kernel
            assert model.score(a).tobytes() == model.score(b).tobytes()
