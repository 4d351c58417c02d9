"""The benchmark's own tests: ``python3 -m pytest perfbench -q`` from the root."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import stability  # noqa: E402
from perfbench.tracer import WRAPPER_MARK, Tracer, unrestored  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    ALL_DATASETS,
    FusedPlaneFleet,
    OfflineSweep,
    TenantOverload,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def smoke(name: str):
    """A workload shrunk to seconds, same code paths."""
    if name == "offline_sweep":
        workload = OfflineSweep()
        workload.datasets = tuple(ALL_DATASETS[:2])
    elif name == "tenant_overload":
        workload = TenantOverload()
        workload.num_tenants = 60
        workload.duration_s = 2.0
        workload.probe_requests = 8
        workload.base_queries = 32
    else:
        workload = FusedPlaneFleet()
        workload.unique_queries = 64
        workload.num_requests = 16
    return workload


WORKLOADS = ("offline_sweep", "tenant_overload", "fused_plane_fleet")


@pytest.fixture(scope="module")
def served():
    """One smoke set-up and pass per workload, shared by the tests."""
    runs = {}
    for name in WORKLOADS:
        workload = smoke(name)
        inputs = workload.setup(1)
        runs[name] = (workload, inputs, workload.serve(inputs))
    return runs


def test_metric_names_and_units():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))
    units = {m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit) for unit in units)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_pass_is_correct(served, name):
    workload, inputs, outcome = served[name]
    assert workload.check(inputs, outcome) == []
    assert outcome.attempted > 0 and outcome.failed == 0
    metrics = workload.metrics(inputs, outcome)
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert set(metrics) == end_to_end - {"sim_rps", "setup_s", "rss_peak_mib"}
    assert all(value > 0 for value in metrics.values()), metrics


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_virtual_metrics(served, name):
    workload, inputs, outcome = served[name]
    again = workload.setup(1)
    assert workload.metrics(again, workload.serve(again)) == workload.metrics(inputs, outcome)


def _content(name: str, inputs) -> list[bytes]:
    if name == "offline_sweep":
        return [str(q.seed).encode() for cell in inputs.queries.values() for q in cell]
    batches = inputs.batches if name == "fused_plane_fleet" else [r.batch for r in inputs.requests]
    return [batch.tokens.tobytes() for batch in batches]


@pytest.mark.parametrize("name", WORKLOADS)
def test_other_seed_other_inputs(served, name):
    workload, inputs, _ = served[name]
    other = workload.setup(2)
    assert _content(name, other) != _content(name, inputs)


def test_check_catches_a_wrong_selection(served):
    workload, inputs, outcome = served["fused_plane_fleet"]
    _, responses = outcome.detail
    victim = next(r for r in responses if r.ok and r.cache is None)
    original = victim.result.top_indices
    victim.result.top_indices = original[::-1].copy()
    try:
        assert any("differs from the solo replay" in f for f in workload.check(inputs, outcome))
    finally:
        victim.result.top_indices = original


def test_check_catches_a_duplicate_index(served):
    workload, inputs, outcome = served["offline_sweep"]
    result = outcome.detail["prism", workload.models[0], workload.platforms[0]].results[0]
    original = result.top_indices
    result.top_indices = np.full_like(original, original[0])
    try:
        assert any("bad selection" in f for f in workload.check(inputs, outcome))
    finally:
        result.top_indices = original


def test_wrappers_restore_the_originals():
    from repro.core.engine import RerankTask
    from repro.harness import runner
    from repro.model.transformer import CrossEncoderModel

    step = RerankTask.__dict__["step"]
    forward = CrossEncoderModel.__dict__["forward_layer"]
    build_batch = runner.build_batch
    tracer = Tracer()
    tracer.install()
    try:
        assert hasattr(RerankTask.__dict__["step"], WRAPPER_MARK)
        assert hasattr(CrossEncoderModel.__dict__["forward_layer"], WRAPPER_MARK)
        assert hasattr(runner.build_batch, WRAPPER_MARK)
    finally:
        patches = tracer.uninstall()
    assert unrestored(patches) == []
    assert RerankTask.__dict__["step"] is step
    assert CrossEncoderModel.__dict__["forward_layer"] is forward
    assert runner.build_batch is build_batch


@pytest.mark.parametrize("name", WORKLOADS)
def test_tracing_does_not_perturb_the_virtual_clock(served, name):
    workload, inputs, outcome = served[name]
    tracer = Tracer()
    tracer.install()
    try:
        traced_inputs = workload.setup(1)
        tracer.set_phase("pass")
        traced = workload.serve(traced_inputs)
    finally:
        patches = tracer.uninstall()
    assert unrestored(patches) == []
    assert workload.metrics(traced_inputs, traced) == workload.metrics(inputs, outcome)
    layers = tracer.layer_metrics(passes=1)
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]} - {
        "baselines.vlat_reduction_vs_offload",
        "trace.overhead_x",
    }
    assert layers["engine.step.calls"] > 0
    assert tracer.spans and all(end >= start for _, _, start, end, _, _ in tracer.spans)
    own = {
        "offline_sweep": "harness.run_system.calls",
        "tenant_overload": "tenancy.admit.calls",
        "fused_plane_fleet": "model.forward_layer_batched.calls",
    }
    for workload_name, metric in own.items():
        assert (layers[metric] > 0) == (workload_name == name), metric


def test_spread_and_worsening():
    assert stability.spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert stability.spread([9.0, 10.0, 10.0, 11.0]) > 0
    assert stability.worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert stability.worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert stability.parse_seeds("1-3,7") == [1, 2, 3, 7]


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run fails cleanly."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "offline_sweep", "--seed", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
