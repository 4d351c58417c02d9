"""Schema check over the machine-readable benchmark artifacts.

``benchmarks/results/BENCH_*.json`` files are the diffable performance
trajectory of the repo; downstream tooling (the CI bench-smoke upload,
trend scripts) consumes the whole directory at once.  That only works
if every artifact shares one top-level schema — ``{name, config,
metrics}`` — which this test enforces for every committed file, so a
bench that drifts back to free-form keys fails tier-1, not a consumer.
"""

import json
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "results"

#: The one schema every BENCH artifact carries (conftest.record_metrics).
EXPECTED_KEYS = {"name", "config", "metrics"}

#: Serving benches whose artifacts must exist in the committed results
#: (each is regenerated by its benchmarks/test_*.py and uploaded by the
#: CI bench-smoke job).
EXPECTED_BENCHES = {
    "concurrent_serving",
    "data_plane",
    "deadline_serving",
    "fleet_scaling",
    "hotpath",
    "resilience",
    "shared_weights",
}

#: Scenario keys the hot-path artifact must carry — the CI perf gate
#: (benchmarks/perf_gate.py) normalises and diffs exactly these.
HOTPATH_SCENARIOS = {
    "solo",
    "gang_n4",
    "reference_n4",
    "gang_n8",
    "reference_n8",
}


def bench_files() -> list[Path]:
    return sorted(RESULTS_DIR.glob("BENCH_*.json"))


def test_bench_artifacts_exist():
    names = {path.stem.removeprefix("BENCH_") for path in bench_files()}
    assert names >= EXPECTED_BENCHES, (
        f"missing BENCH artifacts for {sorted(EXPECTED_BENCHES - names)}"
    )


@pytest.mark.parametrize("path", bench_files(), ids=lambda p: p.name)
def test_bench_artifact_schema(path):
    payload = json.loads(path.read_text())
    assert set(payload) == EXPECTED_KEYS, (
        f"{path.name}: top-level keys {sorted(payload)} != {sorted(EXPECTED_KEYS)}"
    )
    assert payload["name"] == path.stem.removeprefix("BENCH_")
    assert isinstance(payload["config"], dict)
    assert "quick" in payload["config"], (
        f"{path.name}: config must record the quick smoke-size flag"
    )
    assert isinstance(payload["metrics"], dict) and payload["metrics"]


def test_hotpath_metrics_schema():
    """BENCH_hotpath.json is the perf-gate baseline: it must carry a
    positive wall-time per step for every scenario the gate compares."""
    payload = json.loads((RESULTS_DIR / "BENCH_hotpath.json").read_text())
    walls = payload["metrics"]["wall_time_s_per_step"]
    assert set(walls) == HOTPATH_SCENARIOS, (
        f"wall_time_s_per_step keys {sorted(walls)} != {sorted(HOTPATH_SCENARIOS)}"
    )
    for name, wall in walls.items():
        assert isinstance(wall, float) and wall > 0, f"{name}: bad wall-time {wall!r}"
    assert set(payload["metrics"]["speedup"]) == {
        "kernel_vs_reference_n4",
        "kernel_vs_reference_n8",
    }


def test_data_plane_metrics_schema():
    """BENCH_data_plane.json is the cache-speedup gate's baseline: it
    must carry the gated ratio, the exactness bit, and the workload's
    measured request-overlap fraction (the >=30% regime the speedup
    claim is scoped to)."""
    payload = json.loads((RESULTS_DIR / "BENCH_data_plane.json").read_text())
    metrics = payload["metrics"]
    assert isinstance(metrics["speedup_cached"], float)
    assert metrics["speedup_cached"] > 0
    assert metrics["identical_selections"] is True
    assert 0.0 <= metrics["request_overlap"] <= 1.0
    assert set(metrics["throughput_rps"]) == {"cache_off", "cache_on"}
    assert set(metrics["hits"]) == {"memo", "coalesced", "overlap", "misses"}


def test_bench_artifacts_share_one_schema():
    """The satellite's core claim: every artifact, same top-level keys."""
    schemas = {path.name: tuple(sorted(json.loads(path.read_text()))) for path in bench_files()}
    assert len(set(schemas.values())) == 1, f"schema drift across artifacts: {schemas}"
