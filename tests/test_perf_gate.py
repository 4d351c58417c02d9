"""Unit tests for the CI perf-regression gate (benchmarks/perf_gate.py).

The gate is exercised hermetically on synthetic BENCH_hotpath.json
artifacts: no microbench runs here, just the comparison logic — anchor
normalisation, the median-regression threshold, the kernel-speedup
floor, the injected-slowdown self-test and malformed-artifact handling.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_GATE_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "perf_gate.py"
_spec = importlib.util.spec_from_file_location("perf_gate", _GATE_PATH)
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)

#: A healthy run: kernel gangs well under the float64 reference ones.
WALLS = {
    "solo": 1.0e-3,
    "reference_n4": 3.0e-3,
    "gang_n4": 1.2e-3,
    "reference_n8": 3.1e-3,
    "gang_n8": 1.3e-3,
}


def artifact(tmp_path, name, walls):
    path = tmp_path / f"{name}.json"
    path.write_text(
        json.dumps(
            {
                "name": "hotpath",
                "config": {"quick": True},
                "metrics": {"wall_time_s_per_step": walls},
            }
        )
    )
    return path


def run_gate(tmp_path, fresh_walls, *extra, baseline_walls=WALLS):
    return perf_gate.main(
        [
            "--baseline", str(artifact(tmp_path, "baseline", baseline_walls)),
            "--fresh", str(artifact(tmp_path, "fresh", fresh_walls)),
            *extra,
        ]
    )


def test_identical_runs_pass(tmp_path):
    assert run_gate(tmp_path, dict(WALLS)) == 0


def test_uniformly_slower_machine_passes(tmp_path):
    """A 3x slower worker scales every scenario including the anchor —
    the normalised ratios are unchanged, so the gate must not trip."""
    assert run_gate(tmp_path, {k: v * 3.0 for k, v in WALLS.items()}) == 0


def test_across_the_board_regression_fails(tmp_path):
    """All gang scenarios 30% slower relative to solo → median trips."""
    slower = {k: v * (1.3 if k != "solo" else 1.0) for k, v in WALLS.items()}
    assert run_gate(tmp_path, slower) == 1


def test_small_regression_within_threshold_passes(tmp_path):
    slower = {k: v * (1.1 if k != "solo" else 1.0) for k, v in WALLS.items()}
    assert run_gate(tmp_path, slower) == 0


def test_threshold_is_configurable(tmp_path):
    slower = {k: v * (1.1 if k != "solo" else 1.0) for k, v in WALLS.items()}
    assert run_gate(tmp_path, slower, "--threshold", "0.05") == 1


def test_lost_batched_speedup_fails_despite_median(tmp_path):
    """A kernel slowdown hits the solo anchor too, so the normalised
    median cannot see it — the kernel-vs-reference floor must."""
    lost = {k: v * (1.0 if k.startswith("reference") else 2.2) for k, v in WALLS.items()}
    assert run_gate(tmp_path, lost, "--min-speedup-n8", "1.0") == 0
    assert run_gate(tmp_path, lost) == 1


@pytest.mark.parametrize("factor", [0.7, 1.5])
def test_reference_swing_does_not_trip_the_median(tmp_path, factor):
    """The float64 reference is a test oracle whose wall-time swings
    with machine load; only the kernel scenarios feed the median."""
    swung = {k: v * (factor if k.startswith("reference") else 1.0) for k, v in WALLS.items()}
    assert run_gate(tmp_path, swung) == 0


def test_injected_slowdown_demonstrates_failure(tmp_path):
    """The CI self-test step: identical artifacts + --inject-slowdown
    1.3 must fail, proving the gate can actually fire."""
    assert run_gate(tmp_path, dict(WALLS), "--inject-slowdown", "1.3") == 1


def test_injected_slowdown_below_threshold_passes(tmp_path):
    assert run_gate(tmp_path, dict(WALLS), "--inject-slowdown", "1.1") == 0


@pytest.mark.parametrize("missing", ["solo", "gang_n8"])
def test_missing_scenario_is_an_error_not_a_pass(tmp_path, missing):
    broken = {k: v for k, v in WALLS.items() if k != missing}
    assert run_gate(tmp_path, broken) == 2


def test_malformed_artifact_is_an_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    good = artifact(tmp_path, "baseline", WALLS)
    assert perf_gate.main(["--baseline", str(good), "--fresh", str(path)]) == 2


#: A healthy data-plane artifact: well over the 2.0x floor.
PLANE_METRICS = {"speedup_cached": 4.5, "identical_selections": True}


def plane_artifact(tmp_path, name, metrics):
    path = tmp_path / f"{name}.json"
    path.write_text(
        json.dumps(
            {"name": "data_plane", "config": {"quick": True}, "metrics": metrics}
        )
    )
    return path


def run_gate_with_plane(tmp_path, fresh_metrics, *extra,
                        baseline_metrics=PLANE_METRICS):
    return run_gate(
        tmp_path,
        dict(WALLS),
        "--data-plane-baseline",
        str(plane_artifact(tmp_path, "plane_baseline", baseline_metrics)),
        "--data-plane-fresh",
        str(plane_artifact(tmp_path, "plane_fresh", fresh_metrics)),
        *extra,
    )


def test_data_plane_identical_runs_pass(tmp_path):
    assert run_gate_with_plane(tmp_path, dict(PLANE_METRICS)) == 0


def test_data_plane_lost_speedup_fails(tmp_path):
    """The cached speedup falling under the 2.0x floor fails the gate
    even with zero regression vs the (equally bad) baseline."""
    lost = dict(PLANE_METRICS, speedup_cached=1.5)
    assert run_gate_with_plane(tmp_path, lost, baseline_metrics=lost) == 1


def test_data_plane_regression_fails(tmp_path):
    """Above the floor but >20% below the committed baseline: a real
    regression the floor alone would wave through."""
    regressed = dict(PLANE_METRICS, speedup_cached=3.0)
    assert run_gate_with_plane(tmp_path, regressed) == 1


def test_data_plane_small_regression_passes(tmp_path):
    assert run_gate_with_plane(
        tmp_path, dict(PLANE_METRICS, speedup_cached=4.0)
    ) == 0


def test_data_plane_floor_is_configurable(tmp_path):
    steady = dict(PLANE_METRICS, speedup_cached=4.5)
    assert run_gate_with_plane(
        tmp_path, steady, "--min-cache-speedup", "5.0"
    ) == 1


def test_data_plane_inexact_selections_fail(tmp_path):
    """A cache that changes answers must never pass, whatever the speedup."""
    inexact = dict(PLANE_METRICS, identical_selections=False)
    assert run_gate_with_plane(tmp_path, inexact) == 1


def test_data_plane_injected_slowdown_demonstrates_failure(tmp_path):
    """The CI self-test covers the data-plane check too: the injected
    factor divides the fresh cached speedup below the floor."""
    assert run_gate_with_plane(tmp_path, dict(PLANE_METRICS),
                               "--inject-slowdown", "3.0") == 1


def test_data_plane_malformed_artifact_is_an_error(tmp_path):
    assert run_gate_with_plane(tmp_path, {"speedup_cached": "fast"}) == 2


def test_data_plane_flags_go_together(tmp_path):
    with pytest.raises(SystemExit):
        run_gate(
            tmp_path,
            dict(WALLS),
            "--data-plane-fresh",
            str(plane_artifact(tmp_path, "plane_fresh", PLANE_METRICS)),
        )
