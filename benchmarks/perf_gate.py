"""CI perf-regression gate over the hot-path microbench (DESIGN.md §11).

Compares a fresh ``BENCH_hotpath.json`` against the committed baseline
and exits non-zero when the hot path got slower.  Wall-clock is
machine-dependent, so absolute numbers are never compared across runs:
every gang scenario is first normalised by the *same run's* ``solo``
anchor (wall[scenario] / wall[solo]), which cancels the machine factor —
a uniformly slower CI worker produces identical ratios.  The gate then
fails when either

* the median normalised ratio across the kernel gang scenarios
  (``KERNEL_SCENARIOS``) regressed by more than ``--threshold``
  (default 20%) against the baseline, or
* the fresh run's N=8 kernel speedup (reference_n8 / gang_n8) fell
  below ``--min-speedup-n8`` — the direct guard on the forward
  kernel's win over the float64 reference layer.  It is the only
  check that catches a kernel slowdown: normalising by ``solo``
  cancels a slowdown that hits every scenario equally.

The reference scenarios time the float64 oracle under ``tests/``, not
shipped code, and their ratio to ``solo`` swings by more than the
threshold with machine load, so they feed only the floor.

``--inject-slowdown FACTOR`` multiplies the fresh run's non-anchor
wall-times before comparing — the CI job uses it to prove the gate
actually fails on a >20% regression (see ``docs/performance.md``).

The gate also covers the data plane (DESIGN.md §12) when
``--data-plane-baseline``/``--data-plane-fresh`` point at
``BENCH_data_plane.json`` artifacts.  ``speedup_cached`` is the
same-run cache-on / cache-off throughput ratio on the *virtual* clock,
so it is machine-independent and compared directly: the gate fails
when the fresh speedup falls below ``--min-cache-speedup`` (default
2.0x — the tentpole's acceptance floor), regresses more than
``--threshold`` against the committed baseline, or the artifact
reports non-identical selections (an inexact cache is a bug, not a
speedup).  ``--inject-slowdown`` divides the fresh cached speedup,
so the same self-test proves this check can fire too.

The multi-tenant contracts (DESIGN.md §13) are gated when
``--multitenant-baseline``/``--multitenant-fresh`` point at
``BENCH_multitenant.json`` artifacts.  Both are *correctness*
contracts on the virtual clock, so they are asserted absolutely, never
ratio-compared: the gate fails when the fresh run reports any
shed-bound violation (a tenant shed more than its SLO class allows),
any starved tenant, or a lowest-weight tenant that completed nothing;
the baseline artifact is validated to keep the committed file honest.
``--inject-slowdown`` flips the fresh violation count for the
self-test.

Stdlib-only on purpose: the gate must run before (and regardless of)
the package install step.

Usage::

    python benchmarks/perf_gate.py \
        --baseline benchmarks/results/BENCH_hotpath.json \
        --fresh fresh/BENCH_hotpath.json [--threshold 0.2] \
        [--min-speedup-n8 1.4] [--inject-slowdown 1.0] \
        [--data-plane-baseline benchmarks/results/BENCH_data_plane.json \
         --data-plane-fresh fresh/BENCH_data_plane.json \
         --min-cache-speedup 2.0] \
        [--multitenant-baseline benchmarks/results/BENCH_multitenant.json \
         --multitenant-fresh fresh/BENCH_multitenant.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

#: The normalisation anchor: every other scenario is expressed as a
#: multiple of this one's wall-time from the same run.
ANCHOR = "solo"

#: Gang scenarios the gate reads and reports (everything the microbench
#: records except the anchor itself).
GANG_SCENARIOS = (
    "gang_n4",
    "reference_n4",
    "gang_n8",
    "reference_n8",
)

#: Scenarios the median regression is taken over: the shipped kernel.
KERNEL_SCENARIOS = ("gang_n4", "gang_n8")


class GateError(Exception):
    """A malformed artifact — distinct from a legitimate gate failure."""


def load_walls(path: Path) -> dict[str, float]:
    """Read ``metrics.wall_time_s_per_step`` out of a BENCH artifact."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise GateError(f"{path}: unreadable artifact: {exc}") from exc
    walls = payload.get("metrics", {}).get("wall_time_s_per_step")
    if not isinstance(walls, dict):
        raise GateError(f"{path}: missing metrics.wall_time_s_per_step")
    missing = [k for k in (ANCHOR, *GANG_SCENARIOS) if k not in walls]
    if missing:
        raise GateError(f"{path}: wall_time_s_per_step missing {missing}")
    bad = [k for k, v in walls.items() if not isinstance(v, (int, float)) or v <= 0]
    if bad:
        raise GateError(f"{path}: non-positive wall-times for {bad}")
    return {k: float(v) for k, v in walls.items()}


def normalised(walls: dict[str, float]) -> dict[str, float]:
    """Each gang scenario's wall-time as a multiple of the solo anchor."""
    return {name: walls[name] / walls[ANCHOR] for name in GANG_SCENARIOS}


def check(
    baseline: dict[str, float],
    fresh: dict[str, float],
    threshold: float,
    min_speedup_n8: float,
) -> list[str]:
    """Return the list of gate failures (empty = pass), printing a report."""
    base_ratio = normalised(baseline)
    fresh_ratio = normalised(fresh)
    regressions = {
        name: fresh_ratio[name] / base_ratio[name] - 1.0 for name in GANG_SCENARIOS
    }
    print(f"{'scenario':<22} {'base x solo':>12} {'fresh x solo':>13} {'regression':>11}")
    for name in GANG_SCENARIOS:
        print(
            f"{name:<22} {base_ratio[name]:>12.3f} {fresh_ratio[name]:>13.3f}"
            f" {regressions[name]:>+10.1%}"
        )

    failures: list[str] = []
    median = statistics.median(regressions[name] for name in KERNEL_SCENARIOS)
    print(
        f"median regression over {', '.join(KERNEL_SCENARIOS)}: {median:+.1%}"
        f" (threshold {threshold:+.1%})"
    )
    if median > threshold:
        failures.append(
            f"median normalised regression {median:+.1%} exceeds {threshold:.0%}"
        )
    speedup = fresh["reference_n8"] / fresh["gang_n8"]
    print(f"fresh N=8 kernel speedup: {speedup:.2f}x (floor {min_speedup_n8:.2f}x)")
    if speedup < min_speedup_n8:
        failures.append(
            f"N=8 kernel speedup {speedup:.2f}x below the {min_speedup_n8:.2f}x floor"
        )
    return failures


def load_data_plane(path: Path) -> dict[str, object]:
    """Read the data-plane metrics out of a ``BENCH_data_plane.json``."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise GateError(f"{path}: unreadable artifact: {exc}") from exc
    metrics = payload.get("metrics", {})
    speedup = metrics.get("speedup_cached")
    if not isinstance(speedup, (int, float)) or speedup <= 0:
        raise GateError(f"{path}: missing/non-positive metrics.speedup_cached")
    identical = metrics.get("identical_selections")
    if not isinstance(identical, bool):
        raise GateError(f"{path}: missing metrics.identical_selections")
    return {"speedup_cached": float(speedup), "identical_selections": identical}


def check_data_plane(
    baseline: dict[str, object],
    fresh: dict[str, object],
    threshold: float,
    min_cache_speedup: float,
) -> list[str]:
    """Gate the §12 cached-fleet speedup; returns failures (empty = pass)."""
    base_speedup = float(baseline["speedup_cached"])
    fresh_speedup = float(fresh["speedup_cached"])
    regression = fresh_speedup / base_speedup - 1.0
    print(
        f"data-plane cached speedup: base {base_speedup:.2f}x, "
        f"fresh {fresh_speedup:.2f}x ({regression:+.1%}; "
        f"floor {min_cache_speedup:.2f}x, threshold {-threshold:+.1%})"
    )
    failures: list[str] = []
    if fresh_speedup < min_cache_speedup:
        failures.append(
            f"cached speedup {fresh_speedup:.2f}x below the "
            f"{min_cache_speedup:.2f}x floor"
        )
    if regression < -threshold:
        failures.append(
            f"cached speedup regressed {regression:+.1%} "
            f"(more than {threshold:.0%}) vs baseline"
        )
    if not fresh["identical_selections"]:
        failures.append("fresh data-plane run reports non-identical selections")
    return failures


def load_multitenant(path: Path) -> dict[str, object]:
    """Read the §13 contract metrics out of a ``BENCH_multitenant.json``."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise GateError(f"{path}: unreadable artifact: {exc}") from exc
    metrics = payload.get("metrics", {})
    out: dict[str, object] = {}
    for key in ("bound_violations", "starved_tenants", "min_weight_completed"):
        value = metrics.get(key)
        if not isinstance(value, int) or value < 0:
            raise GateError(f"{path}: missing/invalid metrics.{key}")
        out[key] = value
    per_class = metrics.get("per_class")
    if not isinstance(per_class, dict) or not per_class:
        raise GateError(f"{path}: missing metrics.per_class")
    out["per_class"] = per_class
    return out


def check_multitenant(
    baseline: dict[str, object], fresh: dict[str, object]
) -> list[str]:
    """Gate the §13 contracts; returns failures (empty = pass).

    Absolute, not ratio-based: both contracts must hold outright in
    the fresh run (the baseline was already validated at load).
    """
    print(
        f"multitenant contracts: bound_violations={fresh['bound_violations']} "
        f"starved_tenants={fresh['starved_tenants']} "
        f"min_weight_completed={fresh['min_weight_completed']}"
    )
    failures: list[str] = []
    for slo, entry in sorted(fresh["per_class"].items()):  # type: ignore[union-attr]
        rate = entry.get("max_shed_rate")
        bound = entry.get("shed_bound")
        if not isinstance(rate, (int, float)) or not isinstance(bound, (int, float)):
            failures.append(f"per_class[{slo}] missing max_shed_rate/shed_bound")
            continue
        print(f"  {slo:<12} max shed {rate:.1%} vs bound {bound:.1%}")
        if rate > bound:
            failures.append(
                f"{slo} tenants shed up to {rate:.1%}, over the {bound:.1%} SLO bound"
            )
    if fresh["bound_violations"]:
        failures.append(
            f"{fresh['bound_violations']} tenant(s) exceeded their SLO shed bound"
        )
    if fresh["starved_tenants"]:
        failures.append(f"{fresh['starved_tenants']} tenant(s) starved under overload")
    if not fresh["min_weight_completed"]:
        failures.append("the lowest-weight tenant completed no requests")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, required=True,
                        help="committed BENCH_hotpath.json to compare against")
    parser.add_argument("--fresh", type=Path, required=True,
                        help="BENCH_hotpath.json from this run")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="max tolerated median normalised regression")
    parser.add_argument("--min-speedup-n8", type=float, default=1.4,
                        help="floor on the fresh N=8 kernel-vs-reference speedup")
    parser.add_argument("--inject-slowdown", type=float, default=1.0,
                        help="multiply fresh non-anchor wall-times (gate self-test)")
    parser.add_argument("--data-plane-baseline", type=Path, default=None,
                        help="committed BENCH_data_plane.json to compare against")
    parser.add_argument("--data-plane-fresh", type=Path, default=None,
                        help="BENCH_data_plane.json from this run")
    parser.add_argument("--min-cache-speedup", type=float, default=2.0,
                        help="floor on the fresh data-plane cached speedup")
    parser.add_argument("--multitenant-baseline", type=Path, default=None,
                        help="committed BENCH_multitenant.json to validate")
    parser.add_argument("--multitenant-fresh", type=Path, default=None,
                        help="BENCH_multitenant.json from this run")
    args = parser.parse_args(argv)
    if (args.data_plane_baseline is None) != (args.data_plane_fresh is None):
        parser.error("--data-plane-baseline and --data-plane-fresh go together")
    if (args.multitenant_baseline is None) != (args.multitenant_fresh is None):
        parser.error("--multitenant-baseline and --multitenant-fresh go together")

    try:
        baseline = load_walls(args.baseline)
        fresh = load_walls(args.fresh)
        plane_baseline = plane_fresh = None
        if args.data_plane_baseline is not None:
            plane_baseline = load_data_plane(args.data_plane_baseline)
            plane_fresh = load_data_plane(args.data_plane_fresh)
        tenant_baseline = tenant_fresh = None
        if args.multitenant_baseline is not None:
            tenant_baseline = load_multitenant(args.multitenant_baseline)
            tenant_fresh = load_multitenant(args.multitenant_fresh)
    except GateError as exc:
        print(f"perf-gate: ERROR: {exc}", file=sys.stderr)
        return 2

    if args.inject_slowdown != 1.0:
        print(f"injecting a {args.inject_slowdown:.2f}x slowdown into the fresh run")
        fresh = {
            name: wall * (args.inject_slowdown if name != ANCHOR else 1.0)
            for name, wall in fresh.items()
        }
        if plane_fresh is not None:
            plane_fresh = dict(
                plane_fresh,
                speedup_cached=float(plane_fresh["speedup_cached"])
                / args.inject_slowdown,
            )
        if tenant_fresh is not None:
            # The self-test analogue for an absolute contract: pretend
            # one tenant blew its bound and make sure the gate fires.
            tenant_fresh = dict(tenant_fresh, bound_violations=1)

    failures = check(baseline, fresh, args.threshold, args.min_speedup_n8)
    if plane_baseline is not None and plane_fresh is not None:
        failures += check_data_plane(
            plane_baseline, plane_fresh, args.threshold, args.min_cache_speedup
        )
    if tenant_baseline is not None and tenant_fresh is not None:
        failures += check_multitenant(tenant_baseline, tenant_fresh)
    if failures:
        for failure in failures:
            print(f"perf-gate: FAIL: {failure}", file=sys.stderr)
        return 1
    print("perf-gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
