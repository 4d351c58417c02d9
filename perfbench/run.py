#!/usr/bin/env python3
"""The repository benchmark: three workloads on the wall and virtual clocks.

Usage (from the repository root)::

    python3 perfbench/run.py                       # every workload, trace off
    python3 perfbench/run.py --workload offline_sweep --seed 3 --seconds 20
    python3 perfbench/run.py --workload fused_plane_fleet --trace 1

One workload runs in one process, from one thread of control, with the
BLAS thread count capped at the number of usable CPUs.  A run:

1. builds the workload's inputs from ``--seed``;
2. serves one untimed pass, which warms lazy state, yields the
   virtual-clock metrics and runs the correctness checks (a failed
   check exits 1 without a result);
3. with ``--trace 0``, repeats set-up and pass for ``--seconds`` and
   reports the median ``sim_rps``, the median ``setup_s`` over every
   set-up of the run, and every other end-to-end metric;
   with ``--trace 1``, spends half the window untraced and half with
   the layer probes of ``tracer.py`` installed, checks that the traced
   passes' virtual metrics equal the untraced ones exactly and that
   every wrapped function was restored, and reports the per-layer
   metrics, a self-time table and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the
run (seed, sizes, phases, timings) is written to ``perfbench/out/``.
``perfbench/README.md`` defines every metric.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SPEC = ROOT / "BENCHMARK.json"
ANCHOR = ROOT / "perfbench" / "anchor.py"
WORKLOAD_NAMES = ("offline_sweep", "tenant_overload", "fused_plane_fleet")
#: Before each pass the inputs are built again until this many seconds
#: of set-up have passed, so that set-ups, like passes, sample the whole
#: run rather than one moment of a host whose speed drifts.
SETUP_BURST_S = 1.0
#: Fewest timed passes per window, however long a pass takes.
MIN_PASSES = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(Exception):
    """A check failed: the run must not report a result."""


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable CPU count; must run before numpy loads."""
    threads = usable_cpus()
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


class Anchor:
    """The machine-speed anchor loop in one child process, timed on request."""

    def __init__(self) -> None:
        self.readings: list[float] = []
        self._child = subprocess.Popen(
            [sys.executable, str(ANCHOR)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def time(self) -> None:
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        line = self._child.stdout.readline()
        if not line:
            raise BenchmarkError("the anchor process ended")
        self.readings.append(float(line))

    def close(self) -> None:
        self._child.stdin.close()
        try:
            self._child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.wait()
        self._child.stdout.close()


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import the package."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program source at {SRC}/repro")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import repro

    where = Path(repro.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchmarkError(f"imported repro from {where}, not from {SRC}")


# ----------------------------------------------------------------------
# one workload in this process
# ----------------------------------------------------------------------
def set_up(workload, seed: int, times: list[float]):
    """Build the inputs until SETUP_BURST_S have passed; return the last."""
    inputs = None
    first = len(times)
    while len(times) == first or sum(times[first:]) < SETUP_BURST_S:
        inputs = None
        gc.collect()
        start = time.perf_counter()
        inputs = workload.setup(seed)
        times.append(time.perf_counter() - start)
    return inputs


def timed_passes(
    workload,
    inputs,
    seconds: float,
    expected: dict,
    anchor: Anchor | None = None,
    setups: tuple[int, list[float]] | None = None,
) -> dict:
    """Serve passes for ``seconds`` (at least MIN_PASSES); per-pass rates.

    With an ``anchor``, the anchor loop is timed before every pass.
    With ``setups`` (seed, set-up times), a burst of set-ups builds
    each pass's inputs.  Each pass's virtual metrics must equal
    ``expected`` exactly.
    """
    walls, rates = [], []
    attempted = failed = 0
    window_start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - window_start < seconds:
        if anchor is not None:
            anchor.time()
        if setups is not None:
            inputs = None
            inputs = set_up(workload, *setups)
        gc.collect()
        start = time.perf_counter()
        served = workload.serve(inputs)
        wall = time.perf_counter() - start
        walls.append(wall)
        rates.append(served.completed / wall)
        attempted += served.attempted
        failed += served.failed
        got = workload.metrics(inputs, served)
        if got != expected:
            changed = sorted(k for k in expected if got.get(k) != expected[k])
            raise BenchmarkError(f"virtual metrics changed between passes: {changed}")
        del served
    return {"walls": walls, "rates": rates, "attempted": attempted, "failed": failed}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    anchor = None if trace else Anchor()
    try:
        return measure(workload, seed, seconds, anchor)
    finally:
        if anchor is not None:
            anchor.close()


def measure(workload, seed: int, seconds: float, anchor: Anchor | None) -> dict:
    """Set-ups, the checked pass, then the timed window; traced without an anchor."""
    from perfbench.anchor import REFERENCE_S

    name, trace = workload.name, anchor is None
    if anchor is not None:
        anchor.time()
    setup_times: list[float] = []
    inputs = set_up(workload, seed, setup_times)

    start = time.perf_counter()
    served = workload.serve(inputs)
    check_pass_s = time.perf_counter() - start
    virtual = workload.metrics(inputs, served)
    failures = workload.check(inputs, served)
    checks_s = time.perf_counter() - start - check_pass_s
    record = {
        "workload": name,
        "why": next(w["why"] for w in load_spec()["workloads"] if w["name"] == name),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": workload.sizes(),
        "blas_threads": int(os.environ[BLAS_ENV[0]]),
        "python": platform.python_version(),
        "setup_times_s": setup_times,
        "check_pass_s": check_pass_s,
        "checks_s": checks_s,
        "phases": {"check_pass": workload.phases(inputs, served)},
        "checks": failures or "passed",
        "virtual": virtual,
    }
    reduction = (
        workload.vlat_reduction_vs_offload(served)
        if hasattr(workload, "vlat_reduction_vs_offload")
        else 0.0
    )
    if hasattr(workload, "vlat_reduction_vs_offload"):
        record["vlat_reduction_vs_offload"] = reduction
    attempted, failed = served.attempted, served.failed
    del served
    if failures:
        write_record(record)
        raise BenchmarkError(f"{name}: " + "; ".join(failures[:5]))

    if not trace:
        window = timed_passes(
            workload, inputs, seconds, virtual, anchor, setups=(seed, setup_times)
        )
        anchor.time()
        anchors = anchor.readings
        # Wall-clock metrics at the reference speed: on a host where the
        # anchor loop takes ``slowdown * REFERENCE_S``, everything runs
        # ``slowdown`` times slower.
        slowdown = statistics.median(anchors) / REFERENCE_S
        metrics = {
            "sim_rps": statistics.median(window["rates"]) * slowdown,
            "setup_s": statistics.median(setup_times) / slowdown,
            "rss_peak_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **virtual,
        }
        record["anchor_s"] = anchors
        record["slowdown"] = slowdown
        record["raw"] = {
            "sim_rps": statistics.median(window["rates"]),
            "setup_s": statistics.median(setup_times),
        }
        record["passes"] = {"untraced": window}
        attempted += window["attempted"]
        failed += window["failed"]
    else:
        metrics, traced = traced_run(workload, inputs, seed, seconds, virtual, record)
        metrics["baselines.vlat_reduction_vs_offload"] = reduction
        attempted += traced
    record["metrics"] = metrics
    record["process_wall_s"] = time.perf_counter() - _PROCESS_START
    write_record(record)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def traced_run(workload, inputs, seed, seconds, virtual, record) -> tuple[dict, int]:
    """Untraced then traced halves of the window; per-layer metrics."""
    from perfbench.tracer import Tracer, unrestored

    untraced = timed_passes(workload, inputs, seconds / 2, virtual)
    tracer = Tracer()
    tracer.install()
    try:
        gc.collect()
        start = time.perf_counter()
        traced_inputs = workload.setup(seed)
        setup_wall = time.perf_counter() - start
        tracer.set_phase("pass")
        traced = timed_passes(workload, traced_inputs, seconds / 2, virtual)
    finally:
        patches = tracer.uninstall()
    leftovers = unrestored(patches)
    if leftovers:
        raise BenchmarkError(f"wrapped functions not restored: {leftovers[:5]}")

    passes = len(traced["walls"])
    overhead = statistics.median(untraced["rates"]) / statistics.median(traced["rates"])
    metrics = tracer.layer_metrics(passes)
    metrics["trace.overhead_x"] = overhead
    iteration_wall = setup_wall + statistics.fmean(traced["walls"])
    table = [
        {
            "probe": probe,
            "self_s": self_s,
            "calls": calls,
            "share": self_s / iteration_wall,
        }
        for probe, self_s, calls in tracer.self_time_table(passes)
    ]
    attributed = sum(row["self_s"] for row in table)
    trace_path = OUT / f"trace-{record['workload']}-seed{seed}.json"
    tracer.write(trace_path)
    record["passes"] = {"untraced": untraced, "traced": traced}
    record["self_time"] = {
        "iteration_wall_s": iteration_wall,
        "unattributed_s": iteration_wall - attributed,
        "rows": table,
    }
    record["zero_perturbation"] = "traced virtual metrics equal untraced"
    record["restored_bindings"] = len(patches)
    record["trace_file"] = str(trace_path.relative_to(ROOT))
    print_self_time(record)
    return metrics, untraced["attempted"] + traced["attempted"]


def print_self_time(record: dict) -> None:
    self_time = record["self_time"]
    total = self_time["iteration_wall_s"]
    print(f"\n{record['workload']}: self time per iteration (one set-up + one pass, "
          f"{total:.3f} s traced)")
    print(f"{'probe':34s} {'self s':>9s} {'share':>7s} {'ceiling':>8s} {'calls':>10s}")
    rows = [row for row in self_time["rows"] if row["calls"] > 0]
    rows.append({"probe": "(unattributed)", "self_s": self_time["unattributed_s"],
                 "share": self_time["unattributed_s"] / total, "calls": 0})
    for row in sorted(rows, key=lambda row: -row["self_s"]):
        share = row["share"]
        ceiling = 1.0 / (1.0 - share) if share < 1.0 else float("inf")
        print(f"{row['probe']:34s} {row['self_s']:9.4f} {share:7.1%} {ceiling:7.2f}x "
              f"{row['calls']:10.0f}")


def write_record(record: dict) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1, default=str))


def result_line(spec: dict, outcome: dict, trace: bool) -> dict:
    """The final JSON object, metrics in BENCHMARK.json order with units."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = outcome["metrics"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    extra = sorted(set(metrics) - {m["name"] for m in listed})
    if missing or extra:
        raise BenchmarkError(f"metrics out of step with BENCHMARK.json: {missing} {extra}")
    return {
        "correct": True,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in listed
        },
    }


# ----------------------------------------------------------------------
# every workload, each in a fresh process
# ----------------------------------------------------------------------
def run_all(args) -> int:
    spec = load_spec()
    results = {}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = completed.stdout.strip().splitlines()
        sys.stderr.write(completed.stderr)
        if completed.returncode != 0 or not lines:
            print(f"{name}: exit {completed.returncode}", file=sys.stderr)
            return completed.returncode or 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    width = max(len(m["name"]) for m in listed)
    print(f"\n{'metric':{width}s} {'unit':>9s}  " + "  ".join(f"{n:>18s}" for n in results))
    for m in listed:
        cells = "  ".join(f"{results[n]['metrics'][m['name']]['value']:18.6g}" for n in results)
        print(f"{m['name']:{width}s} {m['unit']:>9s}  {cells}")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"summary-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(results, indent=1)
    )
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        cap_blas_threads()
        import_program()
        if args.workload == "all":
            return run_all(args)
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        line = result_line(spec, outcome, bool(args.trace))
    except (BenchmarkError, OSError, ValueError, subprocess.SubprocessError) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    for name, metric in line["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
