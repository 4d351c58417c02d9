#!/usr/bin/env python3
"""Stability report: two sets of benchmark runs of one commit, metric by metric.

Collect a set (one fresh process per run, one seed per run)::

    python3 perfbench/stability.py collect perfbench/out/set-a --seeds 1-10
    python3 perfbench/stability.py collect perfbench/out/set-b --seeds 1-10

Report one set, or compare two::

    python3 perfbench/stability.py report perfbench/out/set-a
    python3 perfbench/stability.py report perfbench/out/set-a perfbench/out/set-b

For every workload and end-to-end metric the report gives each set's
median and spread — the distance between the first and third quartile
of its values, as a share of their median — and how far the second
median moved in the metric's worse direction, as a share of the first.
It flags a spread above the metric's bound, a spread above a third
of the bound (steadiness target), and a median
that worsened by more than the bound.  Virtual-clock metrics must be
identical between the two sets for every seed both ran.  Exit status
is 1 when any rule is broken.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"

#: Metrics derived only from the virtual clock and the outputs: equal
#: seeds must give equal values.
VIRTUAL = (
    "vlat_p50_ms",
    "vlat_p95_ms",
    "vthroughput_rps",
    "vpeak_mem_mib",
    "precision_at_k",
    "completed_share",
    "slo_met_share",
)


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def collect(out: Path, workloads: list[str], seeds: list[int], seconds: float | None) -> int:
    out.mkdir(parents=True, exist_ok=True)
    for name in workloads:
        for seed in seeds:
            command = [sys.executable, str(RUN), "--workload", name, "--seed", str(seed)]
            if seconds is not None:
                command += ["--seconds", str(seconds)]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.stderr.write(done.stderr)
                print(f"{name} seed {seed}: exit {done.returncode}", file=sys.stderr)
                return 1
            (out / f"{name}-seed{seed}.json").write_text(lines[-1] + "\n")
            print(f"{name} seed {seed}: ok", flush=True)
    return 0


def load_set(directory: Path) -> dict[str, dict[int, dict[str, float]]]:
    """workload -> seed -> metric -> value."""
    runs: dict[str, dict[int, dict[str, float]]] = {}
    for path in sorted(directory.glob("*-seed*.json")):
        name, _, seed = path.stem.rpartition("-seed")
        metrics = json.loads(path.read_text())["metrics"]
        runs.setdefault(name, {})[int(seed)] = {k: v["value"] for k, v in metrics.items()}
    return runs


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def worsening(first: float, second: float, better: str) -> float:
    """How far ``second`` is worse than ``first``, as a share of ``first``."""
    if not first:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def report(sets: list[Path]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    loaded = [load_set(directory) for directory in sets]
    broken = 0
    header = f"{'workload':18s} {'metric':16s} {'bound':>6s}"
    for index in range(len(sets)):
        header += f" {'median ' + str(index + 1):>14s} {'spread':>7s}"
    if len(sets) == 2:
        header += f" {'worse by':>9s}"
    print(header)
    for name in [w["name"] for w in spec["workloads"]]:
        if any(name not in runs for runs in loaded):
            continue
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            row = f"{name:18s} {key:16s} {bound:6.2f}"
            flags = []
            medians = []
            for runs in loaded:
                values = [run[key] for run in runs[name].values()]
                medians.append(statistics.median(values))
                share = spread(values) if len(values) >= 2 else 0.0
                row += f" {medians[-1]:14.6g} {share:7.2%}"
                if share > bound:
                    flags.append("SPREAD>BOUND")
                    broken += 1
                elif share > bound / 3:
                    flags.append("spread>bound/3")
            if len(loaded) == 2:
                worse = worsening(medians[0], medians[1], metric["better"])
                row += f" {worse:9.2%}"
                if worse > bound:
                    flags.append("MEDIAN WORSE")
                    broken += 1
                if key in VIRTUAL:
                    first, second = loaded[0][name], loaded[1][name]
                    for seed in set(first) & set(second):
                        if first[seed][key] != second[seed][key]:
                            flags.append(f"VIRTUAL DIFFERS seed {seed}")
                            broken += 1
            print(row + ("  " + ", ".join(flags) if flags else ""))
    return 1 if broken else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    gather = commands.add_parser("collect", help="run the benchmark once per seed")
    gather.add_argument("out", type=Path)
    gather.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,9")
    gather.add_argument("--workload", action="append", help="default: every workload")
    gather.add_argument("--seconds", type=float, default=None)
    show = commands.add_parser("report", help="spreads of one set, or two sets compared")
    show.add_argument("sets", type=Path, nargs="+")
    args = parser.parse_args(argv)
    if args.command == "collect":
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        return collect(args.out, workloads, parse_seeds(args.seeds), args.seconds)
    if len(args.sets) > 2:
        parser.error("report takes one or two sets")
    return report(args.sets)


if __name__ == "__main__":
    sys.exit(main())
