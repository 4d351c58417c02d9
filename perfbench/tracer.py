"""Per-layer tracing from outside the program.

:class:`Tracer` replaces the public functions of each layer (modules
of ``src/repro``) with timing wrappers, keeps one span per call in
memory — name, start, end, parent span, and the request id where the
call carries one — and accumulates per-function call counts, self time
and a few counters read off the call's arguments and result.  Self
time is a span's duration minus the time covered by its child spans;
the time a probe spends reading counters is charged to nobody.

:meth:`Tracer.uninstall` puts every original back; :func:`unrestored`
proves it did.  Nothing under ``src/`` changes: the wrappers are
installed on the classes and module namespaces at run time.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

GiB = 2**30

#: Attribute set on every wrapper, so a leftover one can be found.
WRAPPER_MARK = "__perfbench_probe__"


class Tally:
    """What one probe accumulated within one phase."""

    __slots__ = ("calls", "self_s", "counts", "samples")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def sample(self, key: str, values) -> None:
        self.samples.setdefault(key, []).extend(values)


@dataclass(frozen=True)
class Probe:
    """One wrapped function and what to count around its calls.

    ``before(args, kwargs)`` runs ahead of the call and its value is
    handed to ``after(tally, args, kwargs, result, token)``, which runs
    only when the call returned.  ``request(args, kwargs)`` names the
    request a call serves, for the span record.
    """

    name: str
    module: str
    qualname: str
    before: Callable[[tuple, dict], Any] | None = None
    after: Callable[[Tally, tuple, dict, Any, Any], None] | None = None
    request: Callable[[tuple, dict], Any] | None = None


# ----------------------------------------------------------------------
# counters read around calls
# ----------------------------------------------------------------------
def _first_arg(attr: str) -> Callable[[tuple, dict], Any]:
    return lambda args, kwargs: getattr(args[0], attr)


def _grew(key: str, attr: str):
    def after(tally, args, kwargs, result, before):
        tally.add(key, getattr(args[0], attr) - before)

    return after


def _timeline_len(args, kwargs):
    return len(args[0]._timeline)


def _timeline_grew(tally, args, kwargs, result, before):
    tally.add("timeline_points", len(args[0]._timeline) - before)


def _read_bytes(tally, args, kwargs, result, before):
    tally.add("bytes", kwargs["nbytes"] if "nbytes" in kwargs else args[2])


def _cache_lookup(tally, args, kwargs, result, before):
    lookup = result[0] if isinstance(result, tuple) else result
    tally.add("hits", lookup.hits)
    tally.add("unique", lookup.unique_tokens)


def _plane_counters(args, kwargs):
    stats = args[0].plane.stats
    return stats.fetches, stats.attaches, stats.saved_bytes


def _plane_grew(tally, args, kwargs, result, before):
    fetches, attaches, saved = _plane_counters(args, kwargs)
    tally.add("fetches", fetches - before[0])
    tally.add("attaches", attaches - before[1])
    tally.add("saved_bytes", saved - before[2])


def _step_done(tally, args, kwargs, result, before):
    if not result:
        return
    task = args[0]
    outcome = task.result
    tally.add("requests", 1)
    tally.add("layers", outcome.layers_executed)
    tally.add("candidate_layers", outcome.candidate_layers)
    tally.add("full_candidate_layers", task.batch.size * task.engine.model.config.num_layers)


def _scheduler_drained(tally, args, kwargs, result, before):
    tally.sample("queue_wait", [outcome.queue_wait for outcome in result])
    tally.sample("occupancy", [args[0].mean_fused_occupancy])


_PLANE_FIELDS = ("requests", "memo_hits", "coalesced", "overlap_hits", "misses", "seconds_saved")


def _plane_snapshot(args, kwargs):
    plane = args[0].data_plane
    if plane is None:
        return None
    stats = plane.stats()
    return {field: getattr(stats, field) for field in _PLANE_FIELDS}


def _fleet_drained(tally, args, kwargs, result, before):
    fleet = args[0]
    tally.sample("queue_wait", [outcome.queue_wait for outcome in result])
    utilisation = fleet.stats().utilisation
    if utilisation:
        tally.sample("utilisation", [statistics.fmean(utilisation.values())])
    if before is not None:
        now = _plane_snapshot(args, kwargs)
        for field in _PLANE_FIELDS:
            tally.add(field, now[field] - before[field])


def _count(key: str, of: Callable[[tuple, Any], float]):
    def after(tally, args, kwargs, result, before):
        tally.add(key, of(args, result))

    return after


#: Every wrapped function, named ``<layer>.<function>``.
PROBES: tuple[Probe, ...] = (
    Probe("workloads.build_batch", "repro.data.workloads", "build_batch"),
    Probe("traffic.generate", "repro.data.traffic", "generate_traffic"),
    Probe("harness.run_system", "repro.harness.runner", "run_system"),
    Probe("model.forward_layer", "repro.model.transformer", "CrossEncoderModel.forward_layer"),
    Probe(
        "model.forward_layer_batched",
        "repro.model.transformer",
        "CrossEncoderModel.forward_layer_batched",
        after=_count("members", lambda args, result: len(args[1])),
    ),
    Probe("model.score", "repro.model.transformer", "CrossEncoderModel.score"),
    Probe("model.scores_at", "repro.model.semantics", "ScoreDynamics.scores_at"),
    Probe(
        "pruning.check",
        "repro.core.engine",
        "PrismEngine._pruning_check",
        before=lambda args, kwargs: args[0].executor.now,
        after=lambda tally, args, kwargs, result, before: tally.add(
            "vs", args[0].executor.now - before
        ),
    ),
    Probe(
        "pruning.decide",
        "repro.core.pruning",
        "ProgressiveClusterPruner.decide",
        after=_count("triggered", lambda args, result: float(result.triggered)),
    ),
    Probe("clustering.cluster_scores", "repro.core.clustering", "cluster_scores"),
    Probe(
        "memory.alloc",
        "repro.device.memory",
        "MemoryTracker.alloc",
        before=_timeline_len,
        after=_timeline_grew,
    ),
    Probe(
        "memory.free",
        "repro.device.memory",
        "MemoryTracker.free",
        before=_timeline_len,
        after=_timeline_grew,
    ),
    Probe(
        "executor.compute",
        "repro.device.executor",
        "DeviceExecutor.compute",
        after=_count("vs", lambda args, result: result),
    ),
    *(
        Probe(
            f"executor.{method}",
            "repro.device.executor",
            f"DeviceExecutor.{method}",
            before=_first_arg("io_stall_seconds"),
            after=_grew("io_stall_vs", "io_stall_seconds"),
        )
        for method in ("wait_io", "read_blocking", "write_blocking")
    ),
    Probe("ssd.read_async", "repro.device.ssd", "SSDDevice.read_async", after=_read_bytes),
    Probe("ssd.read_sync", "repro.device.ssd", "SSDDevice.read_sync", after=_read_bytes),
    Probe(
        "embedding_cache.lookup",
        "repro.core.embedding_cache",
        "EmbeddingCache.lookup",
        after=_cache_lookup,
    ),
    Probe(
        "shared_embedding_cache.lookup",
        "repro.core.data_plane",
        "SharedEmbeddingCache.lookup",
        after=_cache_lookup,
    ),
    Probe(
        "weight_plane.acquire",
        "repro.core.streaming",
        "PlanePass.acquire",
        before=_plane_counters,
        after=_plane_grew,
    ),
    Probe(
        "engine.step",
        "repro.core.engine",
        "RerankTask.step",
        after=_step_done,
        request=lambda args, kwargs: args[0].request_id,
    ),
    Probe(
        "scheduler.drain",
        "repro.core.scheduler",
        "DeviceScheduler.drain",
        after=_scheduler_drained,
    ),
    Probe(
        "service.serve_requests",
        "repro.core.service",
        "SemanticSelectionService.serve_requests",
    ),
    Probe(
        "service.replay_selection",
        "repro.core.service",
        "SemanticSelectionService.replay_selection",
    ),
    Probe(
        "fleet.submit_request",
        "repro.core.fleet",
        "FleetService.submit_request",
        request=lambda args, kwargs: kwargs.get("client_id"),
    ),
    Probe(
        "fleet.drain",
        "repro.core.fleet",
        "FleetService.drain",
        before=_plane_snapshot,
        after=_fleet_drained,
    ),
    Probe(
        "fleet.dispatch",
        "repro.core.fleet",
        "FleetService._dispatch",
        after=_count("batch", lambda args, result: len(args[1])),
    ),
    Probe("data_plane.admit", "repro.core.data_plane", "DataPlane.admit"),
    Probe(
        "tenancy.admit",
        "repro.core.tenancy",
        "FairAdmission.admit",
        after=_count("shed", lambda args, result: float(result is not None)),
        request=lambda args, kwargs: args[2],
    ),
    Probe(
        "events.emit",
        "repro.core.events",
        "EventLog.emit",
        request=lambda args, kwargs: kwargs.get("request"),
    ),
    Probe("telemetry.consume", "repro.core.telemetry", "TelemetryCollector.consume"),
)


def _traced_module(module) -> bool:
    name = getattr(module, "__name__", "")
    return name.split(".")[0] in ("repro", "perfbench")


#: Spans kept in memory (and written); later spans are only tallied.
MAX_SPANS = 100_000


class Tracer:
    """Installs the probes, records spans and folds them per phase."""

    def __init__(self) -> None:
        self.probes = PROBES
        self.origin = time.perf_counter()
        #: (span id, probe index, start, end, parent span id, request)
        self.spans: list[tuple] = []
        self.span_count = 0
        self.phases: dict[str, list[Tally]] = {}
        self._tallies: list[Tally] = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self.set_phase("setup")

    def set_phase(self, phase: str) -> None:
        """Fold the following calls into ``phase`` (e.g. setup, pass)."""
        self._tallies = self.phases.setdefault(phase, [Tally() for _ in self.probes])

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every probe's function; on any failure, put all back."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        for index, probe in enumerate(self.probes):
            module = importlib.import_module(probe.module)
            owner_name, _, attr = probe.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(index, probe, original))
                self._patches.append((owner, attr, original))
                continue
            # A module-level function is also bound by name in every
            # module that imported it: patch each binding.
            original = getattr(module, attr)
            wrapper = self._wrap(index, probe, original)
            for bound in list(sys.modules.values()):
                if not _traced_module(bound):
                    continue
                for name, value in list(vars(bound).items()):
                    if value is original:
                        setattr(bound, name, wrapper)
                        self._patches.append((bound, name, original))

    def uninstall(self) -> list[tuple[object, str, object]]:
        """Restore every original; returns the patch list for :func:`unrestored`."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        return patches

    def _wrap(self, index: int, probe: Probe, fn):
        if not callable(fn) or isinstance(fn, (staticmethod, classmethod)):
            raise TypeError(f"{probe.qualname}: only plain functions can be probed")
        before, after, request_of = probe.before, probe.after, probe.request
        clock, stack, spans = time.perf_counter, self._stack, self.spans
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            token = before(args, kwargs) if before is not None else None
            span_id = tracer.span_count
            tracer.span_count += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                stack.pop()
                tally = tracer._tallies[index]
                tally.calls += 1
                tally.self_s += (end - start) - frame[0]
                if returned and after is not None:
                    after(tally, args, kwargs, result, token)
                if span_id < MAX_SPANS:
                    request = request_of(args, kwargs) if request_of is not None else None
                    spans.append((span_id, index, start, end, parent, request))
                if stack:
                    stack[-1][0] += clock() - entered

        setattr(wrapper, WRAPPER_MARK, probe.name)
        return wrapper

    # ------------------------------------------------------------------
    def _tally(self, phase: str, name: str) -> Tally:
        tallies = self.phases.get(phase)
        if tallies is None:
            return Tally()
        for probe, tally in zip(self.probes, tallies):
            if probe.name == name:
                return tally
        raise KeyError(name)

    def per_iteration(self, name: str, key: str, passes: int) -> float:
        """One set-up plus the mean pass: ``setup + pass / passes``."""

        def read(tally: Tally) -> float:
            if key in ("calls", "self_s"):
                return float(getattr(tally, key))
            return tally.counts.get(key, 0.0)

        return read(self._tally("setup", name)) + read(self._tally("pass", name)) / max(
            1, passes
        )

    def pass_samples(self, name: str, key: str) -> list[float]:
        return self._tally("pass", name).samples.get(key, [])

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """The per-layer metrics, per iteration (one set-up plus one pass)."""

        def it(name: str, key: str) -> float:
            return self.per_iteration(name, key, passes)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def median_ms(name: str) -> float:
            values = self.pass_samples(name, "queue_wait")
            return statistics.median(values) * 1e3 if values else 0.0

        def mean(name: str, key: str) -> float:
            values = self.pass_samples(name, key)
            return statistics.fmean(values) if values else 0.0

        m: dict[str, float] = {}

        def calls_self(name: str, calls: bool = True) -> None:
            if calls:
                m[f"{name}.calls"] = it(name, "calls")
            m[f"{name}.self_s"] = it(name, "self_s")

        calls_self("workloads.build_batch")
        calls_self("traffic.generate", calls=False)
        calls_self("harness.run_system")
        for name in (
            "model.forward_layer",
            "model.forward_layer_batched",
            "model.score",
            "model.scores_at",
        ):
            calls_self(name)
        m["model.forward_layer_batched.members_mean"] = ratio(
            it("model.forward_layer_batched", "members"), it("model.forward_layer_batched", "calls")
        )
        calls_self("pruning.decide")
        m["pruning.decide.triggered_share"] = ratio(
            it("pruning.decide", "triggered"), it("pruning.decide", "calls")
        )
        m["pruning.check_vs"] = it("pruning.check", "vs")
        calls_self("clustering.cluster_scores")
        m["memory.alloc.calls"] = it("memory.alloc", "calls")
        m["memory.free.calls"] = it("memory.free", "calls")
        m["memory.self_s"] = it("memory.alloc", "self_s") + it("memory.free", "self_s")
        m["memory.timeline_points"] = it("memory.alloc", "timeline_points") + it(
            "memory.free", "timeline_points"
        )
        calls_self("executor.compute")
        m["executor.compute_vs"] = it("executor.compute", "vs")
        m["executor.io_stall_vs"] = sum(
            it(f"executor.{method}", "io_stall_vs")
            for method in ("wait_io", "read_blocking", "write_blocking")
        )
        m["ssd.read_gib"] = (it("ssd.read_async", "bytes") + it("ssd.read_sync", "bytes")) / GiB
        for name in ("embedding_cache.lookup", "shared_embedding_cache.lookup"):
            calls_self(name)
            m[f"{name}.hit_rate"] = ratio(it(name, "hits"), it(name, "unique"))
        m["weight_plane.fetches"] = it("weight_plane.acquire", "fetches")
        m["weight_plane.attaches"] = it("weight_plane.acquire", "attaches")
        m["weight_plane.saved_gib"] = it("weight_plane.acquire", "saved_bytes") / GiB
        calls_self("engine.step")
        m["engine.layers_per_request"] = ratio(
            it("engine.step", "layers"), it("engine.step", "requests")
        )
        full = it("engine.step", "full_candidate_layers")
        m["engine.pruned_fraction"] = (
            1.0 - it("engine.step", "candidate_layers") / full if full else 0.0
        )
        calls_self("scheduler.drain")
        m["scheduler.fused_occupancy"] = mean("scheduler.drain", "occupancy")
        m["scheduler.queue_wait_p50_ms"] = median_ms("scheduler.drain")
        calls_self("service.serve_requests")
        calls_self("service.replay_selection")
        calls_self("fleet.submit_request")
        calls_self("fleet.drain", calls=False)
        m["fleet.queue_wait_p50_ms"] = median_ms("fleet.drain")
        m["fleet.batch_size_mean"] = ratio(
            it("fleet.dispatch", "batch"), it("fleet.dispatch", "calls")
        )
        m["fleet.utilisation_mean"] = mean("fleet.drain", "utilisation")
        calls_self("data_plane.admit")
        for key in ("memo_hits", "coalesced", "overlap_hits", "misses"):
            m[f"data_plane.{key}"] = it("fleet.drain", key)
        m["data_plane.hit_rate"] = ratio(
            sum(it("fleet.drain", key) for key in ("memo_hits", "coalesced", "overlap_hits")),
            it("fleet.drain", "requests"),
        )
        m["data_plane.saved_vs"] = it("fleet.drain", "seconds_saved")
        calls_self("tenancy.admit")
        m["tenancy.shed"] = it("tenancy.admit", "shed")
        calls_self("events.emit")
        calls_self("telemetry.consume", calls=False)
        return m

    def self_time_table(self, passes: int) -> list[tuple[str, float, float]]:
        """(probe, self seconds per iteration, calls per iteration), largest first."""
        rows = [
            (probe.name, self.per_iteration(probe.name, "self_s", passes),
             self.per_iteration(probe.name, "calls", passes))
            for probe in self.probes
        ]
        return sorted(rows, key=lambda row: -row[1])

    def write(self, path: Path) -> None:
        """Write the kept spans as JSON (times in microseconds from start)."""

        def label(value):
            return value if value is None or isinstance(value, (int, str)) else str(value)

        origin = self.origin
        payload = {
            "probes": [probe.name for probe in self.probes],
            "fields": ["id", "probe", "start_us", "end_us", "parent", "request"],
            "spans_total": self.span_count,
            "spans_kept": len(self.spans),
            "spans": [
                [sid, probe, round((start - origin) * 1e6, 1), round((end - origin) * 1e6, 1),
                 parent, label(request)]
                for sid, probe, start, end, parent, request in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")))


def unrestored(patches: list[tuple[object, str, object]]) -> list[str]:
    """Bindings that still differ from the original after uninstall.

    Checks every patched binding, and scans the traced modules and
    their classes for any wrapper left behind.
    """
    bad = []
    for owner, attr, original in patches:
        if vars(owner).get(attr) is not original:
            bad.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    for module in list(sys.modules.values()):
        if not _traced_module(module):
            continue
        for name, value in list(vars(module).items()):
            if hasattr(value, WRAPPER_MARK):
                bad.append(f"{module.__name__}.{name}")
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if hasattr(member, WRAPPER_MARK):
                        bad.append(f"{module.__name__}.{name}.{attr}")
    return bad
