"""The benchmark's three workloads, driven through the package's public API.

Each workload turns a seed into inputs (``setup``), serves them once
(``serve``), folds the outcome into the virtual-clock end-to-end
metrics (``metrics``) and checks the outputs (``check``).  ``serve`` is
what the timed window repeats; every pass builds fresh devices, engines
and fleets, so passes are independent and their virtual metrics repeat
exactly.

* ``offline_sweep`` — a closed loop, one client, one request at a time:
  ``run_system`` over every system x model x platform cell.
* ``tenant_overload`` — an open loop of Poisson arrivals from
  ``generate_traffic`` at 10x the fleet's probed capacity, served
  through ``FleetServer`` with tenancy admission, an ``EventLog`` and a
  ``LiveTelemetry`` fold attached.
* ``fused_plane_fleet`` — an open loop at a fixed virtual interval, 10x
  the fleet's probed capacity, over a Zipf request stream, served by a
  fusion-scheduled fleet with the shared weight plane, the data plane
  and numerics on.

The seed draws the request *content* (queries, candidates, relevance).
The two fleet workloads keep their load *shape* — the tenant
population and arrival instants, and the Zipf repeat pattern — fixed
across seeds, so that a seed moves the virtual metrics only through the
content and the benchmark's run-to-run spread stays small.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.core.api import REQUEST_FAILED, REQUEST_SHED, FleetServer, SelectionRequest, serve_all
from repro.core.config import PrismConfig
from repro.core.events import EventLog
from repro.core.fleet import FleetConfig, FleetService
from repro.core.metrics import precision_at_k
from repro.core.tenancy import (
    SLO_BATCH,
    SLO_CLASSES,
    selection_requests_from_trace,
    tenancy_from_trace,
)
from repro.data.datasets import ALL_DATASETS, get_dataset
from repro.data.traffic import TrafficConfig, TrafficTrace, generate_traffic
from repro.data.workloads import build_batch, make_query, zipf_request_stream
from repro.device.memory import MiB
from repro.device.platforms import get_profile
from repro.harness.live import LiveTelemetry
from repro.harness.runner import SYSTEMS, run_system, shared_model, shared_tokenizer
from repro.model.zoo import get_model_config

#: Requests without a tenant are batch-class work: they meet their SLO
#: when they complete within the batch class's deadline.
UNTENANTED_DEADLINE_S = SLO_BATCH.deadline_s


@dataclass
class Served:
    """One pass's outcome: request counts plus the workload's own detail."""

    attempted: int
    completed: int
    #: Requests that ended in an error status (a fault or an exception).
    #: Shed and out-of-memory requests are expected outcomes, not failures.
    failed: int
    detail: Any


def _percentile_ms(seconds: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(seconds), q)) * 1e3


def _seed_rng(tag: int, seed: int, *extra: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([tag, seed, *extra]))


def _fleet_peak_mib(fleet: FleetService) -> float:
    peaks = [r.service.device.memory.peak for r in fleet.replicas]
    return float(np.mean(peaks)) / MiB


def _fleet_metrics(
    fleet: FleetService, responses, labels: dict, deadline_of
) -> dict[str, float]:
    """Virtual end-to-end metrics shared by the two fleet workloads."""
    ok = [r for r in responses if r.ok]
    latencies = [r.e2e_seconds for r in ok]
    met = 0
    for response in ok:
        deadline = deadline_of(response)
        if deadline is None or response.e2e_seconds <= deadline:
            met += 1
    precisions = [
        precision_at_k(r.result.top_indices, labels[r.request_id], r.result.k) for r in ok
    ]
    return {
        "vlat_p50_ms": _percentile_ms(latencies, 50),
        "vlat_p95_ms": _percentile_ms(latencies, 95),
        "vthroughput_rps": float(fleet.stats().throughput_rps or 0.0),
        "vpeak_mem_mib": _fleet_peak_mib(fleet),
        "precision_at_k": float(np.mean(precisions)),
        "completed_share": len(ok) / len(responses),
        "slo_met_share": met / len(responses),
    }


# ----------------------------------------------------------------------
# offline_sweep
# ----------------------------------------------------------------------
@dataclass
class OfflineInputs:
    #: (model, platform) -> that cell's queries, shared by its five systems.
    queries: dict


class OfflineSweep:
    name = "offline_sweep"
    models = ("qwen3-reranker-0.6b", "qwen3-reranker-4b", "bge-reranker-v2-m3")
    platforms = ("nvidia_5070", "apple_m2")
    prism_family = ("prism", "prism_quant")
    #: The baseline each PRISM system's precision is held against.
    baseline_of = {"prism": "hf_offload", "prism_quant": "hf_quant"}
    datasets = tuple(ALL_DATASETS)
    queries_per_dataset = 1
    num_candidates = 20
    k = 10
    max_precision_drop = 0.15
    _tag = 0x0FF1

    def sizes(self) -> dict:
        return {
            "systems": list(SYSTEMS),
            "models": list(self.models),
            "platforms": list(self.platforms),
            "datasets": len(self.datasets),
            "queries_per_dataset": self.queries_per_dataset,
            "num_candidates": self.num_candidates,
            "k": self.k,
            "numerics": False,
            "requests_per_pass": len(SYSTEMS)
            * len(self.models)
            * len(self.platforms)
            * len(self.datasets)
            * self.queries_per_dataset,
        }

    def setup(self, seed: int) -> OfflineInputs:
        """Per (model, platform) cell, a seeded draw from each of the 18 datasets.

        Every cell draws its own queries, so a pass averages over six
        query sets rather than repeating one set six times.
        """
        queries = {}
        for cell, (model, platform) in enumerate(self._cells()):
            drawn = queries[model, platform] = []
            for name in self.datasets:
                spec = get_dataset(name)
                rng = _seed_rng(self._tag, seed, spec.seed, cell)
                for qid in range(self.queries_per_dataset):
                    labels, relevance = spec.profile.draw_pool(rng, self.num_candidates)
                    drawn.append(
                        make_query(
                            rng,
                            query_id=qid,
                            labels=labels,
                            relevance=relevance,
                            query_length=spec.query_length,
                            doc_length_mean=spec.doc_length_mean,
                        )
                    )
        for model in self.models:
            config = get_model_config(model)
            shared_model(config)
            shared_tokenizer(config)
        return OfflineInputs(queries=queries)

    def _cells(self) -> list[tuple[str, str]]:
        return [(model, platform) for model in self.models for platform in self.platforms]

    def serve(self, inputs: OfflineInputs) -> Served:
        cells = {}
        for system in SYSTEMS:
            for model, platform in self._cells():
                cells[system, model, platform] = run_system(
                    system,
                    get_model_config(model),
                    platform,
                    inputs.queries[model, platform],
                    k=self.k,
                    keep_results=system in self.prism_family,
                )
        attempted = sum(len(inputs.queries[m, p]) for _, m, p in cells)
        completed = sum(len(stats.latencies) for stats in cells.values())
        return Served(attempted=attempted, completed=completed, failed=0, detail=cells)

    def _prism_cells(self, served: Served) -> list:
        return [s for (system, _, _), s in served.detail.items() if system in self.prism_family]

    def metrics(self, inputs: OfflineInputs, served: Served) -> dict[str, float]:
        prism = self._prism_cells(served)
        latencies = [lat for stats in prism for lat in stats.latencies]
        everything = [lat for stats in served.detail.values() for lat in stats.latencies]
        met = sum(1 for lat in everything if lat <= UNTENANTED_DEADLINE_S)
        return {
            "vlat_p50_ms": _percentile_ms(latencies, 50),
            "vlat_p95_ms": _percentile_ms(latencies, 95),
            "vthroughput_rps": len(latencies) / float(np.sum(latencies)),
            "vpeak_mem_mib": float(np.mean([stats.peak_mib for stats in prism])),
            "precision_at_k": float(np.mean([p for s in prism for p in s.precisions])),
            "completed_share": served.completed / served.attempted,
            "slo_met_share": met / served.attempted,
        }

    def vlat_reduction_vs_offload(self, served: Served) -> float:
        """1 - mean PRISM latency / mean HF-Offload latency over the same cells."""
        prism, offload = [], []
        for model, platform in self._cells():
            prism += served.detail["prism", model, platform].latencies
            offload += served.detail["hf_offload", model, platform].latencies
        return 1.0 - float(np.mean(prism)) / float(np.mean(offload))

    def check(self, inputs: OfflineInputs, served: Served) -> list[str]:
        failures = []
        cells = served.detail
        for (system, model, platform), stats in cells.items():
            where = f"{system}/{model}/{platform}"
            if system in self.prism_family:
                queries = inputs.queries[model, platform]
                if stats.oom or len(stats.results) != len(queries):
                    failures.append(f"{where}: {len(stats.results)} results, oom={stats.oom}")
                for query, result in zip(queries, stats.results):
                    picked = result.top_indices
                    if (
                        picked.size != self.k
                        or np.unique(picked).size != self.k
                        or picked.min() < 0
                        or picked.max() >= query.num_candidates
                    ):
                        failures.append(f"{where}: bad selection {picked.tolist()}")
                baseline = cells[self.baseline_of[system], model, platform]
                if baseline.oom:
                    baseline = cells["hf_offload", model, platform]
                delta = stats.mean_precision - baseline.mean_precision
                if not delta > -self.max_precision_drop:
                    failures.append(f"{where}: precision delta {delta:.3f} vs baseline")
            if system == "hf" and model == "qwen3-reranker-4b" and not stats.oom:
                failures.append(f"{where}: expected OOM, got {len(stats.latencies)} results")
        return failures

    def phases(self, inputs: OfflineInputs, served: Served) -> dict:
        oom = served.attempted - served.completed
        return {
            "sweep": {
                "sent": served.attempted,
                "succeeded": served.completed,
                "oom": oom,
                "failed": served.failed,
            }
        }


# ----------------------------------------------------------------------
# tenant_overload
# ----------------------------------------------------------------------
@dataclass
class TenantInputs:
    capacity_rps: float
    probe_sent: int
    probe_succeeded: int
    trace: TrafficTrace
    requests: list
    labels: dict


class TenantOverload:
    name = "tenant_overload"
    model = "qwen3-reranker-0.6b"
    platform = "nvidia_5070"
    num_replicas = 2
    max_batch = 8
    max_wait_ms = 5.0
    num_tenants = 1000
    duration_s = 10.0
    overload = 10.0
    num_candidates = 8
    probe_requests = 16
    #: Distinct base queries and their Zipf popularity: a flat, wide pool,
    #: so no handful of hot queries decides the mean service time.
    base_queries = 512
    query_zipf_s = 0.5
    #: Seed of the tenant population and arrival instants (the load shape).
    shape_seed = 0
    _tag = 0x7E11

    def sizes(self) -> dict:
        return {
            "model": self.model,
            "platform": self.platform,
            "replicas": self.num_replicas,
            "max_batch": self.max_batch,
            "max_wait_ms": self.max_wait_ms,
            "tenants": self.num_tenants,
            "duration_s": self.duration_s,
            "overload": self.overload,
            "max_candidates": self.num_candidates,
            "probe_requests": self.probe_requests,
            "base_queries": self.base_queries,
            "query_zipf_s": self.query_zipf_s,
            "shape_seed": self.shape_seed,
            "data_plane": False,
            "numerics": False,
        }

    def _fleet(self, tenancy=None, event_log=None) -> FleetService:
        return FleetService.homogeneous(
            shared_model(get_model_config(self.model)),
            get_profile(self.platform),
            self.num_replicas,
            fleet_config=FleetConfig(max_batch=self.max_batch, max_wait_ms=self.max_wait_ms),
            config=PrismConfig(numerics=False),
            tenancy=tenancy,
            event_log=event_log,
        )

    def setup(self, seed: int) -> TenantInputs:
        config = get_model_config(self.model)
        tokenizer = shared_tokenizer(config)
        # Capacity: a closed back-to-back burst on an untenanted fleet.
        probe = FleetServer(self._fleet())
        probe_queries = get_dataset("wikipedia").queries(self.probe_requests, self.num_candidates)
        responses = serve_all(
            probe,
            [
                SelectionRequest(batch=build_batch(q, tokenizer, config.max_seq_len), k=1)
                for q in probe_queries
            ],
        )
        capacity = float(probe.fleet.stats().throughput_rps or 0.0)
        shape = generate_traffic(
            TrafficConfig(
                num_tenants=self.num_tenants,
                duration_s=self.duration_s,
                rate_rps=self.overload * capacity,
                seed=self.shape_seed,
                num_base_queries=self.base_queries,
                query_zipf_s=self.query_zipf_s,
                max_candidates=self.num_candidates,
            )
        )
        trace = self._redraw_content(shape, seed)
        requests = selection_requests_from_trace(trace, tokenizer, config.max_seq_len)
        labels = {
            request.request_id: record.query.labels()
            for request, record in zip(requests, trace.requests)
        }
        return TenantInputs(
            capacity_rps=capacity,
            probe_sent=len(probe_queries),
            probe_succeeded=sum(r.ok for r in responses),
            trace=trace,
            requests=requests,
            labels=labels,
        )

    def _redraw_content(self, shape: TrafficTrace, seed: int) -> TrafficTrace:
        """Keep the trace's tenants and arrivals; draw its queries from ``seed``.

        The base-query pool is redrawn the way ``generate_traffic`` draws
        it, and every arrival keeps its base-query index and candidate
        count, so repeats stay repeats.
        """
        cfg = shape.config
        rng = _seed_rng(self._tag, seed)
        pool = []
        for qi in range(cfg.num_base_queries):
            relevance = rng.uniform(0.05, 0.95, size=cfg.max_candidates)
            pool.append(
                make_query(
                    rng,
                    query_id=qi,
                    labels=relevance >= 0.5,
                    relevance=relevance,
                    query_length=cfg.query_length,
                    doc_length_mean=cfg.doc_length_mean,
                )
            )
        requests = []
        for record in shape.requests:
            base = pool[record.query.query_id]
            size = record.query.num_candidates
            query = replace(base, candidates=base.candidates[:size], tenant=record.tenant)
            requests.append(replace(record, query=query))
        return TrafficTrace(config=cfg, tenants=shape.tenants, requests=requests)

    def serve(self, inputs: TenantInputs) -> Served:
        log = EventLog()
        tenancy = tenancy_from_trace(inputs.trace)
        fleet = self._fleet(tenancy=tenancy, event_log=log)
        live = LiveTelemetry(log, tenancy=tenancy)
        try:
            responses = serve_all(FleetServer(fleet), inputs.requests)
            live.drain()
        finally:
            live.close()
        completed = sum(r.ok for r in responses)
        failed = sum(r.status == REQUEST_FAILED for r in responses)
        return Served(
            attempted=len(responses),
            completed=completed,
            failed=failed,
            detail=(fleet, responses, log, live),
        )

    def metrics(self, inputs: TenantInputs, served: Served) -> dict[str, float]:
        fleet, responses, _, _ = served.detail
        profiles = inputs.trace.tenants

        def deadline_of(response):
            return SLO_CLASSES[profiles[response.tenant].slo].deadline_s

        return _fleet_metrics(fleet, responses, inputs.labels, deadline_of)

    def check(self, inputs: TenantInputs, served: Served) -> list[str]:
        fleet, responses, log, live = served.detail
        stats = fleet.stats()
        failures = []
        if inputs.probe_succeeded != inputs.probe_sent:
            failures.append(f"capacity probe: {inputs.probe_succeeded}/{inputs.probe_sent} ok")
        if len(responses) != len(inputs.requests):
            failures.append(f"{len(responses)} responses for {len(inputs.requests)} requests")
        if stats.starved_tenants:
            failures.append(f"{len(stats.starved_tenants)} starved tenants")
        if stats.shed_bound_violations:
            failures.append(f"{len(stats.shed_bound_violations)} shed-bound violations")
        profiles = inputs.trace.tenants
        interactive_shed = sum(
            1
            for r in responses
            if r.status == REQUEST_SHED and profiles[r.tenant].slo == "interactive"
        )
        if interactive_shed:
            failures.append(f"{interactive_shed} interactive requests shed")
        if live.collector.events_seen != len(log) or live.subscription.dropped:
            failures.append(
                f"telemetry folded {live.collector.events_seen} of {len(log)} events "
                f"({live.subscription.dropped} dropped)"
            )
        if served.failed:
            failures.append(f"{served.failed} requests failed")
        return failures

    def phases(self, inputs: TenantInputs, served: Served) -> dict:
        _, responses, _, _ = served.detail
        return {
            "capacity_probe": {
                "sent": inputs.probe_sent,
                "succeeded": inputs.probe_succeeded,
                "failed": inputs.probe_sent - inputs.probe_succeeded,
                "capacity_rps": inputs.capacity_rps,
            },
            "serve": {
                "sent": served.attempted,
                "succeeded": served.completed,
                "shed": sum(r.status == REQUEST_SHED for r in responses),
                "failed": served.failed,
            },
        }


# ----------------------------------------------------------------------
# fused_plane_fleet
# ----------------------------------------------------------------------
@dataclass
class FusedInputs:
    capacity_rps: float
    probe_sent: int
    probe_succeeded: int
    #: Virtual seconds between arrivals: 1 / (overload x capacity).
    arrival_interval_s: float
    queries: list
    batches: list


class _QueryPool(Sequence):
    """``size`` queries, each drawn from its own seeded stream on first use.

    ``zipf_request_stream`` reads only the queries it picks, so only
    those are drawn, not the whole pool.
    """

    def __init__(self, size: int, draw) -> None:
        self._size = size
        self._draw = draw
        self._drawn: dict[int, Any] = {}

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index: int):
        if not 0 <= index < self._size:
            raise IndexError(index)
        if index not in self._drawn:
            self._drawn[index] = self._draw(index)
        return self._drawn[index]


class FusedPlaneFleet:
    name = "fused_plane_fleet"
    model = "qwen3-reranker-0.6b"
    platform = "nvidia_5070"
    num_replicas = 2
    unique_queries = 1500
    num_requests = 96
    zipf_s = 1.1
    partial_overlap_rate = 0.25
    #: Offered rate as a multiple of the capacity a closed burst of
    #: distinct requests measures.  Saturation is intended: the fusion
    #: scheduler gangs only requests that queue together: at this load
    #: gangs average about two members, at 2.5x they do not form.
    overload = 10.0
    #: One full batch per replica.  The probe runs with numerics off,
    #: which costs a quarter of the wall time and gives the same virtual
    #: capacity.
    probe_requests = 8
    num_candidates = 20
    k = 10
    #: Seed of the Zipf repeat pattern (which draws repeat or mutate).
    shape_seed = 7
    _tag = 0xF05E
    fleet_config = FleetConfig(
        max_batch=4,
        intra_concurrency=4,
        intra_policy="fusion",
        shared_weight_plane=True,
        data_plane=True,
        shared_embedding_cache=True,
    )

    def sizes(self) -> dict:
        return {
            "model": self.model,
            "platform": self.platform,
            "replicas": self.num_replicas,
            "unique_queries": self.unique_queries,
            "requests": self.num_requests,
            "zipf_s": self.zipf_s,
            "partial_overlap_rate": self.partial_overlap_rate,
            "overload": self.overload,
            "probe_requests": self.probe_requests,
            "num_candidates": self.num_candidates,
            "k": self.k,
            "shape_seed": self.shape_seed,
            "max_batch": self.fleet_config.max_batch,
            "intra_concurrency": self.fleet_config.intra_concurrency,
            "intra_policy": self.fleet_config.intra_policy,
            "numerics": True,
        }

    def setup(self, seed: int) -> FusedInputs:
        config = get_model_config(self.model)
        tokenizer = shared_tokenizer(config)
        spec = get_dataset("wikipedia")
        # Capacity: a closed back-to-back burst of distinct requests, so
        # every one is a data-plane miss.
        probe = FleetServer(self._fleet(numerics=False))
        probe_queries = spec.queries(self.probe_requests, self.num_candidates)
        responses = serve_all(
            probe,
            [
                SelectionRequest(batch=build_batch(q, tokenizer, config.max_seq_len), k=self.k)
                for q in probe_queries
            ],
        )
        capacity = float(probe.fleet.stats().throughput_rps or 0.0)

        def draw(qid: int):
            rng = _seed_rng(self._tag, seed, qid)
            labels, relevance = spec.profile.draw_pool(rng, self.num_candidates)
            return make_query(
                rng,
                query_id=qid,
                labels=labels,
                relevance=relevance,
                query_length=spec.query_length,
                doc_length_mean=spec.doc_length_mean,
            )

        stream = zipf_request_stream(
            np.random.default_rng(self.shape_seed),
            _QueryPool(self.unique_queries, draw),
            self.num_requests,
            zipf_s=self.zipf_s,
            partial_overlap_rate=self.partial_overlap_rate,
        )
        batches = [build_batch(q, tokenizer, config.max_seq_len) for q in stream]
        return FusedInputs(
            capacity_rps=capacity,
            probe_sent=len(probe_queries),
            probe_succeeded=sum(r.ok for r in responses),
            arrival_interval_s=1.0 / (self.overload * capacity) if capacity else 0.0,
            queries=stream,
            batches=batches,
        )

    def _fleet(self, numerics: bool = True) -> FleetService:
        return FleetService.homogeneous(
            shared_model(get_model_config(self.model)),
            get_profile(self.platform),
            self.num_replicas,
            fleet_config=self.fleet_config,
            config=PrismConfig(numerics=numerics),
        )

    def serve(self, inputs: FusedInputs) -> Served:
        fleet = self._fleet()
        requests = [
            SelectionRequest(
                batch=batch, k=self.k, request_id=i, arrival=i * inputs.arrival_interval_s
            )
            for i, batch in enumerate(inputs.batches)
        ]
        responses = serve_all(FleetServer(fleet), requests)
        completed = sum(r.ok for r in responses)
        failed = sum(r.status == REQUEST_FAILED for r in responses)
        return Served(
            attempted=len(responses), completed=completed, failed=failed, detail=(fleet, responses)
        )

    def metrics(self, inputs: FusedInputs, served: Served) -> dict[str, float]:
        fleet, responses = served.detail
        labels = {i: query.labels() for i, query in enumerate(inputs.queries)}
        return _fleet_metrics(fleet, responses, labels, lambda r: UNTENANTED_DEADLINE_S)

    def check(self, inputs: FusedInputs, served: Served) -> list[str]:
        """Every selection equals the solo float64 replay of its batch."""
        fleet, responses = served.detail
        failures = []
        if inputs.probe_succeeded != inputs.probe_sent or not inputs.capacity_rps:
            failures.append(f"capacity probe: {inputs.probe_succeeded}/{inputs.probe_sent} ok")
        if served.completed != served.attempted:
            failures.append(f"{served.completed}/{served.attempted} requests completed")
        service = fleet.replicas[0].service
        replays: dict[tuple[bytes, bytes], tuple[bytes, bytes]] = {}
        for response in responses:
            if not response.ok:
                continue
            batch = inputs.batches[response.request_id]
            key = (batch.tokens.tobytes(), batch.uids.tobytes())
            if key not in replays:
                oracle = service.replay_selection(batch, self.k)
                replays[key] = (oracle.top_indices.tobytes(), oracle.top_scores.tobytes())
            got = (response.result.top_indices.tobytes(), response.result.top_scores.tobytes())
            if got != replays[key]:
                failures.append(
                    f"request {response.request_id} ({response.cache or 'pass'}): "
                    "selection differs from the solo replay"
                )
        return failures

    def phases(self, inputs: FusedInputs, served: Served) -> dict:
        fleet, _ = served.detail
        plane = fleet.stats().data_plane
        return {
            "capacity_probe": {
                "sent": inputs.probe_sent,
                "succeeded": inputs.probe_succeeded,
                "failed": inputs.probe_sent - inputs.probe_succeeded,
                "capacity_rps": inputs.capacity_rps,
                "arrival_interval_ms": inputs.arrival_interval_s * 1e3,
            },
            "serve": {
                "sent": served.attempted,
                "succeeded": served.completed,
                "failed": served.failed,
                "memo_hits": plane.memo_hits,
                "coalesced": plane.coalesced,
                "overlap_hits": plane.overlap_hits,
                "misses": plane.misses,
            },
        }


WORKLOADS = {w.name: w for w in (OfflineSweep(), TenantOverload(), FusedPlaneFleet())}
