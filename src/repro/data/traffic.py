"""Trace-driven open-loop multi-tenant traffic (DESIGN.md §13).

Every serving bench used to drive the fleet with a small hand-built
request list.  This module generates *fleet-scale* workloads on the
virtual clock: an **open-loop** arrival process (arrivals never wait
for completions — the discrete-event-correct way to model offered
load), thousands of distinct tenants with Zipf-skewed popularity, an
SLO class per tenant (``interactive`` / ``batch`` / ``best_effort``),
heavy-tailed candidate-set sizes, and reranking queries drawn from a
shared Zipf-repeated base pool so the §12 data plane still sees
overlap under tenant-tagged traffic.

Three arrival processes:

* ``poisson`` — homogeneous: i.i.d. exponential gaps at ``rate_rps``.
* ``mmpp`` — bursty: a two-state Markov-modulated Poisson process
  alternating calm and burst phases (burst intensity
  ``burst_multiplier``× calm), with the phase mix chosen so the
  *mean* rate stays ``rate_rps``.
* ``diurnal`` — a slow sinusoidal intensity (peak/trough over
  ``diurnal_period_s``), sampled exactly by thinning against the
  peak rate.

A generated trace serializes to one JSONL artifact (schema
``repro.traffic`` v1): a header carrying the config and the
per-tenant admission profiles (SLO class, fair-queuing weight,
token-bucket rate/burst), then one line per request with its arrival
offset, tenant, SLO class and the full
:class:`~repro.data.workloads.RerankQuery` spec — self-contained, so
``cli serve``/``cli traffic`` can replay it with nothing but the file.
Generation is a pure function of :class:`TrafficConfig` (one seeded
RNG), so the same config always yields a byte-identical trace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .workloads import CandidateSpec, RerankQuery, make_query, weighted_draws

#: JSONL header schema tag / version.
TRAFFIC_SCHEMA = "repro.traffic"
TRAFFIC_VERSION = 1

#: Supported arrival processes.
ARRIVAL_PROCESSES = ("poisson", "mmpp", "diurnal")

#: SLO class names a traffic trace may assign (mirrors
#: :data:`repro.core.tenancy.SLO_CLASSES`; kept as plain strings here
#: so the data layer stays import-free of the serving core).
TRAFFIC_SLO_CLASSES = ("interactive", "batch", "best_effort")


@dataclass(frozen=True)
class TrafficConfig:
    """Everything the generator needs; one seed, fully deterministic.

    ``rate_rps`` is the *offered* mean arrival rate; overload studies
    set it to a multiple of the fleet's measured capacity.
    ``admit_factor`` maps each SLO class to the token-bucket refill
    rate of its tenants, as a multiple of each tenant's own expected
    arrival rate — e.g. ``1.2`` gives interactive tenants 20%
    headroom over their expected traffic, while ``0.02`` lets
    best-effort tenants sustain only 2% of theirs under overload.
    ``burst_sigma`` sizes each class's bucket depth to absorb arrival
    *fluctuation*: a tenant expecting ``e`` arrivals gets
    ``burst = max(burst, sigma * sqrt(e))``, covering a
    ``sigma``-standard-deviation Poisson overshoot.  Without it, a
    small interactive tenant whose handful of arrivals cluster would
    blow through a flat burst and violate its shed bound on noise
    alone.
    """

    num_tenants: int = 100
    duration_s: float = 10.0
    rate_rps: float = 50.0
    process: str = "poisson"
    seed: int = 0
    # -- tenant population --------------------------------------------
    tenant_zipf_s: float = 1.1
    class_mix: tuple[tuple[str, float], ...] = (
        ("interactive", 0.05),
        ("batch", 0.10),
        ("best_effort", 0.85),
    )
    admit_factor: tuple[tuple[str, float], ...] = (
        ("interactive", 1.2),
        ("batch", 0.35),
        ("best_effort", 0.02),
    )
    burst: float = 2.0
    burst_sigma: tuple[tuple[str, float], ...] = (
        ("interactive", 3.5),
        ("batch", 1.0),
        ("best_effort", 0.0),
    )
    tenant_weights: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
    # -- workload shape -----------------------------------------------
    num_base_queries: int = 32
    query_zipf_s: float = 1.1
    max_candidates: int = 16
    min_candidates: int = 4
    candidate_tail: float = 1.5
    query_length: int = 16
    doc_length_mean: int = 64
    k: int = 1
    # -- mmpp knobs ---------------------------------------------------
    burst_multiplier: float = 4.0
    burst_fraction: float = 0.2
    mean_burst_s: float = 0.5
    # -- diurnal knobs ------------------------------------------------
    diurnal_period_s: float | None = None  # None = one period per trace
    diurnal_depth: float = 0.8

    def __post_init__(self) -> None:
        if self.num_tenants < 1:
            raise ValueError("num_tenants must be >= 1")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        if self.process not in ARRIVAL_PROCESSES:
            known = ", ".join(ARRIVAL_PROCESSES)
            raise ValueError(f"unknown arrival process {self.process!r}; known: {known}")
        # A Zipf exponent skews draws toward rank 1, and ``inf`` puts
        # every draw there.  NaN (and ``-inf``) gives no distribution.
        if not self.tenant_zipf_s >= 0:
            raise ValueError("tenant_zipf_s must be >= 0")
        if not self.query_zipf_s >= 0:
            raise ValueError("query_zipf_s must be >= 0")
        mix_names = [name for name, _ in self.class_mix]
        if sorted(mix_names) != sorted(set(mix_names)):
            raise ValueError("class_mix names must be unique")
        for name, share in self.class_mix:
            if name not in TRAFFIC_SLO_CLASSES:
                known = ", ".join(TRAFFIC_SLO_CLASSES)
                raise ValueError(f"unknown SLO class {name!r}; known: {known}")
            if share < 0:
                raise ValueError("class_mix shares must be >= 0")
        if not math.isclose(sum(share for _, share in self.class_mix), 1.0, abs_tol=1e-9):
            raise ValueError("class_mix shares must sum to 1")
        factors = dict(self.admit_factor)
        for name, _ in self.class_mix:
            if name not in factors:
                raise ValueError(f"admit_factor missing SLO class {name!r}")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        for name, sigma in self.burst_sigma:
            if name not in TRAFFIC_SLO_CLASSES:
                known = ", ".join(TRAFFIC_SLO_CLASSES)
                raise ValueError(f"unknown SLO class {name!r}; known: {known}")
            if sigma < 0:
                raise ValueError("burst_sigma values must be >= 0")
        if not self.tenant_weights or any(w <= 0 for w in self.tenant_weights):
            raise ValueError("tenant_weights must be positive")
        if self.num_base_queries < 1:
            raise ValueError("num_base_queries must be >= 1")
        if self.min_candidates < 2:
            raise ValueError("min_candidates must be >= 2")
        if self.max_candidates < self.min_candidates:
            raise ValueError("max_candidates must be >= min_candidates")
        if self.candidate_tail <= 0:
            raise ValueError("candidate_tail must be positive")
        if self.query_length < 0:
            raise ValueError("query_length must be >= 0")
        if self.doc_length_mean < 1:
            raise ValueError("doc_length_mean must be >= 1")
        if self.k < 1 or self.k > self.min_candidates:
            raise ValueError("k must lie in [1, min_candidates]")
        if self.burst_multiplier <= 1:
            raise ValueError("burst_multiplier must exceed 1")
        if not 0 < self.burst_fraction < 1:
            raise ValueError("burst_fraction must lie in (0, 1)")
        if self.mean_burst_s <= 0:
            raise ValueError("mean_burst_s must be positive")
        if self.diurnal_period_s is not None and self.diurnal_period_s <= 0:
            raise ValueError("diurnal_period_s must be positive")
        if not 0 <= self.diurnal_depth < 1:
            raise ValueError("diurnal_depth must lie in [0, 1)")

    def to_payload(self) -> dict[str, Any]:
        return {
            "num_tenants": self.num_tenants,
            "duration_s": self.duration_s,
            "rate_rps": self.rate_rps,
            "process": self.process,
            "seed": self.seed,
            "tenant_zipf_s": self.tenant_zipf_s,
            "class_mix": [list(pair) for pair in self.class_mix],
            "admit_factor": [list(pair) for pair in self.admit_factor],
            "burst": self.burst,
            "burst_sigma": [list(pair) for pair in self.burst_sigma],
            "tenant_weights": list(self.tenant_weights),
            "num_base_queries": self.num_base_queries,
            "query_zipf_s": self.query_zipf_s,
            "max_candidates": self.max_candidates,
            "min_candidates": self.min_candidates,
            "candidate_tail": self.candidate_tail,
            "query_length": self.query_length,
            "doc_length_mean": self.doc_length_mean,
            "k": self.k,
            "burst_multiplier": self.burst_multiplier,
            "burst_fraction": self.burst_fraction,
            "mean_burst_s": self.mean_burst_s,
            "diurnal_period_s": self.diurnal_period_s,
            "diurnal_depth": self.diurnal_depth,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "TrafficConfig":
        kwargs = dict(payload)
        kwargs["class_mix"] = tuple(
            (str(name), float(share)) for name, share in kwargs["class_mix"]
        )
        kwargs["admit_factor"] = tuple(
            (str(name), float(factor)) for name, factor in kwargs["admit_factor"]
        )
        kwargs["burst_sigma"] = tuple(
            (str(name), float(sigma)) for name, sigma in kwargs["burst_sigma"]
        )
        kwargs["tenant_weights"] = tuple(float(w) for w in kwargs["tenant_weights"])
        return cls(**kwargs)


@dataclass(frozen=True)
class TenantProfile:
    """One tenant's admission profile, carried in the trace header."""

    slo: str
    weight: float
    rate: float | None
    burst: float


@dataclass(frozen=True)
class TrafficRequest:
    """One generated arrival: when, who, and what to rerank."""

    arrival: float
    tenant: str
    slo: str
    k: int
    query: RerankQuery


@dataclass
class TrafficTrace:
    """A generated workload: config + tenant directory + arrivals."""

    config: TrafficConfig
    tenants: dict[str, TenantProfile] = field(default_factory=dict)
    requests: list[TrafficRequest] = field(default_factory=list)

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    def arriving_tenants(self) -> set[str]:
        """Tenants with at least one arrival in this trace."""
        return {request.tenant for request in self.requests}


# ---------------------------------------------------------------------------
# arrival processes
# ---------------------------------------------------------------------------
def _poisson_arrivals(rng: np.random.Generator, rate: float, duration: float) -> list[float]:
    arrivals = []
    t = float(rng.exponential(1.0 / rate))
    while t < duration:
        arrivals.append(t)
        t += float(rng.exponential(1.0 / rate))
    return arrivals


def _mmpp_arrivals(rng: np.random.Generator, cfg: TrafficConfig) -> list[float]:
    """Two-state MMPP: calm/burst phases with exponential sojourns.

    The calm intensity is chosen so the long-run mean matches
    ``rate_rps``: ``mean = (1-f)·c + f·c·m`` with burst fraction ``f``
    and multiplier ``m``.
    """
    f, m = cfg.burst_fraction, cfg.burst_multiplier
    calm_rate = cfg.rate_rps / (1.0 - f + f * m)
    mean_calm_s = cfg.mean_burst_s * (1.0 - f) / f
    arrivals: list[float] = []
    t, bursting = 0.0, False
    while t < cfg.duration_s:
        sojourn = float(
            rng.exponential(cfg.mean_burst_s if bursting else mean_calm_s)
        )
        phase_end = min(t + sojourn, cfg.duration_s)
        rate = calm_rate * (m if bursting else 1.0)
        t += float(rng.exponential(1.0 / rate))
        while t < phase_end:
            arrivals.append(t)
            t += float(rng.exponential(1.0 / rate))
        t = phase_end
        bursting = not bursting
    return arrivals


def _diurnal_arrivals(rng: np.random.Generator, cfg: TrafficConfig) -> list[float]:
    """Sinusoidal non-homogeneous Poisson, sampled exactly by thinning."""
    period = cfg.diurnal_period_s if cfg.diurnal_period_s is not None else cfg.duration_s
    peak = cfg.rate_rps * (1.0 + cfg.diurnal_depth)
    arrivals = []
    t = float(rng.exponential(1.0 / peak))
    while t < cfg.duration_s:
        intensity = cfg.rate_rps * (
            1.0 + cfg.diurnal_depth * math.sin(2.0 * math.pi * t / period)
        )
        if rng.random() < intensity / peak:
            arrivals.append(t)
        t += float(rng.exponential(1.0 / peak))
    return arrivals


def _arrivals(rng: np.random.Generator, cfg: TrafficConfig) -> list[float]:
    if cfg.process == "poisson":
        return _poisson_arrivals(rng, cfg.rate_rps, cfg.duration_s)
    if cfg.process == "mmpp":
        return _mmpp_arrivals(rng, cfg)
    return _diurnal_arrivals(rng, cfg)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------
def _zipf_weights(n: int, s: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-s
    return weights / weights.sum()


def generate_traffic(config: TrafficConfig) -> TrafficTrace:
    """Generate one multi-tenant workload trace from a config.

    Deterministic: one :class:`numpy.random.Generator` seeded from
    ``config.seed`` drives every draw, in a fixed order.  Candidate
    sets are heavy-tailed (Pareto) truncations of a shared Zipf-hot
    base-query pool, so repeats stay memo-hittable for the §12 plane.
    """
    rng = np.random.default_rng(config.seed)
    tenant_p = _zipf_weights(config.num_tenants, config.tenant_zipf_s)
    mix_names = [name for name, _ in config.class_mix]
    draw_class = weighted_draws(rng, np.array([share for _, share in config.class_mix]))
    weights = np.asarray(config.tenant_weights)
    factors = dict(config.admit_factor)
    sigmas = dict(config.burst_sigma)
    tenants: dict[str, TenantProfile] = {}
    tenant_ids = [f"t{i:04d}" for i in range(config.num_tenants)]
    for i, tenant in enumerate(tenant_ids):
        slo = mix_names[draw_class()]
        # The one bounded draw ``rng.choice(weights)`` makes, so traces
        # replay byte for byte.
        weight = float(weights[rng.integers(0, weights.size)])
        # Token rate proportional to the tenant's own expected traffic,
        # scaled by its class's admit factor; burst deep enough to
        # absorb a sigma-sized Poisson overshoot (see TrafficConfig).
        expected = float(tenant_p[i]) * config.rate_rps * config.duration_s
        rate = factors[slo] * float(tenant_p[i]) * config.rate_rps
        burst = max(config.burst, sigmas.get(slo, 0.0) * math.sqrt(expected))
        tenants[tenant] = TenantProfile(
            slo=slo, weight=weight, rate=rate, burst=burst
        )

    base_queries = []
    for qi in range(config.num_base_queries):
        relevance = rng.uniform(0.05, 0.95, size=config.max_candidates)
        base_queries.append(
            make_query(
                rng,
                query_id=qi,
                labels=relevance >= 0.5,
                relevance=relevance,
                query_length=config.query_length,
                doc_length_mean=config.doc_length_mean,
            )
        )
    draw_tenant = weighted_draws(rng, tenant_p)
    draw_query = weighted_draws(rng, _zipf_weights(config.num_base_queries, config.query_zipf_s))

    arrivals = _arrivals(rng, config)
    truncated: dict[tuple[int, int], RerankQuery] = {}
    requests: list[TrafficRequest] = []
    for arrival in arrivals:
        tenant = tenant_ids[draw_tenant()]
        qi = draw_query()
        tail = float(rng.pareto(config.candidate_tail))
        size = min(
            config.max_candidates,
            max(config.min_candidates, int(config.min_candidates * (1.0 + tail))),
        )
        key = (qi, size)
        if key not in truncated:
            base = base_queries[qi]
            truncated[key] = (
                base
                if size >= base.num_candidates
                else replace(base, candidates=base.candidates[:size])
            )
        query = truncated[key]
        requests.append(
            TrafficRequest(
                arrival=float(arrival),
                tenant=tenant,
                slo=tenants[tenant].slo,
                k=config.k,
                query=RerankQuery(
                    query_id=query.query_id,
                    seed=query.seed,
                    query_length=query.query_length,
                    candidates=query.candidates,
                    tenant=tenant,
                ),
            )
        )
    return TrafficTrace(config=config, tenants=tenants, requests=requests)


# ---------------------------------------------------------------------------
# the JSONL artifact (repro.traffic v1)
# ---------------------------------------------------------------------------
def _query_to_payload(query: RerankQuery) -> dict[str, Any]:
    # Mirrors repro.core.trace.query_to_payload (kept local so the data
    # layer does not import the serving core); the tenant tag rides the
    # request line, not the query payload.
    return {
        "query_id": query.query_id,
        "seed": query.seed,
        "query_length": query.query_length,
        "candidates": [
            [c.uid, c.seed, c.length, c.relevance, bool(c.is_relevant)]
            for c in query.candidates
        ],
    }


def _query_from_payload(payload: Mapping[str, Any], tenant: str | None) -> RerankQuery:
    return RerankQuery(
        query_id=int(payload["query_id"]),
        seed=int(payload["seed"]),
        query_length=int(payload["query_length"]),
        candidates=tuple(
            CandidateSpec(
                uid=int(uid),
                seed=int(seed),
                length=int(length),
                relevance=float(relevance),
                is_relevant=bool(is_relevant),
            )
            for uid, seed, length, relevance, is_relevant in payload["candidates"]
        ),
        tenant=tenant,
    )


def render_traffic(trace: TrafficTrace) -> str:
    """The canonical JSONL artifact: schema header + one line per request."""
    header = {
        "schema": TRAFFIC_SCHEMA,
        "version": TRAFFIC_VERSION,
        "config": trace.config.to_payload(),
        "tenants": {
            tenant: {
                "slo": profile.slo,
                "weight": profile.weight,
                "rate": profile.rate,
                "burst": profile.burst,
            }
            for tenant, profile in trace.tenants.items()
        },
    }
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    for request in trace.requests:
        lines.append(
            json.dumps(
                {
                    "arrival": request.arrival,
                    "tenant": request.tenant,
                    "slo": request.slo,
                    "k": request.k,
                    "query": _query_to_payload(request.query),
                },
                sort_keys=True,
                separators=(",", ":"),
            )
        )
    return "\n".join(lines) + "\n"


def parse_traffic(text: str) -> TrafficTrace:
    """Parse a ``repro.traffic`` v1 JSONL artifact back into a trace."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty traffic trace: no schema header")
    header = json.loads(lines[0])
    if header.get("schema") != TRAFFIC_SCHEMA:
        raise ValueError(
            f"not a {TRAFFIC_SCHEMA} file (schema={header.get('schema')!r})"
        )
    if header.get("version") != TRAFFIC_VERSION:
        raise ValueError(
            f"traffic version {header.get('version')!r} != supported {TRAFFIC_VERSION}"
        )
    tenants = {
        tenant: TenantProfile(
            slo=str(entry["slo"]),
            weight=float(entry["weight"]),
            rate=None if entry.get("rate") is None else float(entry["rate"]),
            burst=float(entry["burst"]),
        )
        for tenant, entry in header.get("tenants", {}).items()
    }
    requests = []
    for line in lines[1:]:
        entry = json.loads(line)
        tenant = str(entry["tenant"])
        requests.append(
            TrafficRequest(
                arrival=float(entry["arrival"]),
                tenant=tenant,
                slo=str(entry["slo"]),
                k=int(entry["k"]),
                query=_query_from_payload(entry["query"], tenant),
            )
        )
    return TrafficTrace(
        config=TrafficConfig.from_payload(header["config"]),
        tenants=tenants,
        requests=requests,
    )


def write_traffic_trace(trace: TrafficTrace, path: str | Path) -> str:
    text = render_traffic(trace)
    Path(path).write_text(text)
    return text


def read_traffic_trace(path: str | Path) -> TrafficTrace:
    return parse_traffic(Path(path).read_text())


def is_traffic_file(path: str | Path) -> bool:
    """Cheap sniff: does the file start with a repro.traffic header?"""
    try:
        with open(path, "r") as handle:
            first = handle.readline()
        header = json.loads(first)
    except (OSError, ValueError):
        return False
    # A legacy request file starts with a JSON list, not a header object.
    return isinstance(header, dict) and header.get("schema") == TRAFFIC_SCHEMA


@dataclass
class TrafficSummary:
    """Aggregate view of one trace (``cli traffic summary``)."""

    num_requests: int
    duration_s: float
    mean_rate_rps: float
    num_tenants: int
    arriving_tenants: int
    per_class: dict[str, int]
    candidate_sizes: tuple[int, int, float]  # (min, max, mean)


def summarize_traffic(trace: TrafficTrace) -> TrafficSummary:
    per_class: dict[str, int] = {}
    for request in trace.requests:
        per_class[request.slo] = per_class.get(request.slo, 0) + 1
    sizes = [request.query.num_candidates for request in trace.requests]
    span = max((r.arrival for r in trace.requests), default=0.0)
    return TrafficSummary(
        num_requests=len(trace.requests),
        duration_s=trace.config.duration_s,
        mean_rate_rps=(len(trace.requests) / span) if span > 0 else 0.0,
        num_tenants=trace.config.num_tenants,
        arriving_tenants=len(trace.arriving_tenants()),
        per_class=per_class,
        candidate_sizes=(
            (min(sizes), max(sizes), float(np.mean(sizes))) if sizes else (0, 0, 0.0)
        ),
    )
