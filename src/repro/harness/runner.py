"""Experiment runner: system × model × platform × workload → statistics.

This is the measurement layer every table/figure bench goes through.
A run creates a *fresh* simulated device, builds the requested engine,
``prepare()``s it (resident-weight loading, not counted in request
latency, as in the paper's steady-state measurements), replays the
workload and collects latency / Precision@K / memory statistics.

The five evaluated systems are addressed by name, matching §6.1:
``hf``, ``hf_offload``, ``hf_quant``, ``prism``, ``prism_quant``.
Memory-budget violations (e.g. vanilla HF with Qwen3-4B/8B on 8 GiB
devices) surface as ``oom=True`` results rather than exceptions, which
is how Table 3 / Figures 8–9 report them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..baselines import HFEngine, HFOffloadEngine, HFQuantEngine, prism_quant_engine
from ..core.api import EngineServer, SelectionRequest
from ..core.config import PrismConfig
from ..core.engine import EngineBase, PrismEngine, RerankResult
from ..core.metrics import precision_at_k
from ..data.workloads import RerankQuery, build_batch
from ..device.memory import MiB, OutOfMemoryError, TimelinePoint
from ..device.platforms import get_profile
from ..model.shared import shared_model, shared_tokenizer
from ..model.transformer import CrossEncoderModel
from ..model.zoo import ModelConfig

#: The systems compared throughout the evaluation (§6.1).
SYSTEMS = ("hf", "hf_offload", "hf_quant", "prism", "prism_quant")


def create_engine(
    system: str,
    model: CrossEncoderModel,
    device,
    threshold: float | None = None,
    prism_config: PrismConfig | None = None,
    numerics: bool = False,
) -> EngineBase:
    """Build one of the five evaluated systems by name."""
    if system == "hf":
        return HFEngine(model, device, numerics=numerics)
    if system == "hf_offload":
        return HFOffloadEngine(model, device, numerics=numerics)
    if system == "hf_quant":
        return HFQuantEngine(model, device, numerics=numerics)
    if system in ("prism", "prism_quant"):
        config = prism_config
        if config is None:
            config = PrismConfig.quant() if system == "prism_quant" else PrismConfig()
        config = replace(config, numerics=numerics)
        if threshold is not None:
            config = config.with_threshold(threshold)
        if system == "prism_quant":
            if not config.quantized:
                config = replace(config, quantized=True)
            return prism_quant_engine(model, device, config)
        return PrismEngine(model, device, config)
    raise KeyError(f"unknown system {system!r}; known: {SYSTEMS}")


@dataclass
class RunStats:
    """Aggregated outcome of one system over one workload."""

    system: str
    model: str
    platform: str
    k: int
    oom: bool = False
    latencies: list[float] = field(default_factory=list)
    precisions: list[float] = field(default_factory=list)
    peak_mib: float = 0.0
    avg_mib: float = 0.0
    io_stall_seconds: float = 0.0
    candidate_layers: int = 0
    full_candidate_layers: int = 0
    timeline: list[TimelinePoint] = field(default_factory=list)
    results: list[RerankResult] = field(default_factory=list)
    #: LRU embedding-cache hit fraction; None when the system has no
    #: cache, or when the cache was never consulted (never 1.0-by-default).
    embedding_hit_rate: float | None = None

    @property
    def mean_latency(self) -> float:
        return float(np.mean(self.latencies)) if self.latencies else float("nan")

    @property
    def mean_precision(self) -> float:
        return float(np.mean(self.precisions)) if self.precisions else float("nan")

    @property
    def pruned_fraction(self) -> float:
        """Fraction of candidate-layer work avoided versus a full pass."""
        if self.full_candidate_layers == 0:
            return 0.0
        return 1.0 - self.candidate_layers / self.full_candidate_layers


def run_system(
    system: str,
    model_config: ModelConfig,
    platform: str,
    queries: list[RerankQuery],
    k: int,
    threshold: float | None = None,
    prism_config: PrismConfig | None = None,
    numerics: bool = False,
    keep_results: bool = False,
    keep_timeline: bool = False,
) -> RunStats:
    """Run one system over a query workload on a fresh device."""
    if not queries:
        raise ValueError("queries must be non-empty")
    stats = RunStats(system=system, model=model_config.name, platform=platform, k=k)
    device = get_profile(platform).create()
    model = shared_model(model_config)
    tokenizer = shared_tokenizer(model_config)
    engine = create_engine(
        system, model, device, threshold=threshold, prism_config=prism_config, numerics=numerics
    )
    try:
        engine.prepare()
    except OutOfMemoryError:
        stats.oom = True
        return stats

    server = EngineServer(engine)
    request_start = device.clock.now
    try:
        for query in queries:
            batch = build_batch(query, tokenizer, model_config.max_seq_len)
            response = server.submit(SelectionRequest(batch=batch, k=k)).result()
            result = response.result
            assert result is not None  # no deadline/cancel on this path
            stats.latencies.append(result.latency_seconds)
            stats.precisions.append(precision_at_k(result.top_indices, query.labels(), k))
            stats.io_stall_seconds += result.io_stall_seconds
            stats.candidate_layers += result.candidate_layers
            stats.full_candidate_layers += query.num_candidates * model_config.num_layers
            if keep_results:
                stats.results.append(result)
    except OutOfMemoryError:
        stats.oom = True
        return stats

    mem = device.memory.stats()
    stats.peak_mib = mem.peak_bytes / MiB
    stats.avg_mib = mem.avg_bytes / MiB
    cache = getattr(engine, "embedding_cache", None)
    if cache is not None:
        stats.embedding_hit_rate = cache.hit_rate
    if keep_timeline:
        stats.timeline = [
            TimelinePoint(point.time - request_start, point.in_use)
            for point in device.memory.timeline()
            if point.time >= request_start
        ]
    return stats
