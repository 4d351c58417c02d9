"""One entry point per paper table/figure (DESIGN.md §4).

Every experiment returns a structured result object with a ``render()``
method producing the text-table equivalent of the paper's artifact.
Benchmarks under ``benchmarks/`` call these entry points; tests assert
the *shapes* the paper reports (who wins, by roughly what factor, where
crossovers fall).

Workload sizes are parameters so tests can run scaled-down versions
while the benches run closer to paper scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..apps.agent_memory import AgentMemoryApp, AgentRunResult
from ..apps.long_context import LongContextApp, LongContextRunResult
from ..apps.long_context import generate_tasks as generate_lcs_tasks
from ..apps.rag import RagPipeline, RagRunResult
from ..core.api import SelectionRequest, serve_all
from ..core.clustering import cluster_scores
from ..core.config import PrismConfig
from ..core.resilience import FAULT_REPLICA_CRASH
from ..core.scheduler import LANE_BATCH, LANE_INTERACTIVE
from ..core.service import SemanticSelectionService
from ..core.trace import TraceSpec, build_server
from ..core.metrics import cluster_gamma, goodman_kruskal_gamma, precision_at_k
from ..data.datasets import ALL_DATASETS, get_dataset
from ..device.memory import TimelinePoint
from ..model.zoo import (
    BGE_MINICPM,
    PAPER_MODELS,
    QWEN3_0_6B,
    ModelConfig,
    get_model_config,
)
from ..data.workloads import build_batches
from ..retrieval.corpus import SyntheticCorpus
from .reporting import format_series, format_table, ms, pct
from .runner import RunStats, run_system, shared_model, shared_tokenizer

#: Figure 8's seven compared configurations, in plot order.
FIG8_SYSTEMS = (
    "hf",
    "hf_offload",
    "hf_quant",
    "prism_low",
    "prism_high",
    "prism_quant_low",
    "prism_quant_high",
)


def _threshold(model: ModelConfig, level: str) -> float:
    """Low/high dispersion thresholds from the model's sweep range."""
    lo, hi = model.threshold_range
    if level == "low":
        return lo + 0.15 * (hi - lo)
    if level == "high":
        return lo + 0.70 * (hi - lo)
    raise ValueError(f"unknown threshold level {level!r}")


def _run_fig8_system(
    name: str,
    model: ModelConfig,
    platform: str,
    queries,
    k: int,
) -> RunStats:
    """Run one of the seven Figure 8 configurations."""
    if name in ("hf", "hf_offload", "hf_quant"):
        return run_system(name, model, platform, queries, k)
    base, level = name.rsplit("_", 1)
    system = "prism" if base == "prism" else "prism_quant"
    return run_system(system, model, platform, queries, k, threshold=_threshold(model, level))


# ----------------------------------------------------------------------
# Figure 1 — pipeline cost breakdown
# ----------------------------------------------------------------------
@dataclass
class Fig1Result:
    """Per-stage cost of the semantic file-search pipeline."""

    platform: str
    retrieval_seconds: float
    retrieval_mib: float
    rerank_seconds: float
    rerank_peak_mib: float
    rerank_latency_share: float
    rerank_memory_share: float

    def render(self) -> str:
        rows = [
            ("retrieval", ms(self.retrieval_seconds), f"{self.retrieval_mib:.0f}"),
            ("rerank", ms(self.rerank_seconds), f"{self.rerank_peak_mib:.0f}"),
        ]
        table = format_table(
            ("stage", "latency", "peak MiB"),
            rows,
            title=f"Figure 1 — pipeline cost on {self.platform}",
        )
        return (
            table
            + f"\nrerank share: {pct(self.rerank_latency_share)} latency, "
            + f"{pct(self.rerank_memory_share)} memory"
        )


def fig1_pipeline(
    platform: str = "apple_m2",
    num_docs: int = 200,
    num_queries: int = 3,
    k: int = 5,
) -> Fig1Result:
    """Reproduce Figure 1: the reranker dominates the pipeline.

    The paper reports 8 ms / 50 MiB for retrieval against 5,754 ms /
    1,184 MiB for a vanilla top-5-of-20 rerank on a Mac Mini, i.e. the
    reranker contributes 96.3 % of latency and 67.6 % of memory.
    """
    corpus = SyntheticCorpus(num_docs=num_docs, num_topics=max(4, num_docs // 10))
    pipeline = RagPipeline(corpus, QWEN3_0_6B, platform, system="hf", k=k)
    result = pipeline.run(corpus.make_queries(num_queries))
    stages = result.stage_means()
    retrieval = stages["sparse"] + stages["dense"]
    rerank = stages["rerank"]
    # Memory shares mirror the paper's split: retrieval structures vs
    # reranker weights+tensors at their respective peaks.
    from ..apps.rag import RETRIEVAL_ACTIVATIONS_BYTES

    retrieval_mib = (
        pipeline.retriever.bm25.index_bytes()
        + pipeline.retriever.vector_index.memory_bytes()
        + RETRIEVAL_ACTIVATIONS_BYTES
    ) / (1024 * 1024)
    total_latency = retrieval + rerank
    return Fig1Result(
        platform=platform,
        retrieval_seconds=retrieval,
        retrieval_mib=retrieval_mib,
        rerank_seconds=rerank,
        rerank_peak_mib=result.peak_mib,
        rerank_latency_share=rerank / total_latency if total_latency else 0.0,
        rerank_memory_share=result.peak_mib / (result.peak_mib + retrieval_mib)
        if result.peak_mib
        else 0.0,
    )


# ----------------------------------------------------------------------
# Figure 2 — sequence-level sparsity
# ----------------------------------------------------------------------
@dataclass
class Fig2Result:
    """Score trajectories and γ statistics across layers."""

    model: str
    layers: list[int]
    trajectories: np.ndarray  # (num_candidates, num_layers)
    gamma: list[float]
    cluster_gamma_values: list[float]

    def render(self) -> str:
        lines = [f"Figure 2 — sequence-level sparsity ({self.model})"]
        lines.append(format_series("gamma", self.layers, self.gamma))
        lines.append(format_series("cluster_gamma", self.layers, self.cluster_gamma_values))
        return "\n".join(lines)


def fig2_sparsity(
    model_name: str = "bge-reranker-v2-minicpm",
    dataset: str = "wikipedia",
    num_candidates: int = 20,
    num_queries: int = 4,
) -> Fig2Result:
    """Reproduce Figure 2: γ rises with depth; cluster-γ stays ≈ 1."""
    model = get_model_config(model_name)
    spec = get_dataset(dataset)
    queries = spec.queries(num_queries, num_candidates=num_candidates)

    dynamics = shared_model(model).dynamics
    num_layers = model.num_layers

    gammas = np.zeros(num_layers)
    cgammas = np.zeros(num_layers)
    trajectories: np.ndarray | None = None
    for query in queries:
        rel = query.relevance()
        uids = query.uids()
        final = dynamics.final_scores(rel, uids)
        per_layer = np.stack(
            [dynamics.scores_at(layer, rel, uids) for layer in range(num_layers)]
        )
        if trajectories is None:
            trajectories = per_layer.T  # (candidates, layers)
        for layer in range(num_layers):
            scores = per_layer[layer]
            gammas[layer] += goodman_kruskal_gamma(scores, final)
            clustering = cluster_scores(scores)
            cgammas[layer] += cluster_gamma(scores, final, clustering.labels)
    gammas /= num_queries
    cgammas /= num_queries
    assert trajectories is not None
    return Fig2Result(
        model=model_name,
        layers=list(range(num_layers)),
        trajectories=trajectories,
        gamma=gammas.tolist(),
        cluster_gamma_values=cgammas.tolist(),
    )


# ----------------------------------------------------------------------
# Table 3 — latency/precision summary
# ----------------------------------------------------------------------
@dataclass
class Table3Row:
    """One (model, comparison, K) summary row."""

    model: str
    system: str
    baseline: str
    k: int
    reduction_min: float
    reduction_max: float
    reduction_mean: float
    precision_loss_mean: float
    precision_loss_max: float
    baseline_oom: bool = False


@dataclass
class Table3Result:
    rows: list[Table3Row] = field(default_factory=list)

    def find(self, model: str, baseline: str, k: int) -> Table3Row:
        for row in self.rows:
            if row.model == model and row.baseline == baseline and row.k == k:
                return row
        raise KeyError(f"no row for ({model}, {baseline}, {k})")

    def render(self) -> str:
        table_rows = []
        for row in self.rows:
            reduction = (
                "OOM"
                if row.baseline_oom
                else f"{pct(row.reduction_min)}–{pct(row.reduction_max)} ({pct(row.reduction_mean)})"
            )
            table_rows.append(
                (
                    row.model,
                    f"{row.system} vs {row.baseline}",
                    f"P@{row.k}",
                    reduction,
                    f"{row.precision_loss_mean:+.3f} / {row.precision_loss_max:+.3f}",
                )
            )
        return format_table(
            ("model", "comparison", "K", "latency reduction (mean)", "prec Δ mean/max"),
            table_rows,
            title="Table 3 — latency & precision summary",
        )


def table3(
    models: tuple[str, ...] = tuple(m.name for m in PAPER_MODELS),
    datasets: tuple[str, ...] = ALL_DATASETS,
    platforms: tuple[str, ...] = ("nvidia_5070", "apple_m2"),
    ks: tuple[int, ...] = (1, 5, 10),
    num_queries: int = 2,
    num_candidates: int = 20,
) -> Table3Result:
    """Reproduce Table 3: PRISM vs HF / HF-Offload, PRISM-Quant vs HF-Quant.

    For each (model, K), latency reductions are collected across
    (dataset × platform) cells; the row reports min–max (mean) reduction
    and the mean/max precision delta (positive = PRISM better).
    """
    result = Table3Result()
    for model_name in models:
        model = get_model_config(model_name)
        for k in ks:
            cells: dict[str, list[tuple[float, float]]] = {
                "hf": [],
                "hf_offload": [],
                "hf_quant": [],
            }
            oom: dict[str, bool] = {"hf": False, "hf_offload": False, "hf_quant": False}
            for dataset in datasets:
                queries = get_dataset(dataset).queries(num_queries, num_candidates)
                for platform in platforms:
                    prism = run_system("prism", model, platform, queries, k)
                    prism_quant = run_system("prism_quant", model, platform, queries, k)
                    for baseline_name, ours in (
                        ("hf", prism),
                        ("hf_offload", prism),
                        ("hf_quant", prism_quant),
                    ):
                        base = run_system(baseline_name, model, platform, queries, k)
                        if base.oom:
                            oom[baseline_name] = True
                            continue
                        reduction = 1.0 - ours.mean_latency / base.mean_latency
                        delta = ours.mean_precision - base.mean_precision
                        cells[baseline_name].append((reduction, delta))
            for baseline_name, pairs in cells.items():
                system = "prism_quant" if baseline_name == "hf_quant" else "prism"
                if not pairs:
                    result.rows.append(
                        Table3Row(
                            model=model_name,
                            system=system,
                            baseline=baseline_name,
                            k=k,
                            reduction_min=float("nan"),
                            reduction_max=float("nan"),
                            reduction_mean=float("nan"),
                            precision_loss_mean=float("nan"),
                            precision_loss_max=float("nan"),
                            baseline_oom=True,
                        )
                    )
                    continue
                reductions = np.array([p[0] for p in pairs])
                deltas = np.array([p[1] for p in pairs])
                result.rows.append(
                    Table3Row(
                        model=model_name,
                        system=system,
                        baseline=baseline_name,
                        k=k,
                        reduction_min=float(reductions.min()),
                        reduction_max=float(reductions.max()),
                        reduction_mean=float(reductions.mean()),
                        precision_loss_mean=float(deltas.mean()),
                        precision_loss_max=float(deltas.min()),
                        baseline_oom=oom[baseline_name],
                    )
                )
    return result


# ----------------------------------------------------------------------
# Figure 8 — Wikipedia detail
# ----------------------------------------------------------------------
@dataclass
class Fig8Cell:
    system: str
    model: str
    platform: str
    k: int
    latency: float
    precision: float
    oom: bool


@dataclass
class Fig8Result:
    cells: list[Fig8Cell] = field(default_factory=list)

    def find(self, system: str, model: str, platform: str, k: int) -> Fig8Cell:
        for cell in self.cells:
            if (
                cell.system == system
                and cell.model == model
                and cell.platform == platform
                and cell.k == k
            ):
                return cell
        raise KeyError(f"no cell ({system}, {model}, {platform}, K={k})")

    def render(self) -> str:
        rows = [
            (
                c.model,
                c.platform,
                f"P@{c.k}",
                c.system,
                "OOM" if c.oom else ms(c.latency),
                "-" if c.oom else f"{c.precision:.3f}",
            )
            for c in self.cells
        ]
        return format_table(
            ("model", "platform", "K", "system", "latency", "precision"),
            rows,
            title="Figure 8 — Wikipedia dataset detail",
        )


def fig8_wikipedia(
    models: tuple[str, ...] = tuple(m.name for m in PAPER_MODELS),
    platforms: tuple[str, ...] = ("nvidia_5070", "apple_m2"),
    ks: tuple[int, ...] = (1, 5, 10),
    num_queries: int = 3,
    num_candidates: int = 20,
) -> Fig8Result:
    """Reproduce Figure 8: seven systems on the Wikipedia dataset."""
    result = Fig8Result()
    queries = get_dataset("wikipedia").queries(num_queries, num_candidates)
    for model_name in models:
        model = get_model_config(model_name)
        for platform in platforms:
            for k in ks:
                for system in FIG8_SYSTEMS:
                    stats = _run_fig8_system(system, model, platform, queries, k)
                    result.cells.append(
                        Fig8Cell(
                            system=system,
                            model=model_name,
                            platform=platform,
                            k=k,
                            latency=stats.mean_latency,
                            precision=stats.mean_precision,
                            oom=stats.oom,
                        )
                    )
    return result


# ----------------------------------------------------------------------
# Figure 9 — memory footprint
# ----------------------------------------------------------------------
@dataclass
class Fig9Row:
    model: str
    system: str
    platform: str
    peak_mib: float
    avg_mib: float
    oom_on_edge: bool
    timeline: list[TimelinePoint] = field(default_factory=list)


@dataclass
class Fig9Result:
    rows: list[Fig9Row] = field(default_factory=list)

    def find(self, model: str, system: str) -> Fig9Row:
        for row in self.rows:
            if row.model == model and row.system == system:
                return row
        raise KeyError(f"no row ({model}, {system})")

    def peak_ratio(self, model: str, baseline: str) -> float:
        """baseline peak / PRISM peak (the paper's reduction factor)."""
        prism = self.find(model, "prism")
        base = self.find(model, baseline)
        return base.peak_mib / prism.peak_mib

    def render(self) -> str:
        rows = []
        for row in self.rows:
            note = " (A800)" if row.oom_on_edge else ""
            rows.append(
                (row.model, row.system + note, f"{row.peak_mib:.0f}", f"{row.avg_mib:.0f}")
            )
        return format_table(
            ("model", "system", "peak MiB", "avg MiB"),
            rows,
            title="Figure 9 — memory footprint (top-10 of 20, len 500)",
        )


def fig9_memory(
    models: tuple[str, ...] = tuple(m.name for m in PAPER_MODELS),
    platform: str = "nvidia_5070",
    num_queries: int = 1,
    num_candidates: int = 20,
    k: int = 10,
) -> Fig9Result:
    """Reproduce Figure 9: memory timelines, with the paper's A800
    fallback for configurations that OOM on the edge device."""
    result = Fig9Result()
    queries = get_dataset("wikipedia").queries(num_queries, num_candidates)
    for model_name in models:
        model = get_model_config(model_name)
        for system in ("hf", "hf_quant", "hf_offload", "prism"):
            stats = run_system(
                system, model, platform, queries, k, keep_timeline=True
            )
            oom_on_edge = stats.oom
            if oom_on_edge:
                stats = run_system(
                    system, model, "nvidia_a800", queries, k, keep_timeline=True
                )
            result.rows.append(
                Fig9Row(
                    model=model_name,
                    system=system,
                    platform=platform if not oom_on_edge else "nvidia_a800",
                    peak_mib=stats.peak_mib,
                    avg_mib=stats.avg_mib,
                    oom_on_edge=oom_on_edge,
                    timeline=stats.timeline,
                )
            )
    return result


# ----------------------------------------------------------------------
# Figure 10 — latency/precision trade-off
# ----------------------------------------------------------------------
@dataclass
class Fig10Point:
    threshold: float
    latency: float
    precision: dict[int, float]


@dataclass
class Fig10Result:
    model: str
    points: list[Fig10Point] = field(default_factory=list)

    def latencies(self) -> list[float]:
        return [p.latency for p in self.points]

    def precisions(self, k: int) -> list[float]:
        return [p.precision[k] for p in self.points]

    def render(self) -> str:
        rows = [
            (
                f"{p.threshold:.2f}",
                ms(p.latency),
                *(f"{p.precision[k]:.3f}" for k in sorted(p.precision)),
            )
            for p in self.points
        ]
        ks = sorted(self.points[0].precision) if self.points else []
        return format_table(
            ("threshold", "latency", *(f"P@{k}" for k in ks)),
            rows,
            title=f"Figure 10 — threshold sweep ({self.model})",
        )


def fig10_tradeoff(
    model_name: str = "qwen3-reranker-0.6b",
    platform: str = "nvidia_5070",
    num_thresholds: int = 5,
    ks: tuple[int, ...] = (1, 5, 10),
    num_queries: int = 3,
    num_candidates: int = 20,
    dataset: str = "wikipedia",
) -> Fig10Result:
    """Reproduce Figure 10: precision rises and latency grows with the
    dispersion threshold."""
    model = get_model_config(model_name)
    queries = get_dataset(dataset).queries(num_queries, num_candidates)
    lo, hi = model.threshold_range
    thresholds = np.linspace(lo, hi, num_thresholds)
    result = Fig10Result(model=model_name)
    for threshold in thresholds:
        precisions: dict[int, float] = {}
        latency = 0.0
        for k in ks:
            stats = run_system(
                "prism", model, platform, queries, k, threshold=float(threshold)
            )
            precisions[k] = stats.mean_precision
            if k == max(ks):
                latency = stats.mean_latency
        result.points.append(
            Fig10Point(threshold=float(threshold), latency=latency, precision=precisions)
        )
    return result


# ----------------------------------------------------------------------
# Figure 11 — RAG
# ----------------------------------------------------------------------
@dataclass
class Fig11Result:
    runs: dict[str, dict[str, RagRunResult]] = field(default_factory=dict)
    # runs[platform][system]

    def render(self) -> str:
        rows = []
        for platform, by_system in self.runs.items():
            for system, run in by_system.items():
                stages = run.stage_means()
                rows.append(
                    (
                        platform,
                        system,
                        ms(run.mean_latency),
                        ms(stages["rerank"]),
                        f"{run.accuracy:.3f}",
                        f"{run.peak_mib:.0f}",
                        f"{run.avg_mib:.0f}",
                    )
                )
        return format_table(
            ("platform", "system", "latency", "rerank", "accuracy", "peak MiB", "avg MiB"),
            rows,
            title="Figure 11 — RAG pipeline",
        )


def fig11_rag(
    num_docs: int = 200,
    num_queries: int = 6,
    systems: tuple[str, ...] = ("hf", "prism"),
) -> Fig11Result:
    """Reproduce Figure 11: the RAG assistant on both platforms.

    Per the paper, the Apple platform uses Qwen3-Reranker-0.6B and the
    NVIDIA platform uses Bge-Reranker-v2-MiniCPM.
    """
    corpus = SyntheticCorpus(num_docs=num_docs, num_topics=max(4, num_docs // 10))
    queries = corpus.make_queries(num_queries)
    result = Fig11Result()
    for platform, model in (("apple_m2", QWEN3_0_6B), ("nvidia_5070", BGE_MINICPM)):
        result.runs[platform] = {}
        for system in systems:
            pipeline = RagPipeline(corpus, model, platform, system=system)
            result.runs[platform][system] = pipeline.run(queries, keep_timeline=True)
    return result


# ----------------------------------------------------------------------
# Figures 12 & 13 — agent memory
# ----------------------------------------------------------------------
@dataclass
class Fig12Result:
    runs: dict[str, dict[str, AgentRunResult]] = field(default_factory=dict)
    # runs[workload][system]

    def render(self) -> str:
        rows = []
        for workload, by_system in self.runs.items():
            for system, run in by_system.items():
                stages = run.stage_means()
                rows.append(
                    (
                        workload,
                        system,
                        f"{run.mean_latency:.1f}s",
                        f"{stages['env']:.1f}s",
                        f"{stages['inference']:.1f}s",
                        f"{stages['rerank']:.1f}s",
                        f"{run.success_rate:.3f}",
                        f"{run.peak_mib:.0f}",
                    )
                )
        return format_table(
            ("workload", "system", "latency", "env", "inference", "rerank", "success", "peak MiB"),
            rows,
            title="Figures 12 & 13 — agent memory",
        )


def fig12_13_agent_memory(
    workloads: tuple[str, ...] = ("video", "community"),
    systems: tuple[str, ...] = ("disable", "hf", "prism"),
    platform: str = "nvidia_5070",
    model_name: str = "qwen3-reranker-0.6b",
) -> Fig12Result:
    """Reproduce Figures 12/13: task latency, success rate, footprint."""
    model = get_model_config(model_name)
    result = Fig12Result()
    for workload in workloads:
        result.runs[workload] = {}
        for system in systems:
            app = AgentMemoryApp(model, platform, system=system)
            result.runs[workload][system] = app.run_workload(workload, keep_timeline=True)
    return result


# ----------------------------------------------------------------------
# Figures 14 & 15 — long-context selection
# ----------------------------------------------------------------------
@dataclass
class Fig14Result:
    runs: dict[str, LongContextRunResult] = field(default_factory=dict)

    def render(self) -> str:
        rows = [
            (
                system,
                f"{run.mean_latency:.1f}s",
                f"{run.mean_rerank_seconds:.1f}s",
                f"{run.mean_inference_seconds:.1f}s",
                f"{run.accuracy:.3f}",
                f"{run.peak_mib:.0f}",
            )
            for system, run in self.runs.items()
        ]
        return format_table(
            ("system", "latency", "rerank", "inference", "accuracy", "peak MiB"),
            rows,
            title="Figures 14 & 15 — long-context selection",
        )


def fig14_15_long_context(
    num_tasks: int = 12,
    systems: tuple[str, ...] = ("baseline", "hf", "prism"),
    platform: str = "nvidia_5070",
    model_name: str = "qwen3-reranker-0.6b",
) -> Fig14Result:
    """Reproduce Figures 14/15: three systems on LongBench-style tasks."""
    model = get_model_config(model_name)
    tasks = generate_lcs_tasks(num_tasks)
    result = Fig14Result()
    for system in systems:
        app = LongContextApp(model, platform, system=system)
        result.runs[system] = app.run(tasks, keep_timeline=True)
    return result


# ----------------------------------------------------------------------
# Figure 16 — ablation
# ----------------------------------------------------------------------
#: Ablation steps in the paper's order (Figure 16).
ABLATION_STEPS = (
    "hf",
    "+pruning",
    "+chunked",
    "+streaming",
    "+embedding-cache",
)


@dataclass
class Fig16Row:
    step: str
    latency: float
    peak_mib: float
    io_stall_seconds: float


@dataclass
class Fig16Result:
    rows: list[Fig16Row] = field(default_factory=list)

    def find(self, step: str) -> Fig16Row:
        for row in self.rows:
            if row.step == step:
                return row
        raise KeyError(f"no ablation step {step!r}")

    def render(self) -> str:
        rows = [
            (row.step, ms(row.latency), f"{row.peak_mib:.0f}", ms(row.io_stall_seconds))
            for row in self.rows
        ]
        return format_table(
            ("configuration", "latency", "peak MiB", "I/O stall"),
            rows,
            title="Figure 16 — incremental ablation (60 cand × len 500)",
        )


def fig16_ablation(
    platform: str = "nvidia_5070",
    model_name: str = "qwen3-reranker-0.6b",
    num_candidates: int = 60,
    doc_length: int = 500,
    k: int = 10,
    threshold: float = 0.12,
) -> Fig16Result:
    """Reproduce Figure 16: apply the four techniques incrementally.

    Expected shape: pruning alone cuts latency but *inflates* peak
    memory (the monolithic batch); chunking reclaims the inflation;
    streaming removes the weight block at a small latency cost; the
    embedding cache removes the final big block.
    """
    model = get_model_config(model_name)
    spec = replace(
        get_dataset("wikipedia"), doc_length_mean=doc_length
    )
    queries = spec.queries(1, num_candidates=num_candidates)

    # The ablation runs at the paper's tuned (aggressive) operating
    # point so pruning's latency contribution is fully visible.
    configs: list[tuple[str, str, PrismConfig | None]] = [
        ("hf", "hf", None),
        ("+pruning", "prism", PrismConfig.ablation_pruning_only().with_threshold(threshold)),
        ("+chunked", "prism", PrismConfig.ablation_chunked().with_threshold(threshold)),
        ("+streaming", "prism", PrismConfig.ablation_streaming().with_threshold(threshold)),
        ("+embedding-cache", "prism", PrismConfig.full().with_threshold(threshold)),
    ]
    result = Fig16Result()
    for step, system, config in configs:
        stats = run_system(
            system, model, platform, queries, k, prism_config=config, keep_timeline=True
        )
        result.rows.append(
            Fig16Row(
                step=step,
                latency=stats.mean_latency,
                peak_mib=stats.peak_mib,
                io_stall_seconds=stats.io_stall_seconds,
            )
        )
    return result


# ----------------------------------------------------------------------
# Extension — overlap-window sensitivity (§3.2's premise boundary)
# ----------------------------------------------------------------------
@dataclass
class OverlapWindowPoint:
    ssd_bandwidth_gbps: float
    latency: float
    io_stall_seconds: float
    peak_mib: float


@dataclass
class OverlapWindowResult:
    """PRISM latency/stall as a function of storage bandwidth."""

    model: str
    platform: str
    hf_latency: float
    points: list[OverlapWindowPoint] = field(default_factory=list)

    def render(self) -> str:
        rows = [
            (
                f"{p.ssd_bandwidth_gbps:.1f} GB/s",
                ms(p.latency),
                ms(p.io_stall_seconds),
                f"{p.peak_mib:.0f}",
            )
            for p in self.points
        ]
        table = format_table(
            ("SSD bandwidth", "PRISM latency", "I/O stall", "peak MiB"),
            rows,
            title=f"Overlap-window sweep ({self.model}, {self.platform})",
        )
        return table + f"\nin-memory HF reference: {ms(self.hf_latency)}"


# ----------------------------------------------------------------------
# Extension — fleet serving (DESIGN.md §5)
# ----------------------------------------------------------------------
@dataclass
class FleetPoint:
    """One fleet configuration's serving outcome."""

    num_replicas: int
    routing: str
    max_batch: int
    throughput_rps: float
    speedup: float
    p50_latency: float
    p95_latency: float
    p99_latency: float
    mean_precision: float
    mean_utilisation: float
    max_queue_depth: int


@dataclass
class FleetResult:
    """Throughput/latency scaling of the fleet layer vs. replica count."""

    model: str
    platform: str
    num_requests: int
    k: int
    points: list[FleetPoint] = field(default_factory=list)

    def find(self, num_replicas: int, routing: str | None = None) -> FleetPoint:
        for point in self.points:
            if point.num_replicas == num_replicas and (
                routing is None or point.routing == routing
            ):
                return point
        raise KeyError(f"no fleet point ({num_replicas} replicas, {routing!r})")

    def render(self) -> str:
        rows = [
            (
                point.num_replicas,
                point.routing,
                point.max_batch,
                f"{point.throughput_rps:.2f}/s",
                f"{point.speedup:.2f}x",
                ms(point.p50_latency),
                ms(point.p95_latency),
                ms(point.p99_latency),
                f"{point.mean_precision:.3f}",
                pct(point.mean_utilisation),
                point.max_queue_depth,
            )
            for point in self.points
        ]
        return format_table(
            (
                "replicas",
                "routing",
                "batch",
                "throughput",
                "speedup",
                "p50",
                "p95",
                "p99",
                f"P@{self.k}",
                "mean util",
                "max queue",
            ),
            rows,
            title=f"Fleet serving scaling ({self.model}, {self.platform}, "
            f"{self.num_requests} requests)",
        )


def fleet_serving(
    model_name: str = "qwen3-reranker-0.6b",
    platform: str = "nvidia_5070",
    replica_counts: tuple[int, ...] = (1, 2, 4),
    routing: str = "least_loaded",
    max_batch: int = 4,
    max_wait_ms: float = 20.0,
    num_requests: int = 24,
    num_candidates: int = 20,
    k: int = 10,
    dataset: str = "wikipedia",
    arrival_interval_ms: float = 0.0,
    dispatch_overhead_ms: float = 2.0,
) -> FleetResult:
    """Fleet-layer scaling study: throughput vs. replica count.

    A burst (or open-loop stream, via ``arrival_interval_ms``) of
    requests is replayed through fleets of increasing size under the
    same batching and routing configuration.  Speedup is simulated
    throughput relative to the first (baseline) replica count; served
    results are deterministic, so precision stays identical across
    fleet sizes — scaling is free of quality drift by construction.
    """
    model_config = get_model_config(model_name)
    tokenizer = shared_tokenizer(model_config)
    queries = get_dataset(dataset).queries(num_requests, num_candidates)
    batches = build_batches(queries, tokenizer, model_config.max_seq_len)

    result = FleetResult(
        model=model_name, platform=platform, num_requests=num_requests, k=k
    )
    baseline_throughput: float | None = None
    for num_replicas in replica_counts:
        spec = TraceSpec(
            "fleet",
            model=model_name,
            platforms=(platform,) * num_replicas,
            fleet={
                "max_batch": max_batch,
                "max_wait_ms": max_wait_ms,
                "routing": routing,
                "dispatch_overhead_ms": dispatch_overhead_ms,
            },
        )
        server, _ = build_server(spec)
        responses = serve_all(
            server,
            [
                SelectionRequest(
                    batch=batch,
                    k=k,
                    request_id=index,
                    arrival=index * arrival_interval_ms * 1e-3,
                )
                for index, batch in enumerate(batches)
            ],
        )
        by_id = {response.request_id: response for response in responses}
        stats = server.fleet.stats()
        precision = float(
            np.mean(
                [
                    precision_at_k(by_id[i].result.top_indices, query.labels(), k)
                    for i, query in enumerate(queries)
                ]
            )
        )
        if baseline_throughput is None:
            baseline_throughput = stats.throughput_rps
        result.points.append(
            FleetPoint(
                num_replicas=num_replicas,
                routing=routing,
                max_batch=max_batch,
                throughput_rps=stats.throughput_rps,
                speedup=stats.throughput_rps / baseline_throughput,
                p50_latency=stats.p50_latency,
                p95_latency=stats.p95_latency,
                p99_latency=stats.p99_latency,
                mean_precision=precision,
                mean_utilisation=float(np.mean(list(stats.utilisation.values()))),
                max_queue_depth=stats.max_queue_depth,
            )
        )
    return result


# ----------------------------------------------------------------------
# Extension — concurrent serving on one device (DESIGN.md §6)
# ----------------------------------------------------------------------
@dataclass
class ConcurrentPoint:
    """One scheduling policy's outcome on the mixed workload."""

    policy: str
    interactive_p50: float
    interactive_p99: float
    batch_p50: float
    batch_p99: float
    mean_interactive_wait: float
    preempted_requests: int
    makespan: float
    throughput_rps: float
    #: Mean size of back-to-back same-layer step groups (DESIGN.md §7);
    #: 1.0 for run-to-completion schedules, ~N for a fused gang of N.
    fused_occupancy: float = 1.0
    #: Redundant SSD weight bytes the shared plane avoided reading
    #: (0 when the policy serves from per-request streamers).
    ssd_saved_bytes: int = 0


@dataclass
class ConcurrentServingResult:
    """FIFO vs round-robin vs priority lanes on one shared device.

    ``selections_identical`` certifies that scheduling moved only
    *completion times*: every request's top-K selection is identical
    across all compared policies (and, by the determinism of the score
    process, identical to solo execution — asserted in tests).
    """

    model: str
    platform: str
    num_interactive: int
    num_batch: int
    interactive_k: int
    batch_k: int
    max_concurrency: int
    points: list[ConcurrentPoint] = field(default_factory=list)
    selections_identical: bool = True

    def find(self, policy: str) -> ConcurrentPoint:
        for point in self.points:
            if point.policy == policy:
                return point
        raise KeyError(f"no concurrent-serving point for policy {policy!r}")

    def render(self) -> str:
        rows = [
            (
                point.policy,
                ms(point.interactive_p50),
                ms(point.interactive_p99),
                ms(point.batch_p50),
                ms(point.batch_p99),
                ms(point.mean_interactive_wait),
                point.preempted_requests,
                ms(point.makespan),
                f"{point.throughput_rps:.2f}/s",
                f"{point.fused_occupancy:.2f}",
                f"{point.ssd_saved_bytes / 2**20:.0f}MiB",
            )
            for point in self.points
        ]
        table = format_table(
            (
                "policy",
                "int p50",
                "int p99",
                "batch p50",
                "batch p99",
                "int wait",
                "preempted",
                "makespan",
                "throughput",
                "fused occ",
                "ssd saved",
            ),
            rows,
            title=(
                f"Concurrent serving on one device ({self.model}, {self.platform}, "
                f"{self.num_interactive} interactive + {self.num_batch} batch, "
                f"concurrency {self.max_concurrency})"
            ),
        )
        verdict = "yes" if self.selections_identical else "NO"
        return table + f"\nselections identical across policies: {verdict}"


def concurrent_serving(
    model_name: str = "qwen3-reranker-0.6b",
    platform: str = "nvidia_5070",
    policies: tuple[str, ...] = ("fifo", "round_robin", "priority", "fusion"),
    num_interactive: int = 8,
    num_batch: int = 4,
    interactive_candidates: int = 8,
    batch_candidates: int = 48,
    interactive_k: int = 3,
    batch_k: int = 10,
    interactive_interval_ms: float = 250.0,
    max_concurrency: int = 6,
    quantum_layers: int = 1,
    dataset: str = "wikipedia",
) -> ConcurrentServingResult:
    """Mixed interactive/batch traffic on one device, per policy.

    The batch lane submits ``num_batch`` heavy requests at t=0; the
    interactive lane trickles ``num_interactive`` light requests in at
    ``interactive_interval_ms`` spacing while the device is busy.  The
    same workload replays against each scheduling policy on a fresh
    service, so policies differ *only* in how layer steps interleave:
    priority lanes should collapse interactive tail latency while total
    throughput stays put (the work is identical, merely reordered).
    The ``fusion`` policy serves from the shared weight plane
    (DESIGN.md §7), so its point also reports how many redundant SSD
    bytes the plane saved and how full its fused groups ran.
    """
    model_config = get_model_config(model_name)
    tokenizer = shared_tokenizer(model_config)
    spec = get_dataset(dataset)
    batch_requests = build_batches(
        spec.queries(num_batch, batch_candidates), tokenizer, model_config.max_seq_len
    )
    interactive_requests = build_batches(
        spec.queries(num_interactive, interactive_candidates),
        tokenizer,
        model_config.max_seq_len,
    )

    wave: list[SelectionRequest] = [
        SelectionRequest(
            batch=batch, k=batch_k, request_id=index, priority=LANE_BATCH, arrival=0.0
        )
        for index, batch in enumerate(batch_requests)
    ]
    for index, batch in enumerate(interactive_requests):
        wave.append(
            SelectionRequest(
                batch=batch,
                k=interactive_k,
                request_id=num_batch + index,
                priority=LANE_INTERACTIVE,
                arrival=index * interactive_interval_ms * 1e-3,
            )
        )

    result = ConcurrentServingResult(
        model=model_name,
        platform=platform,
        num_interactive=num_interactive,
        num_batch=num_batch,
        interactive_k=interactive_k,
        batch_k=batch_k,
        max_concurrency=max_concurrency,
    )
    reference_selections: list[tuple] | None = None
    for policy in policies:
        server, _ = build_server(
            TraceSpec(
                "device",
                model=model_name,
                platforms=(platform,),
                device={
                    "policy": policy,
                    "quantum_layers": quantum_layers,
                    "max_concurrency": max_concurrency,
                    "shared_weights": policy == "fusion",
                },
            )
        )
        service = server.service
        responses = serve_all(server, wave)
        selections = [
            tuple(response.result.top_indices.tolist())
            for response in sorted(responses, key=lambda r: r.request_id)
        ]
        if reference_selections is None:
            reference_selections = selections
        elif selections != reference_selections:
            result.selections_identical = False

        stats = service.last_scheduler.stats()
        plane = service.engine.weight_plane
        result.points.append(
            ConcurrentPoint(
                policy=policy,
                interactive_p50=stats.latency_percentile(50, LANE_INTERACTIVE),
                interactive_p99=stats.latency_percentile(99, LANE_INTERACTIVE),
                batch_p50=stats.latency_percentile(50, LANE_BATCH),
                batch_p99=stats.latency_percentile(99, LANE_BATCH),
                mean_interactive_wait=stats.mean_queue_wait(LANE_INTERACTIVE),
                preempted_requests=sum(1 for o in stats.outcomes if o.preempted),
                makespan=stats.makespan,
                throughput_rps=stats.throughput_rps,
                fused_occupancy=service.last_scheduler.mean_fused_occupancy,
                ssd_saved_bytes=plane.stats.saved_bytes if plane is not None else 0,
            )
        )
    return result


# ----------------------------------------------------------------------
# Extension — shared weight plane + layer fusion (DESIGN.md §7)
# ----------------------------------------------------------------------
@dataclass
class SharedWeightsPoint:
    """One serving mode's outcome on the same-model burst."""

    mode: str
    policy: str
    shared: bool
    throughput_rps: float
    speedup: float
    p50_latency: float
    p99_latency: float
    makespan: float
    weight_bytes: int  # SSD layer-weight bytes read during the wave
    bytes_vs_solo: float  # weight_bytes / deepest solo pass
    saved_bytes: int  # redundant bytes the plane avoided
    fused_occupancy: float


@dataclass
class SharedWeightsResult:
    """Private streamers vs the shared weight plane under concurrency.

    ``solo_weight_bytes`` is the SSD weight traffic of the *deepest*
    request served alone — the floor a perfectly fused sweep can reach.
    ``selections_identical`` certifies the plane and the fusion policy
    moved only completion times and SSD traffic, never selections.
    """

    model: str
    platform: str
    num_requests: int
    num_candidates: int
    k: int
    solo_weight_bytes: int = 0
    points: list[SharedWeightsPoint] = field(default_factory=list)
    selections_identical: bool = True

    def find(self, mode: str) -> SharedWeightsPoint:
        for point in self.points:
            if point.mode == mode:
                return point
        raise KeyError(f"no shared-weights point for mode {mode!r}")

    def render(self) -> str:
        rows = [
            (
                point.mode,
                point.policy,
                "plane" if point.shared else "private",
                f"{point.throughput_rps:.2f}/s",
                f"{point.speedup:.2f}x",
                ms(point.p50_latency),
                ms(point.p99_latency),
                ms(point.makespan),
                f"{point.weight_bytes / 2**20:.0f}MiB",
                f"{point.bytes_vs_solo:.2f}x",
                f"{point.saved_bytes / 2**20:.0f}MiB",
                f"{point.fused_occupancy:.2f}",
            )
            for point in self.points
        ]
        table = format_table(
            (
                "mode",
                "policy",
                "weights",
                "throughput",
                "speedup",
                "p50",
                "p99",
                "makespan",
                "ssd read",
                "vs solo",
                "ssd saved",
                "fused occ",
            ),
            rows,
            title=(
                f"Shared weight plane ({self.model}, {self.platform}, "
                f"{self.num_requests} concurrent requests x {self.num_candidates} "
                f"candidates, solo sweep {self.solo_weight_bytes / 2**20:.0f}MiB)"
            ),
        )
        verdict = "yes" if self.selections_identical else "NO"
        return table + f"\nselections identical across modes: {verdict}"


def _layer_weight_bytes(service: SemanticSelectionService, mark: int) -> int:
    """SSD layer-weight bytes read since request-log position ``mark``."""
    log = service.device.ssd.request_log
    return sum(
        request.nbytes
        for request in log[mark:]
        if request.kind == "read" and "load/" in request.tag and "/layer" in request.tag
    )


def _solo_latency(model_name: str, platform: str, batch, k: int) -> float:
    """One request's service time alone on a fresh one-slot ``fifo`` device."""
    spec = TraceSpec("device", model=model_name, platforms=(platform,), device={"policy": "fifo"})
    server, _ = build_server(spec)
    probe = server.submit(SelectionRequest(batch=batch, k=k, sample=False)).result()
    assert probe.result is not None
    return probe.result.latency_seconds


def shared_weights_serving(
    model_name: str = "qwen3-reranker-0.6b",
    platform: str = "nvidia_5070",
    num_requests: int = 4,
    num_candidates: int = 6,
    k: int = 3,
    dataset: str = "quora",
    modes: tuple[tuple[str, str, bool], ...] = (
        ("fifo", "fifo", False),
        ("round_robin", "round_robin", False),
        ("rr+plane", "round_robin", True),
        ("fusion", "fusion", True),
    ),
) -> SharedWeightsResult:
    """N same-model requests: private streamers vs the shared plane.

    Under per-request streamers (PR 2 behaviour) N concurrent requests
    read each layer's weights from the SSD N times and the serialized
    I/O stream becomes the bottleneck the paper worked to hide.  The
    shared weight plane (DESIGN.md §7) fetches each layer once per
    fused sweep; the ``fusion`` policy gang-steps the group so the
    attach window never closes.  The workload is deliberately
    SSD-bound (small candidate pools, short documents) — the regime
    where concurrency *multiplies* streaming cost without the plane.

    Each mode replays the identical burst on a fresh service; the solo
    baseline serves the same requests one at a time to measure the
    per-pass SSD floor.
    """
    model_config = get_model_config(model_name)
    tokenizer = shared_tokenizer(model_config)
    queries = get_dataset(dataset).queries(num_requests, num_candidates)
    requests = [
        (batch, k) for batch in build_batches(queries, tokenizer, model_config.max_seq_len)
    ]

    result = SharedWeightsResult(
        model=model_name,
        platform=platform,
        num_requests=num_requests,
        num_candidates=num_candidates,
        k=k,
    )

    # Solo floor: the deepest request's one-at-a-time weight traffic.
    solo_spec = TraceSpec(
        "device", model=model_name, platforms=(platform,), device={"policy": "fifo"}
    )
    solo_server, _ = build_server(solo_spec)
    solo = solo_server.service
    solo_bytes = []
    reference_selections = []
    for index, (batch, k_req) in enumerate(requests):
        mark = len(solo.device.ssd.request_log)
        solo_response = solo_server.submit(
            SelectionRequest(batch=batch, k=k_req, request_id=index, sample=False)
        ).result()
        solo_bytes.append(_layer_weight_bytes(solo, mark))
        reference_selections.append(tuple(solo_response.result.top_indices.tolist()))
    result.solo_weight_bytes = max(solo_bytes)

    baseline_throughput: float | None = None
    for mode, policy, shared in modes:
        knobs = {"policy": policy, "max_concurrency": num_requests, "shared_weights": shared}
        server, _ = build_server(
            TraceSpec("device", model=model_name, platforms=(platform,), device=knobs)
        )
        service = server.service
        mark = len(service.device.ssd.request_log)
        responses = serve_all(
            server,
            [
                SelectionRequest(batch=batch, k=k_req, request_id=index)
                for index, (batch, k_req) in enumerate(requests)
            ],
        )
        selections = [
            tuple(response.result.top_indices.tolist())
            for response in sorted(responses, key=lambda r: r.request_id)
        ]
        if selections != reference_selections:
            result.selections_identical = False
        stats = service.last_scheduler.stats()
        if baseline_throughput is None:
            baseline_throughput = stats.throughput_rps
        weight_bytes = _layer_weight_bytes(service, mark)
        plane = service.engine.weight_plane
        result.points.append(
            SharedWeightsPoint(
                mode=mode,
                policy=policy,
                shared=shared,
                throughput_rps=stats.throughput_rps,
                speedup=stats.throughput_rps / baseline_throughput,
                p50_latency=stats.latency_percentile(50),
                p99_latency=stats.latency_percentile(99),
                makespan=stats.makespan,
                weight_bytes=weight_bytes,
                bytes_vs_solo=weight_bytes / result.solo_weight_bytes,
                saved_bytes=plane.stats.saved_bytes if plane is not None else 0,
                fused_occupancy=service.last_scheduler.mean_fused_occupancy,
            )
        )
    return result


# ----------------------------------------------------------------------
# Extension — deadline-aware serving (DESIGN.md §8)
# ----------------------------------------------------------------------
@dataclass
class DeadlinePoint:
    """One admission-ordering mode's outcome on the overloaded burst."""

    mode: str  # "fifo" | "edf"
    completed: int
    shed: int
    deadlines_met: int
    hit_rate: float  # deadlines met / submitted
    p99_latency: float  # over completed requests
    makespan: float


@dataclass
class DeadlineServingResult:
    """Deadline hit-rate under overload: EDF vs FIFO admission.

    A burst of same-size requests arrives at t=0 with *decreasing*
    slack in submission order (the last-submitted request has the
    tightest deadline).  FIFO admission serves in submission order, so
    tight-deadline requests queue behind loose ones and miss (or are
    shed at admission once they can no longer start in time); EDF
    admission (``SchedulerConfig(edf=True)``) starts the tightest
    deadline first.  Selections never change — deadline ordering moves
    *when* requests run and which ones are shed, never what a served
    request computes.
    """

    model: str
    platform: str
    num_requests: int
    k: int
    probe_latency: float  # one request's solo service time (the unit of slack)
    points: list[DeadlinePoint] = field(default_factory=list)

    def find(self, mode: str) -> DeadlinePoint:
        for point in self.points:
            if point.mode == mode:
                return point
        raise KeyError(f"no deadline-serving point for mode {mode!r}")

    def render(self) -> str:
        rows = [
            (
                point.mode,
                point.completed,
                point.shed,
                point.deadlines_met,
                pct(point.hit_rate),
                ms(point.p99_latency),
                ms(point.makespan),
            )
            for point in self.points
        ]
        return format_table(
            ("admission", "completed", "shed", "met", "hit rate", "p99", "makespan"),
            rows,
            title=(
                f"Deadline-aware serving under overload ({self.model}, "
                f"{self.platform}, {self.num_requests} requests, "
                f"unit slack {ms(self.probe_latency)})"
            ),
        )


def deadline_serving(
    model_name: str = "qwen3-reranker-0.6b",
    platform: str = "nvidia_5070",
    num_requests: int = 12,
    num_candidates: int = 12,
    k: int = 5,
    slack_factor: float = 2.0,
    dataset: str = "wikipedia",
) -> DeadlineServingResult:
    """EDF vs FIFO admission under deadline overload (DESIGN.md §8).

    Request ``i`` of ``N`` (submission order) carries deadline
    ``slack_factor * (N - i)`` service units (the unit is one probe
    request's solo latency), so slack *decreases* with
    submission order.  Under FIFO the i-th request completes after
    ``i + 1`` units and the tail can no longer start in time — those
    requests are shed at admission, never reaching the engine.  EDF
    reorders admission to tightest-first, which meets every deadline in
    this geometry.  The gap between the two hit rates is the value of
    carrying deadlines *in* the request object, where the scheduler can
    see them.
    """
    model_config = get_model_config(model_name)
    tokenizer = shared_tokenizer(model_config)
    queries = get_dataset(dataset).queries(num_requests, num_candidates)
    batches = build_batches(queries, tokenizer, model_config.max_seq_len)

    # Probe: one request's solo service time is the slack unit.
    probe_latency = _solo_latency(model_name, platform, batches[0], k)

    result = DeadlineServingResult(
        model=model_name,
        platform=platform,
        num_requests=num_requests,
        k=k,
        probe_latency=probe_latency,
    )
    for mode in ("fifo", "edf"):
        knobs = {"policy": "fifo", "edf": mode == "edf"}
        server, _ = build_server(
            TraceSpec("device", model=model_name, platforms=(platform,), device=knobs)
        )
        responses = serve_all(
            server,
            [
                SelectionRequest(
                    batch=batch,
                    k=k,
                    request_id=index,
                    arrival=0.0,
                    deadline=slack_factor * (num_requests - index) * probe_latency,
                    sample=False,
                )
                for index, batch in enumerate(batches)
            ],
        )
        completed = [r for r in responses if r.ok]
        met = [r for r in completed if r.deadline_met]
        stats = server.service.last_scheduler.stats()
        result.points.append(
            DeadlinePoint(
                mode=mode,
                completed=len(completed),
                shed=sum(1 for r in responses if r.status == "shed"),
                deadlines_met=len(met),
                hit_rate=len(met) / num_requests,
                p99_latency=stats.latency_percentile(99),
                makespan=stats.makespan,
            )
        )
    return result


# ----------------------------------------------------------------------
# Extension — resilience under faults (DESIGN.md §9)
# ----------------------------------------------------------------------
@dataclass
class ResiliencePoint:
    """One serving mode's outcome on the burst+crash scenario."""

    mode: str  # "fault_free" | "crash_failover" | "crash_autoscale"
    completed: int
    lost: int  # submitted − completed − failed: must always be 0
    failed: int  # dropped with reason "failed" (retries exhausted)
    failed_over: int  # completed requests that needed > 1 attempt
    max_attempts: int
    scale_ups: int
    peak_capacity: int
    throughput_rps: float
    recovery: float  # throughput / fault-free throughput
    p99_latency: float


@dataclass
class ResilienceResult:
    """Throughput under an injected replica crash: failover vs autoscaling.

    A near-saturating burst is replayed three times: fault-free (the
    reference), with a replica crash mid-burst and failover only (the
    fleet limps on at reduced capacity), and with the crash plus the
    queue-depth autoscaler (a replacement replica spawns once the
    queue backs up, paying its warm-up on the clock).  Every injected
    run must complete all requests — failover means *zero lost
    requests*, with the retries recorded as outcome provenance
    (``attempts``/``failed_over_from``).
    """

    model: str
    platform: str
    num_replicas: int
    num_requests: int
    k: int
    crash_at: float  # fleet-time instant replica 0 dies
    arrival_interval: float  # open-loop spacing (fleet saturation)
    points: list[ResiliencePoint] = field(default_factory=list)

    def find(self, mode: str) -> ResiliencePoint:
        for point in self.points:
            if point.mode == mode:
                return point
        raise KeyError(f"no resilience point for mode {mode!r}")

    def render(self) -> str:
        rows = [
            (
                point.mode,
                point.completed,
                point.lost,
                point.failed,
                point.failed_over,
                point.max_attempts,
                point.scale_ups,
                point.peak_capacity,
                f"{point.throughput_rps:.2f}/s",
                pct(point.recovery),
                ms(point.p99_latency),
            )
            for point in self.points
        ]
        return format_table(
            (
                "mode",
                "done",
                "lost",
                "failed",
                "failed over",
                "max att",
                "scale ups",
                "peak cap",
                "throughput",
                "recovery",
                "p99",
            ),
            rows,
            title=(
                f"Resilience under replica crash ({self.model}, {self.platform}, "
                f"{self.num_replicas} replicas, {self.num_requests} requests "
                f"every {ms(self.arrival_interval)}, crash at {ms(self.crash_at)})"
            ),
        )


def resilience_serving(
    model_name: str = "qwen3-reranker-0.6b",
    platform: str = "nvidia_5070",
    num_replicas: int = 2,
    num_requests: int = 24,
    num_candidates: int = 12,
    k: int = 5,
    crash_fraction: float = 0.3,
    dataset: str = "wikipedia",
) -> ResilienceResult:
    """Burst + replica-crash study (DESIGN.md §9).

    Requests arrive open-loop at the fleet's saturation rate (one
    probe-request service time divided by the replica count), so the
    healthy fleet keeps the queue near empty and the autoscaler has no
    reason to act *before* the crash — its scale-up is crash-driven,
    not burst-driven.  The crash instant is placed a fixed fraction
    into the fault-free makespan, so the same :class:`FaultPlan`
    stresses every mode at a comparable point of the stream.
    ``crash_failover`` uses a cooldown longer than the run (the
    replica never returns — the worst case); ``crash_autoscale`` adds
    the queue-depth controller, which spawns a replacement once the
    halved fleet lets the queue back up.  Selections are
    byte-identical across all three modes for every completed request
    — faults move *where and when* work runs, never what it computes.
    """
    model_config = get_model_config(model_name)
    tokenizer = shared_tokenizer(model_config)
    queries = get_dataset(dataset).queries(num_requests, num_candidates)
    batches = build_batches(queries, tokenizer, model_config.max_seq_len)

    # Probe: one request's solo service time sets the saturation rate.
    arrival_interval = _solo_latency(model_name, platform, batches[0], k) / num_replicas

    def run(mode: str, crash_at: float | None) -> tuple[ResiliencePoint, float]:
        faults = ()
        autoscaler = None
        if crash_at is not None:
            faults = ({"kind": FAULT_REPLICA_CRASH, "at": crash_at, "replica": 0},)
            if mode == "crash_autoscale":
                # Threshold 3 per routable replica: the saturated but
                # healthy fleet runs ~2 in-system requests per replica
                # (one batch in service, arrivals trickling in), so
                # only the post-crash pile-up trips the controller.
                autoscaler = {
                    "min_replicas": 1,
                    "max_replicas": num_replicas + 1,
                    "scale_up_queue_depth": 3,
                    "warmup_s": 0.05,
                    "action_cooldown_s": 0.1,
                }
        spec = TraceSpec(
            "fleet",
            model=model_name,
            platforms=(platform,) * num_replicas,
            fleet={"max_batch": 2, "max_wait_ms": 0.0},
            # The crashed replica never restarts inside the run: the
            # cooldown outlives any plausible makespan.
            resilience={"max_retries": 2, "cooldown_s": 1e6},
            autoscaler=autoscaler,
            faults=faults,
        )
        fleet = build_server(spec)[0].fleet
        for index, batch in enumerate(batches):
            fleet.submit_request(
                batch, k, at=index * arrival_interval, client_id=index
            )
        outcomes = fleet.drain()
        stats = fleet.stats()
        failed = stats.failed_requests
        lost = num_requests - len(outcomes) - failed
        point = ResiliencePoint(
            mode=mode,
            completed=len(outcomes),
            lost=lost,
            failed=failed,
            failed_over=stats.failed_over_requests,
            max_attempts=max((o.attempts for o in outcomes), default=0),
            scale_ups=sum(
                1 for event in stats.scaling_events if event.action == "scale_up"
            ),
            peak_capacity=stats.peak_capacity,
            throughput_rps=stats.throughput_rps,
            recovery=1.0,  # filled in against the fault-free reference
            p99_latency=stats.p99_latency,
        )
        if crash_at is not None:
            # The controller must be reactive, never prescient: any
            # scale-up belongs strictly after the crash.
            assert all(
                event.at >= crash_at
                for event in stats.scaling_events
                if event.action == "scale_up"
            ), "autoscaler acted before the crash — the load is not balanced"
        return point, stats.makespan

    reference, makespan = run("fault_free", None)
    crash_at = crash_fraction * makespan
    result = ResilienceResult(
        model=model_name,
        platform=platform,
        num_replicas=num_replicas,
        num_requests=num_requests,
        k=k,
        crash_at=crash_at,
        arrival_interval=arrival_interval,
    )
    result.points.append(reference)
    for mode in ("crash_failover", "crash_autoscale"):
        point, _ = run(mode, crash_at)
        point.recovery = point.throughput_rps / reference.throughput_rps
        result.points.append(point)
    return result


def overlap_window_sweep(
    model_name: str = "qwen3-reranker-0.6b",
    base_platform: str = "nvidia_5070",
    bandwidths_gbps: tuple[float, ...] = (0.5, 1.0, 2.0, 3.5, 7.0),
    num_queries: int = 3,
    num_candidates: int = 20,
) -> OverlapWindowResult:
    """Where does weight streaming stop being free?

    The §3.2 overlap window holds while one layer's compute covers the
    next layer's load.  Sweeping SSD bandwidth moves the load time
    through that boundary: above it PRISM's latency is flat (stalls
    ≈0); below it stalls grow roughly linearly in 1/bandwidth.  This
    quantifies the paper's hardware assumption (PCIe-4-class storage).
    """
    from ..device.platforms import DeviceProfile, get_profile, register_profile
    from ..device.ssd import SSDModel

    model = get_model_config(model_name)
    base = get_profile(base_platform)
    queries = get_dataset("wikipedia").queries(num_queries, num_candidates)
    hf = run_system("hf", model, base_platform, queries, 10)

    result = OverlapWindowResult(
        model=model_name, platform=base_platform, hf_latency=hf.mean_latency
    )
    for bandwidth in bandwidths_gbps:
        name = f"{base_platform}_ssd_{int(bandwidth * 10):04d}"
        register_profile(
            DeviceProfile(
                name=name,
                compute=base.compute,
                ssd=SSDModel(
                    read_bandwidth=bandwidth * 1e9, write_bandwidth=0.8 * bandwidth * 1e9
                ),
                memory_budget_bytes=base.memory_budget_bytes,
            )
        )
        stats = run_system("prism", model, name, queries, 10)
        result.points.append(
            OverlapWindowPoint(
                ssd_bandwidth_gbps=bandwidth,
                latency=stats.mean_latency,
                io_stall_seconds=stats.io_stall_seconds / num_queries,
                peak_mib=stats.peak_mib,
            )
        )
    return result


# ----------------------------------------------------------------------
# Extension — data-plane caching (DESIGN.md §12)
# ----------------------------------------------------------------------
@dataclass
class DataPlanePoint:
    """One fleet mode (cache off / cache on) over the Zipf stream."""

    mode: str
    throughput_rps: float
    p50_latency: float
    p95_latency: float
    memo_hits: int
    coalesced: int
    overlap_hits: int
    misses: int
    hit_rate: float | None
    bytes_saved: int
    seconds_saved: float


@dataclass
class DataPlaneResult:
    """Cache-on vs cache-off serving of a Zipf-skewed request stream."""

    model: str
    platform: str
    num_replicas: int
    num_requests: int
    unique_queries: int
    k: int
    partial_overlap_rate: float
    identical_selections: bool = False
    speedup_cached: float = 0.0
    memo_entries: int = 0
    row_entries: int = 0
    evictions: int = 0
    invalidations: int = 0
    redispatched: int = 0
    epoch: int = 0
    points: list[DataPlanePoint] = field(default_factory=list)

    def find(self, mode: str) -> DataPlanePoint:
        for point in self.points:
            if point.mode == mode:
                return point
        raise KeyError(f"no data-plane point for mode {mode!r}")

    def render(self) -> str:
        rows = [
            (
                point.mode,
                f"{point.throughput_rps:.2f}/s",
                ms(point.p50_latency),
                ms(point.p95_latency),
                point.memo_hits,
                point.coalesced,
                point.overlap_hits,
                point.misses,
                pct(point.hit_rate),
                f"{point.bytes_saved / 2**20:.0f} MiB",
                ms(point.seconds_saved),
            )
            for point in self.points
        ]
        table = format_table(
            (
                "mode",
                "throughput",
                "p50",
                "p95",
                "memo hits",
                "coalesced",
                "overlap",
                "misses",
                "hit rate",
                "bytes saved",
                "vtime saved",
            ),
            rows,
            title=(
                f"Data-plane caching ({self.model}, {self.platform}, "
                f"{self.num_replicas} replicas, {self.num_requests} requests "
                f"over {self.unique_queries} unique queries)"
            ),
        )
        identical = "yes" if self.identical_selections else "NO"
        return table + (
            f"\nspeedup (cached vs uncached): {self.speedup_cached:.2f}x; "
            f"selections byte-identical: {identical}"
            f"\nplane: {self.memo_entries} memo entries, "
            f"{self.row_entries} row entries, "
            f"{self.evictions} evictions, "
            f"{self.invalidations} invalidations, "
            f"{self.redispatched} redispatched, epoch {self.epoch}"
        )


def data_plane_serving(
    model_name: str = "qwen3-reranker-0.6b",
    platform: str = "nvidia_5070",
    num_replicas: int = 2,
    unique_queries: int = 8,
    num_requests: int = 48,
    num_candidates: int = 20,
    k: int = 10,
    zipf_s: float = 1.1,
    partial_overlap_rate: float = 0.25,
    arrival_interval_ms: float = 5.0,
    max_batch: int = 4,
    seed: int = 0,
    dataset: str = "wikipedia",
) -> DataPlaneResult:
    """Fleet-wide semantic caching study (DESIGN.md §12).

    A Zipf-skewed stream of repeated (and partially-overlapping)
    queries is served twice through otherwise-identical fleets — data
    plane off, then on — and the study reports the cache's throughput
    win plus its hit taxonomy.  Selections are asserted byte-identical
    between the two runs: memoization, coalescing and overlap replay
    are exact by construction, so the speedup is free of quality drift.
    """
    from ..data.workloads import zipf_request_stream

    model_config = get_model_config(model_name)
    tokenizer = shared_tokenizer(model_config)
    rng = np.random.default_rng(seed)
    base = get_dataset(dataset).queries(unique_queries, num_candidates)
    stream = zipf_request_stream(
        rng,
        base,
        num_requests,
        zipf_s=zipf_s,
        partial_overlap_rate=partial_overlap_rate,
    )
    batches = build_batches(stream, tokenizer, model_config.max_seq_len)

    def run(cache_on: bool):
        spec = TraceSpec(
            "fleet",
            model=model_name,
            platforms=(platform,) * num_replicas,
            fleet={"max_batch": max_batch, "data_plane": cache_on},
        )
        fleet = build_server(spec)[0].fleet
        for index, batch in enumerate(batches):
            fleet.submit_request(batch, k, at=index * arrival_interval_ms * 1e-3)
        outcomes = sorted(fleet.drain(), key=lambda o: o.request_id)
        return fleet.stats(), [
            (o.result.top_indices.tobytes(), o.result.top_scores.tobytes())
            for o in outcomes
        ]

    result = DataPlaneResult(
        model=model_name,
        platform=platform,
        num_replicas=num_replicas,
        num_requests=num_requests,
        unique_queries=unique_queries,
        k=k,
        partial_overlap_rate=partial_overlap_rate,
    )
    off_stats, off_selections = run(False)
    on_stats, on_selections = run(True)
    result.identical_selections = off_selections == on_selections
    result.speedup_cached = (
        on_stats.throughput_rps / off_stats.throughput_rps
        if off_stats.throughput_rps > 0
        else 0.0
    )
    plane_stats = on_stats.data_plane
    if plane_stats is not None:
        result.memo_entries = plane_stats.memo_entries
        result.row_entries = plane_stats.row_entries
        result.evictions = plane_stats.evictions
        result.invalidations = plane_stats.invalidations
        result.redispatched = plane_stats.redispatched
        result.epoch = plane_stats.epoch
    for mode, stats in (("cache_off", off_stats), ("cache_on", on_stats)):
        plane = stats.data_plane
        result.points.append(
            DataPlanePoint(
                mode=mode,
                throughput_rps=stats.throughput_rps,
                p50_latency=stats.p50_latency,
                p95_latency=stats.p95_latency,
                memo_hits=plane.memo_hits if plane is not None else 0,
                coalesced=plane.coalesced if plane is not None else 0,
                overlap_hits=plane.overlap_hits if plane is not None else 0,
                misses=plane.misses if plane is not None else 0,
                hit_rate=plane.hit_rate if plane is not None else None,
                bytes_saved=plane.bytes_saved if plane is not None else 0,
                seconds_saved=plane.seconds_saved if plane is not None else 0.0,
            )
        )
    return result


# ----------------------------------------------------------------------
# Extension — multi-tenant workload plane (DESIGN.md §13)
# ----------------------------------------------------------------------
@dataclass
class TenantClassPoint:
    """One SLO class's rollup over the tenant population."""

    slo: str
    tenants: int
    submitted: int
    completed: int
    shed: int
    #: Median of per-tenant p50/p99 (None when no tenant completed).
    p50_latency: float | None
    p99_latency: float | None
    max_shed_rate: float
    shed_bound: float
    max_token_debt: float

    @property
    def within_bound(self) -> bool:
        return self.max_shed_rate <= self.shed_bound


@dataclass
class MultiTenantResult:
    """Tenant-aware fair admission under open-loop overload.

    ``starved_tenants`` / ``bound_violations`` are the starvation-
    freedom and SLO contracts ``benchmarks/test_multitenant.py`` pins
    and ``perf_gate.py`` enforces in CI: both must be zero at any
    overload.  ``min_weight_completed`` witnesses that even the
    lowest-weight arriving tenant completed requests.
    """

    model: str
    platform: str
    num_replicas: int
    num_tenants: int
    arriving_tenants: int
    duration_s: float
    process: str
    overload: float
    capacity_rps: float
    offered_rps: float
    num_requests: int = 0
    completed: int = 0
    shed: int = 0
    starved_tenants: int = 0
    bound_violations: int = 0
    min_weight_tenant: str = ""
    min_weight_completed: int = 0
    points: list[TenantClassPoint] = field(default_factory=list)

    def find(self, slo: str) -> TenantClassPoint:
        for point in self.points:
            if point.slo == slo:
                return point
        raise KeyError(f"no class point for SLO {slo!r}")

    def render(self) -> str:
        rows = [
            (
                point.slo,
                point.tenants,
                point.submitted,
                point.completed,
                point.shed,
                ms(point.p50_latency),
                ms(point.p99_latency),
                pct(point.max_shed_rate),
                pct(point.shed_bound),
                f"{point.max_token_debt:.1f}",
                "yes" if point.within_bound else "VIOLATED",
            )
            for point in self.points
        ]
        table = format_table(
            (
                "class",
                "tenants",
                "submitted",
                "completed",
                "shed",
                "p50",
                "p99",
                "max shed",
                "bound",
                "max debt",
                "within",
            ),
            rows,
            title=(
                f"Multi-tenant fair admission ({self.model}, {self.platform}, "
                f"{self.num_replicas} replicas, {self.num_tenants} tenants, "
                f"{self.overload:.0f}x overload, {self.process})"
            ),
        )
        return table + (
            f"\noffered {self.offered_rps:.1f} rps vs capacity "
            f"{self.capacity_rps:.1f} rps; {self.num_requests} arrivals, "
            f"{self.completed} completed, {self.shed} shed"
            f"\nstarved tenants: {self.starved_tenants}; "
            f"shed-bound violations: {self.bound_violations}; "
            f"lowest-weight tenant {self.min_weight_tenant or '-'} completed "
            f"{self.min_weight_completed}"
        )


def multitenant_serving(
    model_name: str = "qwen3-reranker-0.6b",
    platform: str = "nvidia_5070",
    num_replicas: int = 2,
    num_tenants: int = 1000,
    duration_s: float = 15.0,
    overload: float = 10.0,
    process: str = "poisson",
    max_batch: int = 8,
    max_wait_ms: float = 5.0,
    num_candidates: int = 8,
    probe_requests: int = 16,
    seed: int = 0,
) -> MultiTenantResult:
    """Fair admission under trace-driven open-loop overload (DESIGN.md §13).

    A closed burst first calibrates the fleet's capacity; the traffic
    generator then offers ``overload``× that rate across
    ``num_tenants`` Zipf-popular tenants, and the same fleet — with
    tenant-aware WFQ + token-bucket admission attached — serves the
    trace.  The study reports the per-class shed/latency rollup and
    certifies the two §13 contracts: no tenant starves, and no
    tenant's shed rate exceeds its SLO class's bound.
    """
    from ..core.tenancy import selection_requests_from_trace, tenancy_from_trace
    from ..data.traffic import TrafficConfig, generate_traffic

    model_config = get_model_config(model_name)
    tokenizer = shared_tokenizer(model_config)
    spec = TraceSpec(
        "fleet",
        model=model_name,
        platforms=(platform,) * num_replicas,
        fleet={"max_batch": max_batch, "max_wait_ms": max_wait_ms},
    )

    # 1. Calibrate: a closed back-to-back burst measures capacity.
    probe = build_server(spec)[0].fleet
    for batch in build_batches(
        get_dataset("wikipedia").queries(probe_requests, num_candidates),
        tokenizer,
        model_config.max_seq_len,
    ):
        probe.submit_request(batch, 1)
    probe.drain()
    capacity_rps = probe.stats().throughput_rps

    # 2. Offer overload x capacity across the tenant population.
    config = TrafficConfig(
        num_tenants=num_tenants,
        duration_s=duration_s,
        rate_rps=overload * capacity_rps,
        process=process,
        seed=seed,
        max_candidates=num_candidates,
    )
    trace = generate_traffic(config)
    server, _ = build_server(spec, tenancy=tenancy_from_trace(trace))
    serve_all(
        server, selection_requests_from_trace(trace, tokenizer, model_config.max_seq_len)
    )
    stats = server.fleet.stats()

    result = MultiTenantResult(
        model=model_name,
        platform=platform,
        num_replicas=num_replicas,
        num_tenants=num_tenants,
        arriving_tenants=len(trace.arriving_tenants()),
        duration_s=duration_s,
        process=process,
        overload=overload,
        capacity_rps=capacity_rps,
        offered_rps=config.rate_rps,
        num_requests=trace.num_requests,
    )
    arrived = [t for t in stats.tenants.values() if t.submitted > 0]
    result.completed = sum(t.completed for t in arrived)
    result.shed = sum(t.shed for t in arrived)
    result.starved_tenants = len(stats.starved_tenants)
    result.bound_violations = len(stats.shed_bound_violations)
    # The starvation-freedom witness: the lowest-weight arriving tenant
    # (ties broken by tenant id) must still have completed requests.
    profiles = trace.tenants
    witnesses = sorted(
        arrived, key=lambda t: (profiles[t.tenant].weight, t.tenant)
    )
    if witnesses:
        result.min_weight_tenant = witnesses[0].tenant or ""
        result.min_weight_completed = witnesses[0].completed
    for slo, rows in sorted(stats.tenants_by_class().items()):
        active = [t for t in rows if t.submitted > 0]
        if not active:
            continue
        p50s = [t.p50_latency for t in active if t.p50_latency is not None]
        p99s = [t.p99_latency for t in active if t.p99_latency is not None]
        result.points.append(
            TenantClassPoint(
                slo=slo,
                tenants=len(active),
                submitted=sum(t.submitted for t in active),
                completed=sum(t.completed for t in active),
                shed=sum(t.shed for t in active),
                p50_latency=float(np.median(p50s)) if p50s else None,
                p99_latency=float(np.median(p99s)) if p99s else None,
                max_shed_rate=max(t.shed_rate for t in active),
                shed_bound=active[0].shed_bound,
                max_token_debt=max(t.token_debt for t in active),
            )
        )
    return result
