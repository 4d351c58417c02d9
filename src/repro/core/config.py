"""PRISM engine configuration.

Each boolean maps to one of the four techniques, so the Figure 16
ablation is expressed as a sequence of configs, and the threshold knob
exposes the precision-latency spectrum of Figure 10 (§4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..device.memory import MiB


@dataclass(frozen=True)
class PrismConfig:
    """Feature flags and tunables for :class:`~repro.core.engine.PrismEngine`."""

    # --- progressive cluster pruning (§4.1) ---
    pruning_enabled: bool = True
    #: CV trigger: clustering/pruning only fires once score dispersion
    #: exceeds this.  Lower = more aggressive (faster, riskier); higher
    #: = conservative.  Figure 10 sweeps this.  The default sits at the
    #: aggressive end — the statistical-distinctness guard in
    #: :mod:`repro.core.clustering` keeps routing precision-safe there.
    dispersion_threshold: float = 0.22
    #: Do not evaluate the trigger before this many layers have run
    #: (provisional scores straight out of the embedding carry no signal).
    min_layers_before_pruning: int = 2
    #: §7 "exact rank order" mode: only drop hopeless candidates; keep
    #: winners computing so the returned top-K carries exact final scores.
    exact_rank_mode: bool = False
    max_clusters: int = 6
    #: CPU-side costs charged per §4.1 (~1 ms K-Means, negligible CV check).
    clustering_latency: float = 1.0e-3
    cv_check_latency: float = 5.0e-5

    # --- chunked execution (§4.3) ---
    chunked_execution: bool = True
    #: Peak bytes allowed for one chunk's transient intermediate tensors.
    chunk_memory_budget: int = 160 * MiB
    #: Lower bound on a chunk's per-layer compute window, so chunks stay
    #: large enough to saturate the device (§4.3).
    min_chunk_compute_window: float = 2.0e-3
    #: Hidden-state offloading: "off", "on", or "auto" (enable only when
    #: the aggregate hidden slab exceeds ``hidden_memory_budget``).  The
    #: ring moves chunk slabs, so "on" requires ``chunked_execution``
    #: and "auto" resolves to off without it.
    hidden_offload: str = "auto"
    hidden_memory_budget: int = 256 * MiB

    # --- overlapped layer streaming (§4.2) ---
    layer_streaming: bool = True
    #: Share one refcounted weight plane across concurrent passes
    #: (DESIGN.md §7): the first in-flight request to need a layer
    #: triggers its SSD read, the rest attach for free.  Requires
    #: ``layer_streaming``: the config rejects it without.  Off by
    #: default — solo serving gains nothing and the plane's residency
    #: window grows with inter-request skew.
    shared_weight_plane: bool = False

    # --- embedding table caching (§4.4) ---
    embedding_cache: bool = True
    #: Cache capacity as a fraction of the vocabulary (paper: 10 %).
    embedding_cache_fraction: float = 0.10

    # --- execution mode ---
    quantized: bool = False  # W4A16 weights (PRISM Quant)
    numerics: bool = True  # run the reduced-width numpy tensors

    def __post_init__(self) -> None:
        if not self.dispersion_threshold >= 0:  # NaN too
            raise ValueError("dispersion_threshold must be non-negative")
        if self.shared_weight_plane and not self.layer_streaming:
            raise ValueError("shared_weight_plane requires layer_streaming")
        if self.min_layers_before_pruning < 0:
            raise ValueError("min_layers_before_pruning must be non-negative")
        if self.hidden_offload not in ("off", "on", "auto"):
            raise ValueError(f"bad hidden_offload {self.hidden_offload!r}")
        if self.hidden_offload == "on" and not self.chunked_execution:
            raise ValueError('hidden_offload="on" requires chunked_execution')
        if not 0 < self.embedding_cache_fraction <= 1:
            raise ValueError("embedding_cache_fraction must lie in (0, 1]")
        if self.chunk_memory_budget <= 0 or self.hidden_memory_budget <= 0:
            raise ValueError("memory budgets must be positive")
        if self.max_clusters < 2:
            raise ValueError("max_clusters must be at least 2")

    # ------------------------------------------------------------------
    # convenience constructors used by the evaluation
    # ------------------------------------------------------------------
    def with_threshold(self, threshold: float) -> "PrismConfig":
        return replace(self, dispersion_threshold=threshold)

    @classmethod
    def full(cls, **overrides) -> "PrismConfig":
        """All four techniques on (the system evaluated as "PRISM")."""
        return cls(**overrides)

    @classmethod
    def quant(cls, **overrides) -> "PrismConfig":
        """PRISM Quant: all techniques over W4A16 weights."""
        return cls(quantized=True, **overrides)

    @classmethod
    def ablation_pruning_only(cls, **overrides) -> "PrismConfig":
        """Figure 16 step 1: + progressive cluster pruning."""
        return cls(
            chunked_execution=False,
            layer_streaming=False,
            embedding_cache=False,
            **overrides,
        )

    @classmethod
    def ablation_chunked(cls, **overrides) -> "PrismConfig":
        """Figure 16 step 2: + chunked execution."""
        return cls(layer_streaming=False, embedding_cache=False, **overrides)

    @classmethod
    def ablation_streaming(cls, **overrides) -> "PrismConfig":
        """Figure 16 step 3: + overlapped layer streaming (dual buffer)."""
        return cls(embedding_cache=False, **overrides)
