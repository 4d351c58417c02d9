"""Reference implementations of the simulator's hot paths.

These are the straightforward versions the production modules were
rewritten from: ``repro.core.clustering``, ``repro.core.pruning``'s CV
trigger, ``repro.model.semantics``' noise draw (per layer, and the
per-pass table built from it row by row), the two LRU row caches
(``EmbeddingCache`` and ``SharedEmbeddingCache``), the memory tracker
(``repro.device.memory.MemoryTracker``), the engines' chunk charges (one
alloc, kernel and free per chunk), PRISM's decision loop as its pass ran
it inline (``select``, against ``repro.core.pruning.plan_selection``) and
request packing
(``Vocabulary.sample`` as one search over the whole CDF,
``Tokenizer.build_pair``/``batch_pairs`` and ``build_batch``) and the
seeded input generators (``make_query``, ``zipf_request_stream``,
``generate_traffic``, ``RelevanceProfile.draw_pool`` and
``SyntheticCorpus``, drawing through ``Generator.choice(p=...)`` and
``np.clip``).  The production code must match them bit for bit; the property tests in
``tests/test_fast_path_equivalence.py`` and the end-to-end guards there
compare the two.  Keep them simple and unchanged: they are the oracle,
not a second code path.

The float64 transformer layer and the per-crossing function that runs it
(:class:`TransformerLayer`, :func:`forward_layer`) are the oracle for
the model's reduced-precision forward kernel (DESIGN.md §11).  The
kernel matches them to float32 tolerance on hidden states and bit for
bit on everything observable (``tests/test_gang_kernels.py``).
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass, replace
from types import MethodType
from unittest import mock

import numpy as np

from repro.core import ProgressiveClusterPruner, PruneEvent
from repro.core.clustering import MIN_SEPARATION, Clustering
from repro.core.embedding_cache import CacheLookup
from repro.data import traffic
from repro.data.workloads import CandidateSpec, RerankQuery
from repro.device.clock import VirtualClock
from repro.device.memory import (
    CATEGORY_EMBEDDING,
    CATEGORY_INTERMEDIATE,
    CATEGORY_OTHER,
    MemoryError_,
    MemoryStats,
    MiB,
    OutOfMemoryError,
    TimelinePoint,
)
from repro.model.layers import TransformerLayerWeights
from repro.model.tensor_ops import (
    causal_mask,
    gelu,
    layer_norm,
    merge_heads,
    padding_mask,
    rms_norm,
    silu,
    softmax,
    split_heads,
)
from repro.model.transformer import CandidateBatch, CrossEncoderModel, ForwardState
from repro.model.zoo import ModelConfig
from repro.retrieval import corpus


# ---------------------------------------------------------------------------
# 1-D k-means (repro.core.clustering)
# ---------------------------------------------------------------------------
def kmeans_1d(scores: np.ndarray, k: int, max_iter: int = 50) -> Clustering:
    """Deterministic Lloyd's k-means over scalar scores."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise ValueError("scores must be a non-empty 1-D array")
    k = min(k, np.unique(scores).size)
    if k <= 1:
        labels = np.zeros(scores.size, dtype=np.int64)
        center = np.array([scores.mean()])
        inertia = float(np.square(scores - center[0]).sum())
        return Clustering(labels=labels, centers=center, inertia=inertia)

    # Quantile initialisation: evenly spaced percentiles of the data.
    quantiles = (np.arange(k) + 0.5) / k
    centers = np.quantile(scores, quantiles)
    # Perturb exact duplicates so each centre owns a distinct region.
    for i in range(1, k):
        if centers[i] <= centers[i - 1]:
            centers[i] = np.nextafter(centers[i - 1], np.inf)

    labels = np.zeros(scores.size, dtype=np.int64)
    for _ in range(max_iter):
        distances = np.abs(scores[:, None] - centers[None, :])
        new_labels = distances.argmin(axis=1)
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        for c in range(k):
            mask = labels == c
            if mask.any():
                centers[c] = scores[mask].mean()

    # Drop empty clusters, then order by descending mean.
    occupied = np.unique(labels)
    centers = np.array([scores[labels == c].mean() for c in occupied])
    order = np.argsort(-centers)
    remap = {int(occupied[orig]): rank for rank, orig in enumerate(order)}
    labels = np.array([remap[int(c)] for c in labels], dtype=np.int64)
    centers = centers[order]
    inertia = float(np.square(scores - centers[labels]).sum())
    return Clustering(labels=labels, centers=centers, inertia=inertia)


def _well_separated(scores: np.ndarray, clustering: Clustering, min_separation: float) -> bool:
    """True when every *adjacent pair* of clusters is statistically distinct."""
    k = clustering.num_clusters
    if k < 2:
        return True
    members = [np.sort(scores[clustering.labels == c]) for c in range(k)]
    spacings: list[float] = []
    for m in members:
        if m.size > 1:
            spacings.extend(np.diff(m).tolist())
    if not spacings:
        return True  # all-singleton clustering: nothing to compare against
    scale = float(np.median(spacings))
    if scale == 0.0:
        return True  # duplicate-heavy scores: any gap is distinct
    for c in range(k - 1):
        # Cluster ids are ordered by descending mean: boundary gap is
        # lowest point of the upper cluster minus highest of the lower.
        gap = float(members[c].min() - members[c + 1].max())
        if gap < min_separation * scale:
            return False
    return True


def cluster_scores(
    scores: np.ndarray,
    max_clusters: int = 6,
    elbow_ratio: float = 0.18,
    min_separation: float = MIN_SEPARATION,
) -> Clustering:
    """Cluster scores with automatic k selection (elbow + separation)."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("scores must be non-empty")
    max_clusters = max(1, min(max_clusters, scores.size))
    best = kmeans_1d(scores, 1)
    if max_clusters == 1 or best.inertia == 0.0:
        return best
    for k in range(2, max_clusters + 1):
        candidate = kmeans_1d(scores, k)
        if best.inertia <= 0:
            break
        improvement = (best.inertia - candidate.inertia) / best.inertia
        if improvement < elbow_ratio:
            break
        if not _well_separated(scores, candidate, min_separation):
            continue
        best = candidate
        if best.inertia == 0.0:
            break
    return best


# ---------------------------------------------------------------------------
# CV trigger (repro.core.pruning)
# ---------------------------------------------------------------------------
def coefficient_of_variation(scores: np.ndarray) -> float:
    """CV = |std/mean| of the provisional scores (§4.1)."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("scores must be non-empty")
    mean = scores.mean()
    if mean == 0.0:
        return np.inf
    return float(abs(scores.std() / mean))


# ---------------------------------------------------------------------------
# Score noise (repro.model.semantics)
# ---------------------------------------------------------------------------
_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser (vectorised) — a high-quality integer mixer."""
    with np.errstate(over="ignore"):
        z = (x + _SPLITMIX_GAMMA).astype(np.uint64)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def _unit_normals(model_seed: int, candidate_uids: np.ndarray, layer: int) -> np.ndarray:
    """Deterministic standard-normal draws keyed by (seed, candidate, layer)."""
    uids = np.asarray(candidate_uids, dtype=np.uint64)
    with np.errstate(over="ignore"):
        base = _splitmix64(
            uids * np.uint64(0x100000001B3)
            + np.uint64(model_seed & 0xFFFFFFFF) * np.uint64(0x1000193)
            + np.uint64(layer)
        )
        other = _splitmix64(base)
    # Map to (0, 1]; guard the log against exactly-zero mantissas.
    u1 = (base >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    u2 = (other >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    u1 = np.maximum(u1, 1e-12)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def noise(dynamics, candidate_uids: np.ndarray, first_layer: int = 0) -> np.ndarray:
    """``ScoreDynamics.noise``'s table built row by row: one per-layer
    draw for every layer from ``first_layer`` to the last."""
    return np.array(
        [
            _unit_normals(dynamics.model_seed, candidate_uids, layer)
            for layer in range(first_layer, dynamics.num_layers)
        ]
    )


def scores_at(dynamics, layer: int, relevance: np.ndarray, candidate_uids: np.ndarray):
    """``ScoreDynamics.scores_at`` evaluated the straightforward way."""
    relevance = np.asarray(relevance, dtype=np.float64)
    candidate_uids = np.asarray(candidate_uids)
    if relevance.shape != candidate_uids.shape:
        raise ValueError("relevance and candidate_uids must align")
    p = dynamics.progress(layer)
    cfg = dynamics.config
    eps = _unit_normals(dynamics.model_seed, candidate_uids, layer)
    return cfg.anchor + (relevance - cfg.anchor) * cfg.fanout(p) + cfg.noise_scale(p) * eps


# ---------------------------------------------------------------------------
# Private LRU row cache (repro.core.embedding_cache.EmbeddingCache)
# ---------------------------------------------------------------------------
class EmbeddingCache:
    """Fixed-capacity LRU cache over embedding-table rows."""

    def __init__(self, capacity_rows, row_nbytes, executor, tag="embedding-cache") -> None:
        if capacity_rows <= 0:
            raise ValueError("capacity_rows must be positive")
        if row_nbytes <= 0:
            raise ValueError("row_nbytes must be positive")
        self.capacity_rows = capacity_rows
        self.row_nbytes = row_nbytes
        self.executor = executor
        self.tag = tag
        self._resident: OrderedDict[int, None] = OrderedDict()
        self._allocated = False
        self.total_hits = 0
        self.total_misses = 0
        self.total_evictions = 0

    def allocate(self) -> None:
        if self._allocated:
            return
        self.executor.device.memory.alloc(
            self.tag, self.capacity_rows * self.row_nbytes, CATEGORY_EMBEDDING
        )
        self._allocated = True

    def release(self) -> None:
        if self._allocated:
            self.executor.device.memory.free(self.tag)
            self._allocated = False
            self._resident.clear()

    def lookup(self, token_ids: np.ndarray) -> CacheLookup:
        if not self._allocated:
            raise RuntimeError("EmbeddingCache.lookup before allocate()")
        unique = np.unique(np.asarray(token_ids).ravel())
        tokens = unique.tolist()
        resident = self._resident
        miss_set = set(tokens).difference(resident.keys())
        missing = [token for token in tokens if token in miss_set]
        hits = len(tokens) - len(missing)
        misses = len(missing)
        for token in tokens:
            if token not in miss_set:
                resident.move_to_end(token)

        io_seconds = 0.0
        miss_bytes = len(missing) * self.row_nbytes
        if missing:
            before = self.executor.now
            self.executor.read_blocking(f"{self.tag}/miss", miss_bytes)
            io_seconds = self.executor.now - before
            for token in missing:
                self._admit(token)

        self.total_hits += hits
        self.total_misses += misses
        return CacheLookup(
            unique_tokens=int(unique.size),
            hits=hits,
            misses=misses,
            miss_bytes=miss_bytes,
            io_seconds=io_seconds,
        )

    def _admit(self, token: int) -> None:
        if token in self._resident:
            self._resident.move_to_end(token)
            return
        while len(self._resident) >= self.capacity_rows:
            self._resident.popitem(last=False)
            self.total_evictions += 1
        self._resident[token] = None

    @property
    def resident_rows(self) -> int:
        return len(self._resident)

    def is_resident(self, token: int) -> bool:
        return token in self._resident

    @property
    def hit_rate(self) -> float | None:
        total = self.total_hits + self.total_misses
        if total == 0:
            return None
        return self.total_hits / total


# ---------------------------------------------------------------------------
# Fleet-shared refcounted row cache (repro.core.data_plane.SharedEmbeddingCache)
# ---------------------------------------------------------------------------
class EmbeddingPin:
    """A pass's refcount on the rows it resolved; release at pass end."""

    __slots__ = ("_plane", "_tokens")

    def __init__(self, plane: "SharedEmbeddingCache", tokens: list[int]) -> None:
        self._plane = plane
        self._tokens = tokens

    def release(self) -> None:
        if self._tokens:
            self._plane._release(self._tokens)
            self._tokens = []


class SharedEmbeddingCache:
    """Embedding-row residency promoted from per-engine to plane scope."""

    def __init__(self, fraction: float = 0.10, capacity_rows: int | None = None) -> None:
        if capacity_rows is not None and capacity_rows <= 0:
            raise ValueError("capacity_rows must be positive")
        if not 0 < fraction <= 1:
            raise ValueError("fraction must lie in (0, 1]")
        self.fraction = fraction
        self.capacity_rows = capacity_rows
        self.row_nbytes: int | None = None
        self.tag = "embedding-plane"
        self._resident: OrderedDict[int, int] = OrderedDict()  # token -> refcount
        self._attached: list = []
        self.total_hits = 0
        self.total_misses = 0
        self.total_evictions = 0
        self.pinned_overflow = 0

    def attach(self, executor, vocab_size: int, row_nbytes: int) -> None:
        if self.capacity_rows is None:
            self.capacity_rows = max(1, int(vocab_size * self.fraction))
        if self.row_nbytes is None:
            self.row_nbytes = row_nbytes
        elif self.row_nbytes != row_nbytes:
            raise ValueError(
                f"embedding plane row size mismatch: {self.row_nbytes} != {row_nbytes}"
            )
        if executor in self._attached:
            return
        executor.device.memory.alloc(
            self.tag, self.capacity_rows * self.row_nbytes, CATEGORY_EMBEDDING
        )
        self._attached.append(executor)

    def detach(self, executor) -> None:
        if executor in self._attached:
            executor.device.memory.free(self.tag)
            self._attached.remove(executor)

    def lookup(self, token_ids: np.ndarray, executor) -> tuple[CacheLookup, EmbeddingPin]:
        if executor not in self._attached:
            raise RuntimeError("SharedEmbeddingCache.lookup before attach()")
        assert self.capacity_rows is not None and self.row_nbytes is not None
        unique = np.unique(np.asarray(token_ids).ravel())
        tokens = [int(t) for t in unique.tolist()]
        resident = self._resident
        miss_set = set(tokens).difference(resident.keys())
        missing = [t for t in tokens if t in miss_set]
        hits = len(tokens) - len(missing)
        for token in tokens:
            if token not in miss_set:
                resident[token] += 1
                resident.move_to_end(token)

        io_seconds = 0.0
        miss_bytes = len(missing) * self.row_nbytes
        if missing:
            before = executor.now
            executor.read_blocking(f"{self.tag}/miss", miss_bytes)
            io_seconds = executor.now - before
            for token in missing:
                self._admit(token)

        self.total_hits += hits
        self.total_misses += len(missing)
        lookup = CacheLookup(
            unique_tokens=int(unique.size),
            hits=hits,
            misses=len(missing),
            miss_bytes=miss_bytes,
            io_seconds=io_seconds,
        )
        return lookup, EmbeddingPin(self, tokens)

    def _admit(self, token: int) -> None:
        resident = self._resident
        if token in resident:
            resident[token] += 1
            resident.move_to_end(token)
            return
        while len(resident) >= self.capacity_rows:
            victim = next((t for t, refs in resident.items() if refs == 0), None)
            if victim is None:
                # every row is pinned by an in-flight pass: admit over
                # capacity rather than evict under a reader.
                self.pinned_overflow += 1
                break
            del resident[victim]
            self.total_evictions += 1
        resident[token] = 1  # admitted pinned by the resolving pass

    def _release(self, tokens: list[int]) -> None:
        resident = self._resident
        for token in tokens:
            refs = resident.get(token)
            if refs is not None and refs > 0:
                resident[token] = refs - 1

    @property
    def resident_rows(self) -> int:
        return len(self._resident)

    @property
    def pinned_rows(self) -> int:
        return sum(1 for refs in self._resident.values() if refs > 0)

    def is_resident(self, token: int) -> bool:
        return token in self._resident

    @property
    def hit_rate(self) -> float | None:
        total = self.total_hits + self.total_misses
        if total == 0:
            return None
        return self.total_hits / total


# ---------------------------------------------------------------------------
# Memory tracker (repro.device.memory.MemoryTracker)
# ---------------------------------------------------------------------------
@dataclass
class Allocation:
    """A single live allocation."""

    name: str
    nbytes: int
    category: str
    alloc_time: float


class MemoryTracker:
    """Tracks named allocations against a virtual clock."""

    def __init__(self, clock: VirtualClock, budget_bytes: int | None = None) -> None:
        self.clock = clock
        self.budget_bytes = budget_bytes
        self._live: dict[str, Allocation] = {}
        self._in_use = 0
        self._per_category: dict[str, int] = {}
        self._peak_by_category: dict[str, int] = {}
        self._timeline: list[TimelinePoint] = [TimelinePoint(clock.now, 0)]
        self._category_timelines: dict[str, list[TimelinePoint]] = {}
        self._peak = 0

    def alloc(self, name: str, nbytes: int, category: str = CATEGORY_OTHER) -> None:
        """Record an allocation of ``nbytes`` under ``name``."""
        if nbytes < 0:
            raise MemoryError_(f"negative allocation size {nbytes} for {name!r}")
        if name in self._live:
            raise MemoryError_(f"allocation name {name!r} already live")
        if self.budget_bytes is not None and self._in_use + nbytes > self.budget_bytes:
            raise OutOfMemoryError(nbytes, self._in_use, self.budget_bytes, name)
        self._live[name] = Allocation(name, nbytes, category, self.clock.now)
        self._in_use += nbytes
        self._per_category[category] = self._per_category.get(category, 0) + nbytes
        self._peak_by_category[category] = max(
            self._peak_by_category.get(category, 0), self._per_category[category]
        )
        self._peak = max(self._peak, self._in_use)
        self._record()
        self._record_category(category)

    def free(self, name: str) -> None:
        """Release the allocation registered under ``name``."""
        alloc = self._live.pop(name, None)
        if alloc is None:
            raise MemoryError_(f"free of unknown allocation {name!r}")
        self._in_use -= alloc.nbytes
        self._per_category[alloc.category] -= alloc.nbytes
        self._record()
        self._record_category(alloc.category)

    def free_if_live(self, name: str) -> bool:
        """Free ``name`` if it is live; return whether anything was freed."""
        if name in self._live:
            self.free(name)
            return True
        return False

    def is_live(self, name: str) -> bool:
        return name in self._live

    def live_bytes(self, name: str) -> int:
        """Size of the live allocation ``name`` (0 when absent)."""
        alloc = self._live.get(name)
        return alloc.nbytes if alloc else 0

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def peak(self) -> int:
        return self._peak

    def in_use_by_category(self, category: str) -> int:
        return self._per_category.get(category, 0)

    def timeline(self) -> list[TimelinePoint]:
        """The memory staircase: (time, bytes-in-use) after each event."""
        return list(self._timeline)

    def category_timeline(self, category: str) -> list[TimelinePoint]:
        """Per-category staircase; empty for categories never allocated."""
        return list(self._category_timelines.get(category, ()))

    def stats(self) -> MemoryStats:
        """Peak / time-weighted average / final usage over the run."""
        return MemoryStats(
            peak_bytes=self._peak,
            avg_bytes=self._time_weighted_average(),
            final_bytes=self._in_use,
            peak_by_category=dict(self._peak_by_category),
        )

    def _time_weighted_average(self) -> float:
        points = self._timeline
        if len(points) < 2:
            return float(points[-1].in_use if points else 0)
        total = 0.0
        span = points[-1].time - points[0].time
        if span <= 0:
            return float(points[-1].in_use)
        for prev, nxt in zip(points, points[1:]):
            total += prev.in_use * (nxt.time - prev.time)
        return total / span

    def _record(self) -> None:
        point = TimelinePoint(self.clock.now, self._in_use)
        # Collapse events at identical timestamps into the final state so
        # the timeline stays a function of time.
        if self._timeline and self._timeline[-1].time == point.time:
            self._timeline[-1] = point
        else:
            self._timeline.append(point)

    def _record_category(self, category: str) -> None:
        series = self._category_timelines.setdefault(category, [])
        point = TimelinePoint(self.clock.now, self._per_category.get(category, 0))
        if series and series[-1].time == point.time:
            series[-1] = point
        else:
            series.append(point)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryTracker(in_use={self._in_use / MiB:.1f} MiB, "
            f"peak={self._peak / MiB:.1f} MiB, live={len(self._live)})"
        )


# ---------------------------------------------------------------------------
# Chunk charges (repro.core.engine.EngineBase._run_layer_chunks)
# ---------------------------------------------------------------------------
def run_layer_chunk(engine, tag: str, num_candidates: int, chunk_costs) -> None:
    """One chunk of one layer: its intermediates are resident only
    while its kernel runs (alloc, compute, free)."""
    flops_per_candidate, inter_per_candidate, weight_bytes, _ = chunk_costs
    inter_bytes = num_candidates * inter_per_candidate
    memory = engine.device.memory
    memory.alloc(tag, inter_bytes, CATEGORY_INTERMEDIATE)
    engine.executor.compute(
        num_candidates * flops_per_candidate,
        weight_bytes + inter_bytes,
        quantized=engine.quantized,
    )
    memory.free(tag)


def run_layer_chunks(engine, tag: str, num_active: int, chunk_size: int, chunk_costs) -> None:
    """``EngineBase._run_layer_chunks``: one :func:`run_layer_chunk` per
    chunk, the remainder last."""
    for start in range(0, num_active, chunk_size):
        run_layer_chunk(engine, tag, min(chunk_size, num_active - start), chunk_costs)


# ---------------------------------------------------------------------------
# A pass's selection (repro.core.pruning.PassSelection / plan_selection)
# ---------------------------------------------------------------------------
def subset_state(state: ForwardState, positions: np.ndarray) -> ForwardState:
    """The rows of ``state`` at ``positions``: hidden rows, lengths and
    the columns of the noise table."""
    sub = ForwardState(batch=state.batch.select(positions), layer_done=state.layer_done)
    if state.noise is not None:
        sub.noise = state.noise[:, positions]
        sub.noise_from = state.noise_from
    if state.hidden is not None:
        assert state.sim_lengths is not None
        sub.hidden = state.hidden[positions]
        sub.sim_lengths = state.sim_lengths[positions]
    return sub


def select(model: CrossEncoderModel, batch: CandidateBatch, k: int, config):
    """PRISM's decision loop as the engine ran it inline, every cost
    taken out: ``(top_indices, top_scores, prune_events)``.

    Before each layer from ``max(1, min_layers_before_pruning)`` on, while
    top-K slots are open, the active rows are scored and the pruner
    routes them: selected rows take slots best-first, a terminal decision
    also places the deferred rows, and otherwise the deferred rows stay
    active.  After the loop the open slots take the best active rows.
    """
    pruner = ProgressiveClusterPruner(
        dispersion_threshold=config.dispersion_threshold,
        max_clusters=config.max_clusters,
        exact_rank_mode=config.exact_rank_mode,
    )
    k = min(k, batch.size)
    state = model.embed(batch, numerics=config.numerics)
    active = np.arange(batch.size)
    selected_idx: list[int] = []
    selected_scores: list[float] = []
    prune_events = []
    for layer in range(model.config.num_layers):
        slots = k - len(selected_idx)
        if (
            config.pruning_enabled
            and layer >= max(1, config.min_layers_before_pruning)
            and slots > 0
            and active.size > 0
        ):
            scores = model.score(state)
            decision = pruner.decide(scores, slots)
            if decision.triggered:
                for pos in decision.selected:
                    selected_idx.append(int(active[pos]))
                    selected_scores.append(float(scores[pos]))
                if decision.terminal:
                    for pos in decision.deferred:
                        selected_idx.append(int(active[pos]))
                        selected_scores.append(float(scores[pos]))
                    active = np.empty(0, dtype=np.int64)
                else:
                    keep = np.sort(decision.deferred)
                    active = active[keep]
                    state = subset_state(state, keep)
                prune_events.append(
                    PruneEvent(
                        layer=layer,
                        cv=decision.cv,
                        num_selected=int(decision.selected.size),
                        num_dropped=int(decision.dropped.size),
                        num_deferred=int(active.size),
                        terminal=decision.terminal,
                    )
                )
                if decision.terminal or len(selected_idx) >= k:
                    break
        if active.size == 0:
            break
        model.forward_layer(state, layer)
    slots = k - len(selected_idx)
    if slots > 0 and active.size > 0:
        scores = model.score(state)
        order = np.argsort(-scores)[:slots]
        selected_idx.extend(int(active[i]) for i in order)
        selected_scores.extend(float(scores[i]) for i in order)
    return (
        np.array(selected_idx[:k], dtype=np.int64),
        np.array(selected_scores[:k]),
        prune_events,
    )


# ---------------------------------------------------------------------------
# Request packing (repro.text.vocab, repro.text.tokenizer, build_batch)
# ---------------------------------------------------------------------------
def sample(vocab, rng: np.random.Generator, count: int) -> np.ndarray:
    """``Vocabulary.sample``: draw ``count`` token ids (int64) from the Zipf
    distribution, one unsorted search per sequence."""
    if count < 0:
        raise ValueError("count must be non-negative")
    u = rng.random(count)
    ranks = np.searchsorted(vocab._cdf, u, side="left")
    return (ranks + vocab.num_special).astype(np.int64)


def encode_synthetic(tokenizer, seed: int, length: int) -> np.ndarray:
    """``Tokenizer.encode_synthetic``: a deterministic sequence from a seed."""
    rng = np.random.default_rng(seed)
    return sample(tokenizer.vocab, rng, length)


def build_pair(
    tokenizer,
    query_ids: np.ndarray,
    doc_ids: np.ndarray,
    max_len: int,
    with_template: bool = True,
) -> np.ndarray:
    """Pack ``[BOS] template query [SEP] doc [EOS]`` to ``max_len`` ids."""
    if max_len < 4:
        raise ValueError("max_len must leave room for special tokens")
    vocab = tokenizer.vocab
    template = tokenizer.template_ids() if with_template else np.empty(0, dtype=np.int64)
    budget = max_len - 3  # BOS, SEP, EOS
    head = np.concatenate([template, query_ids])[:budget]
    doc = doc_ids[: max(0, budget - len(head))]
    seq = np.concatenate(
        [
            [vocab.BOS],
            head,
            [vocab.SEP],
            doc,
            [vocab.EOS],
        ]
    ).astype(np.int64)
    if len(seq) < max_len:
        seq = np.concatenate([seq, np.full(max_len - len(seq), vocab.PAD, np.int64)])
    return seq


def batch_pairs(
    tokenizer,
    query_ids: np.ndarray,
    docs: list[np.ndarray],
    max_len: int,
    with_template: bool = True,
) -> np.ndarray:
    """Pack one query against many documents → (N, max_len) int64."""
    return np.stack(
        [build_pair(tokenizer, query_ids, doc, max_len, with_template) for doc in docs]
    )


def build_batch(query: RerankQuery, tokenizer, max_len: int) -> CandidateBatch:
    """Pack a query's candidates into a monolithic model batch."""
    query_ids = encode_synthetic(tokenizer, query.seed, query.query_length)
    docs = [encode_synthetic(tokenizer, c.seed, c.length) for c in query.candidates]
    tokens = batch_pairs(tokenizer, query_ids, docs, max_len)
    return CandidateBatch(
        tokens=tokens,
        lengths=tokenizer.attention_lengths(tokens),
        relevance=query.relevance(),
        uids=query.uids(),
    )


# ---------------------------------------------------------------------------
# Seeded input generators (repro.data, repro.retrieval.corpus)
# ---------------------------------------------------------------------------
def choice_cdf(p) -> np.ndarray:
    """The CDF ``Generator.choice(len(p), p=p)`` searches, built its way:
    one uniform ``u`` picks ``cdf.searchsorted(u, side="right")``."""
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf


def make_query(
    rng: np.random.Generator,
    query_id: int,
    labels: np.ndarray,
    relevance: np.ndarray,
    query_length: int,
    doc_length_mean: int,
    doc_length_jitter: int = 40,
) -> RerankQuery:
    """``repro.data.workloads.make_query``: ``np.clip`` per length draw."""
    if labels.shape != relevance.shape:
        raise ValueError("labels and relevance must align")
    candidates = []
    for i, (label, rel) in enumerate(zip(labels, relevance)):
        length = int(
            np.clip(
                rng.normal(doc_length_mean, doc_length_jitter),
                32,
                4 * doc_length_mean,
            )
        )
        candidates.append(
            CandidateSpec(
                uid=int(rng.integers(0, 2**31 - 1)),
                seed=int(rng.integers(0, 2**31 - 1)),
                length=length,
                relevance=float(rel),
                is_relevant=bool(label),
            )
        )
    return RerankQuery(
        query_id=query_id,
        seed=int(rng.integers(0, 2**31 - 1)),
        query_length=query_length,
        candidates=tuple(candidates),
    )


def zipf_request_stream(
    rng: np.random.Generator,
    base_queries: "list[RerankQuery]",
    num_requests: int,
    zipf_s: float = 1.1,
    partial_overlap_rate: float = 0.0,
    resample_fraction: float = 0.5,
    tenant_of=None,
) -> "list[RerankQuery]":
    """``repro.data.workloads.zipf_request_stream``: one
    ``rng.choice(p=weights)`` per draw."""
    if not base_queries:
        raise ValueError("base_queries must be non-empty")
    if num_requests < 0:
        raise ValueError("num_requests must be >= 0")
    if zipf_s < 0:
        raise ValueError("zipf_s must be >= 0")
    if not 0.0 <= partial_overlap_rate <= 1.0:
        raise ValueError("partial_overlap_rate must lie in [0, 1]")
    if not 0.0 < resample_fraction <= 1.0:
        raise ValueError("resample_fraction must lie in (0, 1]")

    ranks = np.arange(1, len(base_queries) + 1, dtype=np.float64)
    weights = ranks**-zipf_s
    weights /= weights.sum()

    def mutate(query: RerankQuery, source: np.random.Generator) -> RerankQuery:
        keep = max(1, int(round(len(query.candidates) * (1.0 - resample_fraction))))
        fresh = []
        for _ in range(len(query.candidates) - keep):
            relevance = float(source.uniform(0.05, 0.95))
            fresh.append(
                CandidateSpec(
                    uid=int(source.integers(0, 2**31 - 1)),
                    seed=int(source.integers(0, 2**31 - 1)),
                    length=int(query.candidates[0].length),
                    relevance=relevance,
                    is_relevant=relevance >= 0.5,
                )
            )
        return RerankQuery(
            query_id=query.query_id,
            seed=query.seed,
            query_length=query.query_length,
            candidates=query.candidates[:keep] + tuple(fresh),
            tenant=query.tenant,
        )

    if tenant_of is None:
        mutated: dict[int, RerankQuery] = {}
        stream: list[RerankQuery] = []
        for _ in range(num_requests):
            index = int(rng.choice(len(base_queries), p=weights))
            if partial_overlap_rate > 0.0 and rng.random() < partial_overlap_rate:
                if index not in mutated:
                    mutated[index] = mutate(base_queries[index], rng)
                stream.append(mutated[index])
            else:
                stream.append(base_queries[index])
        return stream

    base_entropy = int(rng.integers(0, 2**31 - 1))
    substreams: dict[str, np.random.Generator] = {}

    def substream(tenant: str) -> np.random.Generator:
        if tenant not in substreams:
            digest = hashlib.sha256(tenant.encode("utf-8")).digest()
            substreams[tenant] = np.random.default_rng(
                [base_entropy, int.from_bytes(digest[:8], "big")]
            )
        return substreams[tenant]

    tenant_mutated: dict[tuple[int, str], RerankQuery] = {}
    stream = []
    for draw in range(num_requests):
        index = int(rng.choice(len(base_queries), p=weights))
        tenant = tenant_of(draw)
        if partial_overlap_rate > 0.0 and rng.random() < partial_overlap_rate:
            key = (index, tenant)
            if key not in tenant_mutated:
                tenant_mutated[key] = mutate(
                    replace(base_queries[index], tenant=tenant), substream(tenant)
                )
            stream.append(tenant_mutated[key])
        else:
            stream.append(replace(base_queries[index], tenant=tenant))
    return stream


def generate_traffic(config: "traffic.TrafficConfig") -> "traffic.TrafficTrace":
    """``repro.data.traffic.generate_traffic``: ``rng.choice`` per class,
    weight, tenant and base-query draw, and a ``replace`` per arrival."""
    rng = np.random.default_rng(config.seed)
    tenant_p = traffic._zipf_weights(config.num_tenants, config.tenant_zipf_s)
    mix_names = [name for name, _ in config.class_mix]
    mix_shares = np.array([share for _, share in config.class_mix], dtype=np.float64)
    factors = dict(config.admit_factor)
    sigmas = dict(config.burst_sigma)
    tenants: dict[str, traffic.TenantProfile] = {}
    tenant_ids = [f"t{i:04d}" for i in range(config.num_tenants)]
    for i, tenant in enumerate(tenant_ids):
        slo = mix_names[int(rng.choice(len(mix_names), p=mix_shares))]
        weight = float(rng.choice(np.asarray(config.tenant_weights)))
        expected = float(tenant_p[i]) * config.rate_rps * config.duration_s
        rate = factors[slo] * float(tenant_p[i]) * config.rate_rps
        burst = max(config.burst, sigmas.get(slo, 0.0) * math.sqrt(expected))
        tenants[tenant] = traffic.TenantProfile(slo=slo, weight=weight, rate=rate, burst=burst)

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
    query_p = traffic._zipf_weights(config.num_base_queries, config.query_zipf_s)

    arrivals = traffic._arrivals(rng, config)
    truncated: dict[tuple[int, int], RerankQuery] = {}
    requests: list[traffic.TrafficRequest] = []
    for arrival in arrivals:
        ti = int(rng.choice(config.num_tenants, p=tenant_p))
        tenant = tenant_ids[ti]
        qi = int(rng.choice(config.num_base_queries, p=query_p))
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
        requests.append(
            traffic.TrafficRequest(
                arrival=float(arrival),
                tenant=tenant,
                slo=tenants[tenant].slo,
                k=config.k,
                query=replace(truncated[key], tenant=tenant),
            )
        )
    return traffic.TrafficTrace(config=config, tenants=tenants, requests=requests)


def draw_pool(profile, rng: np.random.Generator, num_candidates: int):
    """``RelevanceProfile.draw_pool``: each value through ``Tier.draw(rng,
    1)`` (an array draw and an array clip), the profile mean recomputed
    per pool."""
    if num_candidates <= 0:
        raise ValueError("num_candidates must be positive")
    lo, hi = profile.relevant_range
    num_relevant = int(rng.integers(lo, min(hi, num_candidates) + 1))
    labels = np.zeros(num_candidates, dtype=bool)
    labels[:num_relevant] = True
    rng.shuffle(labels)

    relevance = np.empty(num_candidates, dtype=np.float64)
    for i, is_relevant in enumerate(labels):
        if is_relevant:
            draw = rng.random()
            if draw < profile.invisible_relevant_rate:
                tier = profile.low_tiers[int(rng.integers(len(profile.low_tiers)))]
            elif draw < profile.invisible_relevant_rate + profile.hard_relevant_rate:
                tier = profile.mid_tier
            else:
                tier = profile.top_tier
        elif rng.random() < profile.plausible_distractor_rate:
            tier = profile.mid_tier
        else:
            tier = profile.low_tiers[int(rng.integers(len(profile.low_tiers)))]
        relevance[i] = float(tier.draw(rng, 1)[0])
    if profile.separation >= 1.0:
        return labels, relevance
    centers = [profile.top_tier.center, profile.mid_tier.center]
    centers += [tier.center for tier in profile.low_tiers]
    mean = float(np.mean(centers))
    return labels, np.clip(mean + (relevance - mean) * profile.separation, 0.01, 0.99)


def dataset_queries(spec, num_queries: int, num_candidates: int = 20) -> list[RerankQuery]:
    """``DatasetSpec.queries`` over the reference :func:`draw_pool` and
    :func:`make_query`."""
    if num_queries <= 0:
        raise ValueError("num_queries must be positive")
    rng = np.random.default_rng(np.random.SeedSequence([0xDA7A, spec.seed]))
    out = []
    for qid in range(num_queries):
        labels, relevance = draw_pool(spec.profile, rng, num_candidates)
        out.append(
            make_query(
                rng,
                query_id=qid,
                labels=labels,
                relevance=relevance,
                query_length=spec.query_length,
                doc_length_mean=spec.doc_length_mean,
            )
        )
    return out


class SyntheticCorpus(corpus.SyntheticCorpus):
    """``repro.retrieval.corpus.SyntheticCorpus`` with its per-document
    background CDF (one ``rng.choice(p=...)`` per common word) and its
    ``np.clip`` per purity, length and relevance draw."""

    def _draw_words(self, topic_id: int, count: int, purity: float) -> tuple[str, ...]:
        rng = self._rng
        words = []
        zipf_weights = 1.0 / np.arange(1, self.common_vocab_size + 1)
        zipf_weights /= zipf_weights.sum()
        for _ in range(count):
            if rng.random() < purity:
                words.append(self._topic_word(topic_id, int(rng.integers(self.topic_vocab_size))))
            else:
                words.append(self._common_word(int(rng.choice(self.common_vocab_size, p=zipf_weights))))
        return tuple(words)

    def _build(self) -> None:
        rng = self._rng
        for doc_id in range(self.num_docs):
            topic_id = doc_id % self.num_topics
            purity = float(np.clip(rng.normal(0.42, 0.10), 0.10, 0.80))
            length = int(np.clip(rng.normal(self.words_per_doc, 10), 16, 4 * self.words_per_doc))
            self.documents.append(
                corpus.Document(
                    doc_id=doc_id,
                    topic_id=topic_id,
                    words=self._draw_words(topic_id, length, purity),
                    purity=purity,
                )
            )

    def make_query(self, query_id: int, topic_id: int | None = None, length: int = 8):
        rng = np.random.default_rng(np.random.SeedSequence([0x9E4, self.seed, query_id]))
        if topic_id is None:
            topic_id = int(rng.integers(self.num_topics))
        if not 0 <= topic_id < self.num_topics:
            raise ValueError(f"topic_id {topic_id} outside [0, {self.num_topics})")
        words = tuple(
            self._topic_word(topic_id, int(rng.integers(self.topic_vocab_size)))
            for _ in range(length)
        )
        relevance = np.empty(self.num_docs)
        labels = np.zeros(self.num_docs, dtype=bool)
        for doc in self.documents:
            relation = self.topic_relation(topic_id, doc.topic_id)
            if relation == "same":
                center, spread = corpus.SAME_TOPIC_RELEVANCE
                center = center * (0.90 + 0.18 * doc.purity)
                labels[doc.doc_id] = True
            elif relation == "adjacent":
                center, spread = corpus.ADJACENT_TOPIC_RELEVANCE
            else:
                center, spread = corpus.UNRELATED_RELEVANCE
            relevance[doc.doc_id] = np.clip(rng.normal(center, spread), 0.01, 0.99)
        same_topic = [d for d in self.documents if d.topic_id == topic_id]
        same_topic.sort(key=lambda d: -d.purity)
        needed = tuple(d.doc_id for d in same_topic[: min(2, len(same_topic))])
        return corpus.CorpusQuery(
            query_id=query_id,
            topic_id=topic_id,
            words=words,
            relevance=relevance,
            labels=labels,
            needed=needed,
        )


# ---------------------------------------------------------------------------
# Float64 transformer layer (repro.model.layers, repro.model.transformer)
# ---------------------------------------------------------------------------
class TransformerLayer:
    """``TransformerLayer``'s float64 forward: one temporary per op, the
    textbook max-shifted softmax, separate Q/K/V and gate/up matmuls."""

    def __init__(self, config: ModelConfig, weights: TransformerLayerWeights) -> None:
        self.config = config
        self.weights = weights

    def forward(self, hidden: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Run the layer over ``hidden`` (N, L, D_sim); returns a new array."""
        if hidden.ndim != 3:
            raise ValueError(f"hidden must be (N, L, D); got {hidden.shape}")
        normed = self._norm(hidden, self.weights.norm1, self.weights.norm1_bias)
        hidden = hidden + self._attention(normed, lengths)
        normed = self._norm(hidden, self.weights.norm2, self.weights.norm2_bias)
        hidden = hidden + self._ffn(normed)
        return hidden

    def _norm(
        self, x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None
    ) -> np.ndarray:
        if self.config.is_decoder:
            return rms_norm(x, weight)
        assert bias is not None
        return layer_norm(x, weight, bias)

    def _attention(self, x: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        w = self.weights
        heads = self.config.sim_heads
        seq_len = x.shape[1]
        q = split_heads(x @ w.wq, heads)
        k = split_heads(x @ w.wk, heads)
        v = split_heads(x @ w.wv, heads)
        head_dim = q.shape[-1]
        scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(head_dim)
        scores = scores + padding_mask(lengths, seq_len)
        if self.config.is_decoder:
            scores = scores + causal_mask(seq_len)[None, None]
        attn = softmax(scores, axis=-1)
        out = merge_heads(attn @ v)
        return out @ w.wo

    def _ffn(self, x: np.ndarray) -> np.ndarray:
        w = self.weights
        if self.config.is_decoder:
            assert w.w_gate is not None
            return (silu(x @ w.w_gate) * (x @ w.w_up)) @ w.w_down
        return gelu(x @ w.w_up) @ w.w_down


def forward_layer(
    self: CrossEncoderModel, state: ForwardState, layer_idx: int
) -> ForwardState:
    """``CrossEncoderModel.forward_layer`` on the float64 layer: a fresh
    :class:`TransformerLayer` per crossing, then the exact semantic
    channel.  Takes the model as ``self`` so :func:`patch_forward_layer`
    can bind it to one."""
    expected = state.layer_done + 1
    if layer_idx != expected:
        raise ValueError(f"layer {layer_idx} out of order; expected {expected}")
    if state.hidden is not None:
        assert state.sim_lengths is not None
        layer = TransformerLayer(self.config, self.store.load_layer(layer_idx))
        state.hidden = layer.forward(state.hidden, state.sim_lengths)
    state.layer_done = layer_idx
    if state.hidden is not None:
        self._inject(state, layer_idx)
    return state


def patch_forward_layer(model: CrossEncoderModel):
    """Context manager running ``model``'s crossings on the float64 layer.

    Patches the instance, not the class: engines call
    ``self.model.forward_layer``, and an instance attribute left by an
    earlier test's ``monkeypatch`` would shadow a class-level patch.
    """
    return mock.patch.object(model, "forward_layer", MethodType(forward_layer, model))
