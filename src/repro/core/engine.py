"""Engines: the execution policies under evaluation.

:class:`EngineBase` carries everything shared between PRISM and the
HF-style baselines — cost charging for embedding/layers/classifier and
the result schema.  :class:`PrismEngine` implements monolithic
forwarding (§3.3) with the four techniques of §4 behind the flags of
:class:`~repro.core.config.PrismConfig`.

An engine runs against one simulated :class:`~repro.device.platforms.Device`.
``prepare()`` performs one-time setup (loading resident weights) and is
timed separately from per-request latency, matching how the paper
measures steady-state inference.

Execution is *step-based* (DESIGN.md §6): ``start(batch, k)`` returns a
resumable :class:`RerankTask` whose ``step()`` advances exactly one
layer of work, so a :class:`~repro.core.scheduler.DeviceScheduler` can
time-multiplex several in-flight requests on one device at layer
boundaries.  :meth:`RerankTask.run` is the thin drive-to-completion
loop, so a solo request executes the same operation sequence whether
it runs alone or under a scheduler (bit-identical results and
latencies).  Callers serve requests through the engine tier of the
request API, :class:`~repro.core.api.EngineServer` (DESIGN.md §8).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..device.executor import DeviceExecutor
from ..device.faults import FAULT_REPLICA_CRASH, DeviceFault
from ..device.memory import (
    CATEGORY_EMBEDDING,
    CATEGORY_HIDDEN,
    CATEGORY_INTERMEDIATE,
    CATEGORY_OTHER,
    CATEGORY_WEIGHTS,
    MiB,
)
from ..device.platforms import Device
from ..model import costs
from ..model.transformer import CandidateBatch, CrossEncoderModel
from ..model.weights import WeightStore
from .chunking import HiddenStateRing, choose_chunk_size, plan_hidden_states
from .config import PrismConfig
from .embedding_cache import EmbeddingCache
from .pruning import PassSelection, PruneDecision, PruneEvent
from .streaming import LayerStreamer, PlanePass, WeightPlane


@dataclass
class RerankResult:
    """Outcome of one reranking request."""

    top_indices: np.ndarray  # pool indices, best-first
    top_scores: np.ndarray  # scores at selection time
    latency_seconds: float
    layers_executed: int
    candidate_layers: int  # Σ over layers of active-candidate count
    io_stall_seconds: float
    prune_events: list[PruneEvent] = field(default_factory=list)
    chunk_size: int | None = None
    terminated_early: bool = False
    #: The ``k`` the caller asked for.  ``start()`` clamps ``k`` to the
    #: candidate-pool size; this field keeps the clamp observable instead
    #: of silent (``None`` only for results built outside the task path).
    requested_k: int | None = None

    @property
    def k(self) -> int:
        """Effective K: how many candidates were actually selected."""
        return int(self.top_indices.size)

    @property
    def k_clamped(self) -> bool:
        """Whether the requested K exceeded the pool and was clamped."""
        return self.requested_k is not None and self.requested_k != self.k


@dataclass(frozen=True)
class TaskContext:
    """Per-request namespace for device resources.

    Concurrent tasks share one device, so every transient resource a
    request touches — memory allocations, SSD transfer tags — must be
    namespaced per request or interleaved tasks would collide on the
    trackers' name keyed APIs.  ``request_id`` is unique per engine.

    ``plane_pass`` is the request's cursor into the engine's shared
    :class:`~repro.core.streaming.WeightPlane` (DESIGN.md §7), or
    ``None`` when the engine streams weights privately per request.  It
    is claimed at admission — before the first step — so the plane
    knows every admitted pass still needs layer 0 and cannot free a
    shared buffer under a not-yet-started task's feet.
    """

    request_id: int
    plane_pass: PlanePass | None = None
    #: Refcounted pins on fleet-shared embedding rows (DESIGN.md §12):
    #: appended by the pass's embedding stage, released at the pass
    #: boundary (normal and fault/cancel teardown alike) so the shared
    #: cache never evicts a row under an in-flight reader.  The list is
    #: mutable state inside a frozen record, like a refcount cell.
    embedding_pins: list = field(default_factory=list)

    @property
    def prefix(self) -> str:
        return f"req{self.request_id}/"

    def tag(self, name: str) -> str:
        return self.prefix + name


class RerankTask:
    """Resumable execution of one reranking request (DESIGN.md §6).

    The task wraps an engine-specific generator that performs the
    request's work and yields once per executed transformer layer.
    Each :meth:`step` resumes the generator until its next layer
    boundary, so a scheduler interleaving several tasks preempts only
    at layer boundaries — the clock-coherent preemption points where no
    transient chunk state is live.

    Step anatomy: the request prologue (embedding stage, residency
    planning) runs inside the *first* step, and the finalisation tail
    (classifier over survivors, ordering, teardown) forms the *last*
    step, so a task takes ``layers_executed + 1`` steps in total and no
    simulated work ever happens outside a step.
    """

    def __init__(self, engine: "EngineBase", batch: CandidateBatch, k: int, requested_k: int) -> None:
        self.engine = engine
        self.batch = batch
        self.k = k
        self.requested_k = requested_k
        self.context = TaskContext(engine._claim_request_id(), engine._open_plane_pass())
        self._gen = engine._task_impl(batch, k, self.context)
        self._result: RerankResult | None = None
        self.steps_taken = 0

    @property
    def request_id(self) -> int:
        return self.context.request_id

    @property
    def done(self) -> bool:
        return self._result is not None

    def step(self) -> bool:
        """Advance the task by exactly one layer of work.

        Returns ``True`` once the task has completed (the final step
        runs the finalisation tail).  Stepping a completed task is an
        error — schedulers must consult :attr:`done`.

        Injected device faults (DESIGN.md §9) surface here, at the
        step boundary: a due *stall* freezes the clock for its window
        before the layer runs, and a due *crash* closes the task —
        releasing weight-plane refcounts exactly like a cancel — and
        raises a typed :class:`~repro.device.faults.DeviceFault`.
        """
        if self.done:
            raise RuntimeError("step() on a completed RerankTask")
        faults = self.engine.device.faults
        if faults is not None:
            clock = self.engine.device.clock
            stall = faults.pop_stall(clock.now)
            if stall is not None:
                clock.advance(stall.duration)
            crash = faults.pop_crash(clock.now)
            if crash is not None:
                self.close()
                raise DeviceFault(
                    FAULT_REPLICA_CRASH, at=clock.now, detail=f"req{self.request_id}"
                )
        device = self.engine.device
        before = device.clock.now
        try:
            next(self._gen)
        except StopIteration as stop:
            result: RerankResult = stop.value
            result.requested_k = self.requested_k
            self._result = result
        self.steps_taken += 1
        if device.events is not None:
            device.events.emit(
                "step",
                at=device.clock.now,
                tier="engine",
                request=self.request_id,
                replica=device.events_replica,
                step=self.steps_taken,
                start=before,
                final=self.done,
            )
        return self.done

    @property
    def result(self) -> RerankResult:
        """The finalised result; raises until the last step has run."""
        if self._result is None:
            raise RuntimeError("RerankTask.result before completion")
        return self._result

    def run(self, cancel_at: float | None = None) -> RerankResult | None:
        """Drive the task to completion (the classic blocking pass).

        ``cancel_at`` (absolute device-clock time) cancels the pass at
        its next layer boundary: the task is closed — releasing any
        shared weight-plane refcounts (DESIGN.md §8) — and ``None`` is
        returned.  Without a cancellation instant the result is always
        a :class:`RerankResult`.
        """
        clock = self.engine.device.clock
        while not self.done:
            if cancel_at is not None and clock.now >= cancel_at:
                self.close()
                return None
            try:
                self.step()
            except DeviceFault:
                # The pass died on an injected fault (DESIGN.md §9):
                # tear down like a cancel — close() is idempotent, so
                # a crash that already closed the task is a no-op —
                # and let the typed fault propagate to the caller.
                self.close()
                raise
        return self.result

    def close(self) -> None:
        """Abandon an unfinished task, releasing its shared resources.

        Closing the generator runs the pass's cleanup for tasks that
        already started; for a task that was admitted but never stepped
        the generator body never ran, so the plane pass claimed at
        construction is released explicitly — otherwise an abandoned
        task would pin the weight plane's reap floor at layer 0
        forever.  Idempotent; a no-op on completed tasks.
        """
        if self.done:
            return
        self._gen.close()
        if self.context.plane_pass is not None:
            self.context.plane_pass.fail_pass()


class EngineBase:
    """Shared plumbing for all engines."""

    name = "base"

    #: Fixed runtime overhead every engine pays on a real device (CUDA /
    #: Metal context, framework allocator pools, tokenizer tables).
    RUNTIME_BASE_BYTES = 96 * MiB

    def __init__(self, model: CrossEncoderModel, device: Device, quantized: bool = False) -> None:
        self.model = model
        self.device = device
        self.quantized = quantized
        self.executor = DeviceExecutor(device)
        self.store = (
            model.store
            if model.store.quantized == quantized
            else WeightStore(model.config, quantized=quantized)
        )
        self._prepared = False
        self.prepare_seconds = 0.0
        self._request_counter = 0
        #: Shared weight plane (DESIGN.md §7); engines that stream
        #: privately per request leave it ``None``.
        self.weight_plane: WeightPlane | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """One-time setup (resident weights etc.); idempotent."""
        if self._prepared:
            return
        start = self.executor.now
        self.device.memory.alloc(
            f"runtime-base/{self.name}", self.RUNTIME_BASE_BYTES, CATEGORY_OTHER
        )
        self._prepare_impl()
        self.prepare_seconds = self.executor.now - start
        self._prepared = True

    def start(self, batch: CandidateBatch, k: int) -> RerankTask:
        """Admit one request as a resumable :class:`RerankTask`.

        No simulated work happens here — the request prologue runs
        inside the task's first :meth:`RerankTask.step`, so a queued
        task costs nothing until a scheduler actually runs it.  ``k``
        is clamped to the pool size; the requested value is recorded on
        the eventual :class:`RerankResult` (``requested_k``).
        """
        if not self._prepared:
            raise RuntimeError(f"{self.name}: start() before prepare()")
        if k <= 0:
            raise ValueError("k must be positive")
        if batch.size == 0:
            raise ValueError("batch has no candidates")
        return RerankTask(self, batch, min(k, batch.size), requested_k=k)

    def _claim_request_id(self) -> int:
        request_id = self._request_counter
        self._request_counter += 1
        return request_id

    def _open_plane_pass(self) -> PlanePass | None:
        """Claim a cursor into the shared weight plane, if one exists.

        Called at task admission; registration performs no simulated
        work (no allocation, no clock movement), so a queued task still
        costs nothing until its first step.
        """
        if self.weight_plane is None:
            return None
        return self.weight_plane.open_pass()

    def _prepare_impl(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _task_impl(self, batch: CandidateBatch, k: int, ctx: TaskContext):  # pragma: no cover
        """Generator performing the request; yields once per layer."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # cost charging (identical across engines; policies differ upstream)
    # ------------------------------------------------------------------
    def _effective_seq_len(self, batch: CandidateBatch) -> int:
        return int(max(1, round(float(batch.lengths.mean()))))

    def _charge_embedding(self, num_candidates: int, seq_len: int) -> None:
        cfg = self.model.config
        flops = num_candidates * costs.embedding_flops_per_candidate(cfg, seq_len)
        bytes_moved = num_candidates * seq_len * costs.embedding_row_bytes(cfg)
        self.executor.compute(flops, bytes_moved)

    def _layer_chunk_costs(self, seq_len: int) -> tuple[float, int, int, dict[int, float]]:
        """A pass's per-chunk constants for :meth:`_run_layer_chunks`.

        FLOPs and intermediate bytes per candidate and the layer's
        weight bytes depend only on the model, ``seq_len`` and
        quantization, so a pass computes them once.  The dict keeps each
        chunk size's kernel time, filled by its first chunk.
        """
        cfg = self.model.config
        return (
            costs.layer_flops_per_candidate(cfg, seq_len),
            costs.intermediate_bytes_per_candidate(cfg, seq_len),
            costs.layer_weight_bytes(cfg, self.quantized),
            {},
        )

    def _run_layer_chunks(
        self,
        tag: str,
        num_active: int,
        chunk_size: int,
        chunk_costs: tuple[float, int, int, dict[int, float]],
    ) -> None:
        """One layer over ``num_active`` candidates in chunks of
        ``chunk_size``, the remainder last.

        Each chunk's intermediates are resident only while its kernel
        runs (alloc, compute, free).  The tracker replays each run of
        equal chunks in order, so the clock and the staircase are those
        of one alloc, kernel and free per chunk.
        """
        flops_per_candidate, inter_per_candidate, weight_bytes, seconds = chunk_costs
        full, rest = divmod(num_active, chunk_size)
        for size, count in ((chunk_size, full), (rest, 1)):
            if size and count:
                inter_bytes = size * inter_per_candidate
                if size not in seconds:
                    seconds[size] = self.device.compute.op_time(
                        size * flops_per_candidate,
                        weight_bytes + inter_bytes,
                        quantized=self.quantized,
                    )
                self.device.memory.transients(
                    tag, inter_bytes, CATEGORY_INTERMEDIATE, seconds[size], count
                )

    def _charge_classifier(self, num_candidates: int) -> None:
        flops = num_candidates * costs.classifier_flops_per_candidate(self.model.config)
        self.executor.compute(flops)


class PrismEngine(EngineBase):
    """Monolithic forwarding with progressive cluster pruning, overlapped
    layer streaming, chunked execution and embedding table caching."""

    name = "prism"

    def __init__(
        self,
        model: CrossEncoderModel,
        device: Device,
        config: PrismConfig | None = None,
        embedding_plane=None,
    ) -> None:
        self.config = config or PrismConfig()
        super().__init__(model, device, quantized=self.config.quantized)
        self.embedding_cache: EmbeddingCache | None = None
        #: Fleet-shared embedding residency (DESIGN.md §12): when set,
        #: it replaces the private per-engine cache — one directory
        #: serves every attached replica, with refcounted row pins.
        self.embedding_plane = embedding_plane

    # ------------------------------------------------------------------
    def _prepare_impl(self) -> None:
        cfg = self.model.config
        memory = self.device.memory
        memory.alloc("classifier", self.store.classifier_nbytes(), CATEGORY_WEIGHTS)

        if self.config.shared_weight_plane:
            self.weight_plane = WeightPlane(self.store, self.executor)

        if self.embedding_plane is not None:
            # Plane-scoped residency (DESIGN.md §12): this device still
            # charges its own fixed slab, but the row directory is
            # shared fleet-wide.
            self.embedding_plane.attach(
                self.executor, cfg.vocab_size, self.store.embedding_row_nbytes()
            )
        elif self.config.embedding_cache:
            capacity = max(1, int(cfg.vocab_size * self.config.embedding_cache_fraction))
            self.embedding_cache = EmbeddingCache(
                capacity_rows=capacity,
                row_nbytes=self.store.embedding_row_nbytes(),
                executor=self.executor,
            )
            self.embedding_cache.allocate()
        else:
            nbytes = self.store.embedding_nbytes()
            self.executor.read_blocking("load/embedding", nbytes)
            memory.alloc("embedding-table", nbytes, CATEGORY_EMBEDDING)

        if not self.config.layer_streaming:
            for layer in range(cfg.num_layers):
                nbytes = self.store.layer_nbytes(layer)
                self.executor.read_blocking(f"load/{self.store.layer_tag(layer)}", nbytes)
                memory.alloc(self.store.layer_tag(layer), nbytes, CATEGORY_WEIGHTS)

    # ------------------------------------------------------------------
    def _task_impl(self, batch: CandidateBatch, k: int, ctx: TaskContext):
        # Weight streaming is per-pass: either a private streamer
        # (namespaced buffers, streams independent of other requests)
        # or a refcounted cursor into the engine's shared WeightPlane
        # (DESIGN.md §7), under which N in-flight requests read each
        # layer from the SSD once instead of N times.
        streamer: LayerStreamer | PlanePass | None = None
        if self.config.layer_streaming:
            streamer = ctx.plane_pass or LayerStreamer(
                self.store, self.executor, tag_prefix=ctx.prefix
            )
            streamer.begin_pass()
        try:
            result = yield from self._pass_impl(batch, k, ctx, streamer)
        except BaseException:
            # A failing pass (OOM under load, a cancelled generator)
            # must drop its plane refcounts, or shared buffers would
            # stay pinned for every surviving request.  Same for the
            # embedding-row pins: a fault/cancel must unpin, or the
            # shared cache could never evict those rows again.
            if streamer is not None:
                streamer.fail_pass()
            for pin in ctx.embedding_pins:
                pin.release()
            raise
        for pin in ctx.embedding_pins:
            pin.release()
        return result

    def _pass_impl(
        self,
        batch: CandidateBatch,
        k: int,
        ctx: TaskContext,
        streamer: LayerStreamer | PlanePass | None,
    ):
        cfg = self.model.config
        prism_cfg = self.config
        executor = self.executor
        memory = self.device.memory
        seq_len = self._effective_seq_len(batch)
        t0, stall0 = executor.now, executor.io_stall_seconds

        # ---------------- embedding stage ------------------------------
        if self.embedding_plane is not None:
            _, pin = self.embedding_plane.lookup(batch.tokens, self.executor)
            ctx.embedding_pins.append(pin)
        elif self.embedding_cache is not None:
            self.embedding_cache.lookup(batch.tokens)
        self._charge_embedding(batch.size, seq_len)
        selection = PassSelection(self.model, batch, k, prism_cfg)

        # ---------------- residency plan -------------------------------
        if prism_cfg.chunked_execution:
            chunk_size = choose_chunk_size(
                cfg,
                self.device.profile,
                seq_len,
                batch.size,
                prism_cfg.chunk_memory_budget,
                prism_cfg.min_chunk_compute_window,
            )
        else:
            chunk_size = batch.size
        hidden_plan = plan_hidden_states(
            cfg,
            seq_len,
            batch.size,
            chunk_size,
            prism_cfg.hidden_offload if prism_cfg.chunked_execution else "off",
            prism_cfg.hidden_memory_budget,
        )
        hidden_tag = ctx.tag("hidden")
        ring: HiddenStateRing | None = None
        if hidden_plan.offload:
            ring = HiddenStateRing(
                executor, hidden_plan, batch.size, tag_prefix=ctx.tag("hidden-ring")
            )
            ring.allocate()
        else:
            memory.alloc(
                hidden_tag, batch.size * hidden_plan.per_candidate_bytes, CATEGORY_HIDDEN
            )

        # ---------------- monolithic layer loop ------------------------
        chunk_costs = self._layer_chunk_costs(seq_len)
        inter_tag = ctx.tag("chunk-intermediates")
        layers_executed = 0
        candidate_layers = 0

        for layer in range(cfg.num_layers):
            if layer >= selection.check_from and selection.open:
                if self._pruning_check(selection, layer).triggered:
                    if not selection.open:
                        break
                    if ring is None:
                        memory.free(hidden_tag)
                        memory.alloc(
                            hidden_tag,
                            int(selection.active.size) * hidden_plan.per_candidate_bytes,
                            CATEGORY_HIDDEN,
                        )

            if streamer is not None:
                streamer.acquire(layer)

            num_active = int(selection.active.size)
            if ring is None:
                self._run_layer_chunks(inter_tag, num_active, chunk_size, chunk_costs)
            else:
                # Each chunk's hidden states move between its kernel and
                # the next one's, so the ring charges chunk by chunk.
                ring.begin_layer(layer, num_active)
                for chunk_no, start in enumerate(range(0, num_active, chunk_size)):
                    ring.acquire(layer, chunk_no)
                    self._run_layer_chunks(
                        inter_tag, min(chunk_size, num_active - start), chunk_size, chunk_costs
                    )
                    ring.release(layer, chunk_no)

            # Costs are charged from shapes alone: numerics never reach
            # the clock (DESIGN.md §11).
            self.model.forward_layer(selection.state, layer)
            if streamer is not None:
                streamer.advance(layer)
            layers_executed += 1
            candidate_layers += num_active
            yield layer  # preemption point: one layer advanced

        # ---------------- finalisation ---------------------------------
        scored = selection.finish()
        if scored:
            self._charge_classifier(scored)

        if ring is not None:
            ring.release_all()
        else:
            memory.free(hidden_tag)
        if streamer is not None:
            streamer.finish_pass()
        # Only this request's outstanding transfers (ring write-backs):
        # a concurrent task's prefetches must not become our barrier.
        self.device.ssd.drain(prefix=ctx.prefix)

        return RerankResult(
            top_indices=selection.top_indices,
            top_scores=selection.top_scores,
            latency_seconds=executor.now - t0,
            layers_executed=layers_executed,
            candidate_layers=candidate_layers,
            io_stall_seconds=executor.io_stall_seconds - stall0,
            prune_events=selection.prune_events,
            chunk_size=chunk_size,
            terminated_early=layers_executed < cfg.num_layers,
        )

    # ------------------------------------------------------------------
    def _pruning_check(self, selection: PassSelection, layer: int) -> PruneDecision:
        """Charge one pruning check over the active rows and run it: the
        CV check, the classifier and, if it ran, the clustering."""
        executor = self.executor
        executor.device.clock.advance(self.config.cv_check_latency)
        self._charge_classifier(int(selection.active.size))
        # The head reads the exactly injected channel, so the decision
        # does not depend on the kernel's precision (DESIGN.md §11).
        decision = selection.check(layer)
        if decision.clustering is not None:
            executor.device.clock.advance(self.config.clustering_latency)
        return decision
