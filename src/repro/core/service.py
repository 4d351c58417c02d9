"""Online serving with self-calibrating threshold (§4.1, deployed mode).

The paper's production story for the dispersion threshold: the user
states a minimum precision target; the system *samples requests at a
frequency and logs their top-K results; when the device is idle, it
re-executes full inference (without pruning) to obtain the ground
truth*, compares, and walks the threshold — up when sampled precision
falls below the target, down when there is headroom.

:class:`SemanticSelectionService` implements that loop around a live
:class:`~repro.core.engine.PrismEngine`:

* :meth:`serve_requests` serves a wave of requests at the current
  threshold through the step-multiplexing
  :class:`~repro.core.scheduler.DeviceScheduler` (DESIGN.md §6), built
  from the service's one :class:`~repro.core.scheduler.SchedulerConfig`:
  up to its ``max_concurrency`` requests share the device, interleaved
  at layer boundaries, and a deterministic :class:`SampleStride` logs a
  ``sample_rate`` fraction of them for idle checking (callers reach it
  through :class:`~repro.core.api.DeviceServer`);
* :meth:`idle_maintenance` models the device-idle background pass — it
  plans the logged requests unpruned, device-free (so the serving clock
  and memory are untouched), measures top-K agreement, and applies one
  §4.1 threshold step.

The controller is deliberately incremental (one step per idle pass),
matching the paper's description, rather than re-running the full
offline search of :class:`~repro.core.calibration.ThresholdCalibrator`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from typing import TYPE_CHECKING, Sequence

from ..device.platforms import Device, DeviceProfile
from ..model.transformer import CandidateBatch, CrossEncoderModel
from .config import PrismConfig
from .data_plane import SharedEmbeddingCache
from .engine import PrismEngine, RerankResult
from .metrics import top_k_overlap
from .pruning import plan_selection
from .scheduler import DeviceScheduler, DroppedRequest, ScheduledOutcome, SchedulerConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api imports service)
    from .api import SelectionRequest


class SampleStride:
    """Deterministic request-sampling stride.

    Accumulates ``rate`` per request and trips each time the
    accumulator crosses 1.0, so exactly ``rate`` of requests are
    admitted with no RNG and no float drift at ``rate=1.0``.  Shared
    by the single-device service and the fleet admission layer so the
    two can never diverge on stride semantics.
    """

    def __init__(self, rate: float) -> None:
        self.rate = rate
        self.accumulator = 0.0

    def admit(self) -> bool:
        self.accumulator += self.rate
        if self.accumulator >= 1.0:
            self.accumulator -= 1.0
            return True
        return False


@dataclass
class SampledRequest:
    """One logged request awaiting ground-truth comparison."""

    batch: CandidateBatch
    k: int
    served_top: np.ndarray


@dataclass
class MaintenanceReport:
    """Outcome of one idle-time calibration pass."""

    samples_checked: int
    sampled_precision: float
    old_threshold: float
    new_threshold: float

    @property
    def adjusted(self) -> bool:
        return self.new_threshold != self.old_threshold


@dataclass
class ServiceStats:
    requests_served: int = 0
    requests_sampled: int = 0
    requests_dropped: int = 0  # shed or cancelled before completing
    maintenance_passes: int = 0
    history: list[MaintenanceReport] = field(default_factory=list)


@dataclass
class DeviceWave:
    """Internal record of one scheduler-driven serving wave.

    Produced by :meth:`SemanticSelectionService.serve_requests`; the
    :class:`~repro.core.api.DeviceServer` adapter (DESIGN.md §8) turns
    it into :class:`~repro.core.api.SelectionResponse`\\ s.
    ``request_ids`` aligns with the wave's input order, mapping each
    input to its scheduler-local id.
    """

    outcomes: list[ScheduledOutcome]
    dropped: list[DroppedRequest]
    scheduler: DeviceScheduler
    origin: float
    request_ids: list[int]


class SemanticSelectionService:
    """A self-calibrating top-K selection service over one device.

    Parameters
    ----------
    model / profile:
        Reranker and platform.  The serving engine runs on a device
        created from ``profile``; ground-truth re-execution reads no
        device, so it never appears in serving latency — the paper's
        "when the device is idle" semantics.
    precision_target:
        Minimum acceptable agreement between served and unpruned top-K.
    sample_rate:
        Fraction of requests logged for idle-time checking
        (deterministic stride, so behaviour is reproducible).
    step:
        Threshold increment per idle pass.
    min_threshold / max_threshold:
        Clamp range for the walk.
    scheduler:
        How every :meth:`serve_requests` wave shares the device
        (DESIGN.md §6): policy, quantum, in-flight cap, fusion skew and
        EDF ordering, fixed for the service's life.  ``None`` serves
        one request at a time, ``fifo``.  Each in-flight request holds
        its own hidden-state and stream-buffer memory, so the cap
        bounds serving overhead.
    shared_weights:
        Serve concurrent requests from one refcounted weight plane
        (DESIGN.md §7) instead of per-request streamers: N in-flight
        same-model requests read each layer from the SSD once.  Pairs
        naturally with the ``fusion`` scheduling policy; solo requests
        stay bit-identical either way.
    embedding_plane:
        Fleet-shared embedding row directory (DESIGN.md §12 layer 3)
        the engine resolves rows against; ``None`` keeps the engine's
        private §4.4 cache.

    The service owns no data plane: memoization and coalescing are
    fleet admission, and the fleet is the plane's only owner
    (DESIGN.md §12).  Every request a wave serves is a full pass.
    """

    def __init__(
        self,
        model: CrossEncoderModel,
        profile: DeviceProfile,
        config: PrismConfig | None = None,
        precision_target: float = 0.95,
        sample_rate: float = 0.25,
        step: float = 0.05,
        min_threshold: float = 0.02,
        max_threshold: float = 1.5,
        scheduler: SchedulerConfig | None = None,
        shared_weights: bool = False,
        embedding_plane: SharedEmbeddingCache | None = None,
        event_log=None,
        events_replica: int | None = None,
    ) -> None:
        if not 0 < precision_target <= 1:
            raise ValueError("precision_target must lie in (0, 1]")
        if not 0 < sample_rate <= 1:
            raise ValueError("sample_rate must lie in (0, 1]")
        if step <= 0:
            raise ValueError("step must be positive")
        if not 0 <= min_threshold < max_threshold:
            raise ValueError("need 0 <= min_threshold < max_threshold")
        self.model = model
        self.profile = profile
        self.config = config or PrismConfig(numerics=False)
        if shared_weights:
            self.config = replace(self.config, shared_weight_plane=True)
        self.precision_target = precision_target
        self.sample_rate = sample_rate
        self.step = step
        self.min_threshold = min_threshold
        self.max_threshold = max_threshold
        self.scheduler = scheduler or SchedulerConfig(max_concurrency=1)

        self.device: Device = profile.create()
        #: Fleet-shared embedding residency (DESIGN.md §12 layer 3);
        #: ``None`` keeps the engine's private §4.4 cache.
        self.embedding_plane = embedding_plane
        self.engine = PrismEngine(
            model, self.device, self.config, embedding_plane=embedding_plane
        )
        self.engine.prepare()
        #: Observability sink (DESIGN.md §10), attached *after* prepare
        #: so the log carries serving-time events, not the one-time
        #: weight-load prologue.  ``None`` observes nothing.
        self.events = event_log
        if event_log is not None:
            self.device.attach_event_log(event_log, replica=events_replica)
        self.stats = ServiceStats()
        self._pending_samples: list[SampledRequest] = []
        self._stride = SampleStride(sample_rate)
        #: The scheduler of the most recent :meth:`serve_requests`
        #: wave — its ``stats()`` (lane percentiles, queue waits,
        #: throughput) and fused groups stay reachable after the wave
        #: completes.
        self.last_scheduler: DeviceScheduler | None = None

    # ------------------------------------------------------------------
    @property
    def threshold(self) -> float:
        return self.config.dispersion_threshold

    def _set_threshold(self, value: float) -> None:
        value = float(np.clip(value, self.min_threshold, self.max_threshold))
        # The config rejects NaN (which the clip keeps) before either changes.
        self.config = self.engine.config = replace(self.config, dispersion_threshold=value)

    def apply_threshold(self, value: float) -> float:
        """Externally set the operating threshold (clamped); returns it.

        This is the hook a fleet coordinator uses to propagate a
        consensus threshold to every replica after a maintenance round
        (DESIGN.md §5); the clamp range stays authoritative.
        """
        self._set_threshold(value)
        return self.threshold

    # ------------------------------------------------------------------
    # serving path
    # ------------------------------------------------------------------
    def serve_requests(
        self,
        requests: "Sequence[SelectionRequest]",
        *,
        cancels: Sequence[float | None] | None = None,
    ) -> DeviceWave:
        """Serve one wave of :class:`~repro.core.api.SelectionRequest`\\ s.

        The request-centric serving core (DESIGN.md §8): requests are
        submitted to a :class:`DeviceScheduler` (DESIGN.md §6) built
        from :attr:`scheduler` and driven to completion.
        Request ``arrival``/``deadline`` offsets are resolved against
        the call instant; ``cancels`` (aligned with ``requests``) adds
        per-request cancellation offsets on the same axis.  Deadline
        shedding and cancellation happen in the scheduler — a shed
        request never reaches the engine, and a mid-pass cancel closes
        its task at the next layer boundary.

        Sampling is decided per request *in submission order* through
        the deterministic :class:`SampleStride` (or the request's
        ``sample`` override); only completed requests enter the
        idle-check log.  The scheduler stays reachable as
        :attr:`last_scheduler` for ``stats()`` and the fused groups.

        A fleet replica serves every dispatched batch as one such wave,
        partial-overlap residue passes (DESIGN.md §12) and hedge
        duplicates included.
        """
        requests = list(requests)
        if cancels is not None and len(cancels) != len(requests):
            raise ValueError("cancels must match requests")
        if (
            self.engine.weight_plane is not None
            and self.scheduler.policy == "fifo"
            and self.scheduler.max_concurrency > 1
            and len(requests) > 1
        ):
            # Run-to-completion over the plane keeps every admitted
            # task's frontier at layer 0 while the first runs, so
            # nothing can be reaped: the sweep caches the whole model
            # in memory.  Legitimate on big-RAM devices, but silent
            # OOM bait on the 8 GiB profiles — make it a choice.  With
            # one task in flight only one plane pass is open, so the
            # residency cannot build up.
            warnings.warn(
                "shared weight plane with the run-to-completion 'fifo' policy keeps "
                "every swept layer resident until the last admitted task passes it "
                "(whole-model residency); use 'fusion' or 'round_robin' to keep the "
                "double-buffered streaming window (DESIGN.md §7)",
                RuntimeWarning,
                stacklevel=2,
            )
        scheduler = DeviceScheduler(self.engine, self.scheduler, event_log=self.events)
        origin = self.device.clock.now
        request_ids: list[int] = []
        for index, request in enumerate(requests):
            sample = request.sample
            if sample is None:
                sample = self._stride.admit()
            arrival = origin + request.arrival_offset
            cancel = cancels[index] if cancels is not None else None
            request_ids.append(
                scheduler.submit_request(
                    request.batch,
                    request.k,
                    arrival=arrival,
                    priority=request.priority,
                    sample=sample,
                    deadline=(
                        arrival + request.deadline if request.deadline is not None else None
                    ),
                    cancel_at=origin + cancel if cancel is not None else None,
                    client_id=request.request_id,
                    tenant=request.tenant,
                )
            )
        self.last_scheduler = scheduler
        outcomes = scheduler.drain()
        by_id = {outcome.request_id: outcome for outcome in outcomes}
        self.stats.requests_served += len(outcomes)
        self.stats.requests_dropped += len(scheduler.dropped)
        for index, request in enumerate(requests):
            outcome = by_id.get(request_ids[index])
            if outcome is not None and outcome.sample:
                self.stats.requests_sampled += 1
                self._pending_samples.append(
                    SampledRequest(
                        batch=request.batch,
                        k=request.k,
                        served_top=outcome.result.top_indices.copy(),
                    )
                )
        return DeviceWave(
            outcomes=outcomes,
            dropped=list(scheduler.dropped),
            scheduler=scheduler,
            origin=origin,
            request_ids=request_ids,
        )

    # ------------------------------------------------------------------
    # shadow pass
    # ------------------------------------------------------------------
    def replay_selection(self, batch: CandidateBatch, k: int) -> RerankResult:
        """Full-batch selection replay on a zero-cost shadow engine.

        Pruning stays ON at the current config, so the replay is
        byte-identical to serving the batch solo (cross-tier
        determinism, DESIGN.md §8) — but it runs on a shadow device, so
        serving clocks and memory are untouched.  This is how the
        fleet's partial-overlap path (DESIGN.md §12) recovers the exact
        full-batch selection after executing only the residue rows; the
        fleet also reads the replay's costs, so it is not a plan.
        """
        shadow = self.profile.create()
        engine = PrismEngine(self.model, shadow, self.config)
        engine.prepare()
        result = engine.start(batch, k).run()
        assert result is not None  # shadow passes are never cancelled
        return result

    # ------------------------------------------------------------------
    # idle path
    # ------------------------------------------------------------------
    def _sampled_precision(self) -> tuple[int, float]:
        unpruned = replace(self.config, pruning_enabled=False)  # idle-time ground truth
        overlaps = []
        for sample in self._pending_samples:
            truth = plan_selection(self.model, sample.batch, sample.k, unpruned).top_indices
            overlaps.append(top_k_overlap(sample.served_top, truth, sample.k))
        return len(overlaps), float(np.mean(overlaps)) if overlaps else 1.0

    def idle_maintenance(self) -> MaintenanceReport | None:
        """Run one background calibration pass; returns its report.

        No-op (returns None) when no samples are pending.  Applies one
        §4.1 step: precision below target → raise the threshold (be
        more conservative); at or above target → lower it (go faster).
        """
        if not self._pending_samples:
            return None
        checked, precision = self._sampled_precision()
        old = self.threshold
        if precision < self.precision_target:
            self._set_threshold(old + self.step)
        else:
            self._set_threshold(old - self.step)
        self._pending_samples.clear()
        report = MaintenanceReport(
            samples_checked=checked,
            sampled_precision=precision,
            old_threshold=old,
            new_threshold=self.threshold,
        )
        self.stats.maintenance_passes += 1
        self.stats.history.append(report)
        return report

    @property
    def pending_samples(self) -> int:
        return len(self._pending_samples)
