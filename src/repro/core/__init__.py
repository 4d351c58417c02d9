"""PRISM core: monolithic forwarding, the four §4 techniques, and the
serving layers built on them — offline calibration
(:class:`ThresholdCalibrator`), the single-device self-calibrating
service (:class:`SemanticSelectionService`, DESIGN.md §3), the
single-device concurrency layer (:class:`DeviceScheduler`, DESIGN.md
§6), the multi-replica fleet (:class:`FleetService`, DESIGN.md §5),
and the unified request-centric serving API
(:class:`SelectionRequest`/:class:`SelectionResponse` + the
:class:`Server` adapters, DESIGN.md §8)."""

from .calibration import CalibrationResult, CalibrationStep, ThresholdCalibrator
from .chunking import (
    HiddenPlan,
    HiddenStateRing,
    choose_chunk_size,
    iter_chunks,
    plan_hidden_states,
)
from .clustering import Clustering, cluster_scores, kmeans_1d
from .config import PrismConfig
from .embedding_cache import CacheLookup, EmbeddingCache
from .engine import EngineBase, PrismEngine, RerankResult, RerankTask, TaskContext
from .metrics import cluster_gamma, goodman_kruskal_gamma, precision_at_k, top_k_overlap
from .pruning import ProgressiveClusterPruner, PruneDecision, PruneEvent, coefficient_of_variation
from .streaming import LayerStreamer, PlanePass, PlaneStats, WeightPlane

__all__ = [
    "CacheLookup",
    "CalibrationResult",
    "CalibrationStep",
    "Clustering",
    "EmbeddingCache",
    "EngineBase",
    "HiddenPlan",
    "HiddenStateRing",
    "LayerStreamer",
    "PlanePass",
    "PlaneStats",
    "PrismConfig",
    "PrismEngine",
    "ProgressiveClusterPruner",
    "PruneDecision",
    "PruneEvent",
    "RerankResult",
    "RerankTask",
    "TaskContext",
    "ThresholdCalibrator",
    "WeightPlane",
    "choose_chunk_size",
    "cluster_gamma",
    "cluster_scores",
    "coefficient_of_variation",
    "goodman_kruskal_gamma",
    "iter_chunks",
    "kmeans_1d",
    "plan_hidden_states",
    "precision_at_k",
    "top_k_overlap",
]

from .scheduler import (  # noqa: E402  (appended export)
    LANE_BATCH,
    LANE_INTERACTIVE,
    SCHEDULING_POLICIES,
    DeviceScheduler,
    DroppedRequest,
    ScheduledOutcome,
    ScheduledRequest,
    SchedulerConfig,
    SchedulerStats,
)

__all__ += [
    "DeviceScheduler",
    "DroppedRequest",
    "LANE_BATCH",
    "LANE_INTERACTIVE",
    "SCHEDULING_POLICIES",
    "ScheduledOutcome",
    "ScheduledRequest",
    "SchedulerConfig",
    "SchedulerStats",
]

from .service import (  # noqa: E402  (appended export)
    DeviceWave,
    MaintenanceReport,
    SampledRequest,
    SampleStride,
    SemanticSelectionService,
    ServiceStats,
)

__all__ += [
    "DeviceWave",
    "MaintenanceReport",
    "SampleStride",
    "SampledRequest",
    "SemanticSelectionService",
    "ServiceStats",
]

from .fleet import (  # noqa: E402  (appended export)
    ROUTING_POLICIES,
    FleetConfig,
    FleetMaintenanceReport,
    FleetRequest,
    FleetService,
    FleetStats,
    ReplicaHandle,
    RequestOutcome,
    RoutingPolicy,
)

__all__ += [
    "FleetConfig",
    "FleetMaintenanceReport",
    "FleetRequest",
    "FleetService",
    "FleetStats",
    "ROUTING_POLICIES",
    "ReplicaHandle",
    "RequestOutcome",
    "RoutingPolicy",
]

# The resilience plane (DESIGN.md §9): deterministic fault injection,
# health/failover policy, and the fleet autoscaler controller.
from .resilience import (  # noqa: E402  (appended export)
    FAULT_BANDWIDTH_DEGRADATION,
    FAULT_KINDS,
    FAULT_REPLICA_CRASH,
    FAULT_REPLICA_STALL,
    FAULT_SSD_READ_ERROR,
    AutoscalerConfig,
    DeviceFault,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    ReplicaHealth,
    ResilienceConfig,
    ScalingEvent,
)

__all__ += [
    "AutoscalerConfig",
    "DeviceFault",
    "FAULT_BANDWIDTH_DEGRADATION",
    "FAULT_KINDS",
    "FAULT_REPLICA_CRASH",
    "FAULT_REPLICA_STALL",
    "FAULT_SSD_READ_ERROR",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "ReplicaHealth",
    "ResilienceConfig",
    "ScalingEvent",
]

# The unified request-centric serving API (DESIGN.md §8) imports the
# tiers above, so it is appended last.
from .api import (  # noqa: E402  (appended export)
    REQUEST_CANCELLED,
    REQUEST_FAILED,
    REQUEST_OK,
    REQUEST_SHED,
    REQUEST_STATUSES,
    DeviceServer,
    EngineServer,
    FleetServer,
    RequestHandle,
    SelectionRequest,
    SelectionResponse,
    Server,
    ServerBase,
    serve_all,
)

__all__ += [
    "DeviceServer",
    "EngineServer",
    "FleetServer",
    "REQUEST_CANCELLED",
    "REQUEST_FAILED",
    "REQUEST_OK",
    "REQUEST_SHED",
    "REQUEST_STATUSES",
    "RequestHandle",
    "SelectionRequest",
    "SelectionResponse",
    "Server",
    "ServerBase",
    "serve_all",
]

# The observability plane (DESIGN.md §10): the typed event log every
# layer publishes into, and trace record/replay built on top of it.
from .events import (  # noqa: E402  (appended export)
    EVENT_KINDS,
    EVENTS_VERSION,
    SERVING_TIERS,
    TERMINAL_KINDS,
    Event,
    EventLog,
)
from .trace import (  # noqa: E402  (appended export)
    TRACE_SCHEMA,
    TRACE_VERSION,
    ReplayReport,
    TraceRequest,
    TraceRun,
    TraceSpec,
    read_trace,
    record_trace,
    render_trace,
    replay_trace,
    run_trace,
    summarize_events,
)

__all__ += [
    "EVENT_KINDS",
    "EVENTS_VERSION",
    "Event",
    "EventLog",
    "ReplayReport",
    "SERVING_TIERS",
    "TERMINAL_KINDS",
    "TRACE_SCHEMA",
    "TRACE_VERSION",
    "TraceRequest",
    "TraceRun",
    "TraceSpec",
    "read_trace",
    "record_trace",
    "render_trace",
    "replay_trace",
    "run_trace",
    "summarize_events",
]
from .data_plane import (  # noqa: E402  (appended export)
    DataPlane,
    DataPlaneConfig,
    DataPlaneStats,
    EmbeddingPin,
    SharedEmbeddingCache,
    clone_result,
)

__all__ += [
    "DataPlane",
    "DataPlaneConfig",
    "DataPlaneStats",
    "EmbeddingPin",
    "SharedEmbeddingCache",
    "clone_result",
]

# The multi-tenant workload plane (DESIGN.md §13): SLO classes,
# per-tenant policy, and tenant-aware fair admission for the fleet.
from .tenancy import (  # noqa: E402  (appended export)
    SLO_BATCH,
    SLO_BEST_EFFORT,
    SLO_CLASSES,
    SLO_INTERACTIVE,
    FairAdmission,
    SLOClass,
    TenancyConfig,
    TenantPolicy,
    TenantStats,
    TokenBucket,
    selection_requests_from_trace,
    tenancy_from_trace,
)

__all__ += [
    "FairAdmission",
    "SLO_BATCH",
    "SLO_BEST_EFFORT",
    "SLO_CLASSES",
    "SLO_INTERACTIVE",
    "SLOClass",
    "TenancyConfig",
    "TenantPolicy",
    "TenantStats",
    "TokenBucket",
    "selection_requests_from_trace",
    "tenancy_from_trace",
]

# The live telemetry plane (DESIGN.md §14): bounded event-log
# subscriptions and the metrics registry derived from the stream.
from .events import EventSubscription  # noqa: E402  (appended export)
from .telemetry import (  # noqa: E402  (appended export)
    Counter,
    Gauge,
    Histogram,
    LifecycleFold,
    MetricsRegistry,
    TelemetryCollector,
    parse_exposition,
    slo_lookup,
)
from .trace import timeline_events, write_timeline  # noqa: E402  (appended export)

__all__ += [
    "Counter",
    "EventSubscription",
    "Gauge",
    "Histogram",
    "LifecycleFold",
    "MetricsRegistry",
    "TelemetryCollector",
    "parse_exposition",
    "slo_lookup",
    "timeline_events",
    "write_timeline",
]
