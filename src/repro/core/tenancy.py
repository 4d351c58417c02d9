"""Tenant-aware fair admission: SLO classes, token buckets, WFQ (DESIGN.md §13).

A fleet serving thousands of tenants cannot hand its admission queue
to whoever shouts loudest: one tenant's burst would starve everyone
else's interactive traffic.  This module provides the fleet's
multi-tenant admission plane:

* **SLO classes** — every tenant belongs to one of three classes
  (``interactive`` / ``batch`` / ``best_effort``), each carrying a
  scheduler lane, an optional per-class deadline, a fair-queuing
  weight and a *shed bound*: the largest fraction of a tenant's
  traffic the fleet may shed under overload before the class's SLO is
  considered violated (the bound ``perf_gate.py`` enforces in CI).
* **Token buckets** — per-tenant rate limits.  Buckets start full
  (``burst`` tokens) and refill continuously at ``rate`` tokens per
  simulated second; a request that finds no token is shed at
  admission with detail ``"rate_limit"``, before it can occupy a
  replica.  Refill is computed from the fleet-clock instant of the
  admission decision, so the outcome is independent of dispatch
  batching order — deterministic by construction.
* **Weighted fair queuing** — admitted requests are ordered by
  start-time fair queuing (SFQ): each request is stamped with a
  virtual *start tag* ``max(vtime, tenant.finish)`` and advances its
  tenant's finish tag by ``1 / (class.weight × tenant.weight)``; the
  dispatcher always flushes the smallest start tags first.  SFQ is
  work-conserving (the queue never idles while backlog exists) and
  starvation-free: a tenant's next tag grows only when it is served,
  so a backlogged tenant's tag is eventually the minimum no matter
  how heavy its neighbours are.

**Starvation-freedom guarantee.**  Buckets start full with
``burst >= 1``, so every tenant's first request is admitted; the
fleet's drain loop serves everything admitted; and SFQ bounds how
long any admitted request can be overtaken.  Hence every tenant that
sends traffic completes at least one request, at any overload — the
property ``benchmarks/test_multitenant.py`` pins at 10x overload with
1000+ tenants.

The plane deliberately sits *in front of* the existing priority/EDF
lanes and the §12 data plane: a memoized cache hit costs the fleet
nothing and therefore consumes no token.  With ``tenancy=None`` (the
default) :class:`~repro.core.fleet.FleetService` never touches this
module and serving stays byte-identical to a fleet built before it
existed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .scheduler import LANE_BATCH, LANE_INTERACTIVE


# ---------------------------------------------------------------------------
# SLO classes
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SLOClass:
    """One service-level class: lane, deadline, weight, shed bound.

    ``shed_bound`` is the contract the CI gate enforces: under any
    overload, no tenant of this class may have more than this fraction
    of its submitted requests shed.  ``deadline_s`` is the class's
    default completion deadline (``None`` = no deadline), applied by
    consumers that opt into deadline enforcement.
    """

    name: str
    priority: int
    deadline_s: float | None
    shed_bound: float
    weight: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.shed_bound <= 1.0:
            raise ValueError("shed_bound must lie in [0, 1]")
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")


SLO_INTERACTIVE = SLOClass(
    name="interactive",
    priority=LANE_INTERACTIVE,
    deadline_s=2.0,
    shed_bound=0.25,
    weight=4.0,
)
SLO_BATCH = SLOClass(
    name="batch", priority=LANE_BATCH, deadline_s=10.0, shed_bound=0.80, weight=2.0
)
SLO_BEST_EFFORT = SLOClass(
    name="best_effort", priority=LANE_BATCH, deadline_s=None, shed_bound=0.995, weight=1.0
)

#: name → class, the closed taxonomy tenants are assigned from.
SLO_CLASSES: dict[str, SLOClass] = {
    c.name: c for c in (SLO_INTERACTIVE, SLO_BATCH, SLO_BEST_EFFORT)
}


# ---------------------------------------------------------------------------
# per-tenant policy & config
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TenantPolicy:
    """Admission contract of one tenant (or the default for unknowns).

    ``rate`` is the token-bucket refill rate in requests per simulated
    second (``None`` = unlimited: the bucket never denies); ``burst``
    is the bucket depth — the short burst a tenant may send above its
    sustained rate.  ``weight`` multiplies the SLO class's weight in
    the fair queue.
    """

    slo: str = SLO_BEST_EFFORT.name
    weight: float = 1.0
    rate: float | None = None
    burst: float = 2.0

    def __post_init__(self) -> None:
        if self.slo not in SLO_CLASSES:
            known = ", ".join(sorted(SLO_CLASSES))
            raise ValueError(f"unknown SLO class {self.slo!r}; known: {known}")
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if self.rate is not None and self.rate < 0:
            raise ValueError("rate must be >= 0")
        if self.burst < 1:
            # The starvation-freedom guarantee needs every tenant's
            # first request admitted: a bucket that starts below one
            # token could deny a tenant forever.
            raise ValueError("burst must be >= 1")

    @property
    def slo_class(self) -> SLOClass:
        return SLO_CLASSES[self.slo]


@dataclass(frozen=True)
class TenancyConfig:
    """The fleet's multi-tenant admission configuration.

    ``policies`` maps tenant id → :class:`TenantPolicy`; tenants not
    listed (including the anonymous ``None`` tenant) fall back to
    ``default``.  ``max_tenant_queue`` caps how many of one tenant's
    requests may sit in the dispatch queue at once (excess is shed
    with detail ``"queue_limit"``); ``None`` leaves the queue uncapped.
    """

    policies: Mapping[str, TenantPolicy] = field(default_factory=dict)
    default: TenantPolicy = field(default_factory=TenantPolicy)
    max_tenant_queue: int | None = None

    def __post_init__(self) -> None:
        if self.max_tenant_queue is not None and self.max_tenant_queue < 1:
            raise ValueError("max_tenant_queue must be >= 1")

    def policy_for(self, tenant: str | None) -> TenantPolicy:
        if tenant is not None and tenant in self.policies:
            return self.policies[tenant]
        return self.default


# ---------------------------------------------------------------------------
# token bucket
# ---------------------------------------------------------------------------
@dataclass
class TokenBucket:
    """Continuous-refill token bucket on the fleet's virtual clock.

    Starts full.  Refill is a pure function of the elapsed virtual
    time since the last refill, so admission outcomes depend only on
    request arrival instants — never on host wall time or dispatch
    interleaving.
    """

    rate: float | None
    burst: float
    tokens: float = field(init=False)
    _last: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        self.tokens = float(self.burst)

    def refill(self, at: float) -> None:
        if at <= self._last:
            return
        if self.rate is not None:
            self.tokens = min(float(self.burst), self.tokens + self.rate * (at - self._last))
        self._last = at

    def try_take(self, at: float, cost: float = 1.0) -> bool:
        """Refill to ``at``; take ``cost`` tokens if available."""
        self.refill(at)
        if self.rate is None:
            return True
        if self.tokens + 1e-12 >= cost:
            self.tokens -= cost
            return True
        return False

    @property
    def debt(self) -> float:
        """How far below full the bucket sits (0 = fully recovered).

        The per-tenant ``token_debt`` surfaced in
        :class:`~repro.core.fleet.FleetStats` — a tenant deep in debt
        has been spending its burst allowance faster than it refills.
        """
        if self.rate is None:
            return 0.0
        return max(0.0, float(self.burst) - self.tokens)


# ---------------------------------------------------------------------------
# fair admission (WFQ over tenants)
# ---------------------------------------------------------------------------
@dataclass
class TenantState:
    """The admission plane's live view of one tenant."""

    tenant: str | None
    policy: TenantPolicy
    bucket: TokenBucket
    finish_tag: float = 0.0
    queued: int = 0

    @property
    def effective_weight(self) -> float:
        return self.policy.weight * self.policy.slo_class.weight


class FairAdmission:
    """Token-bucket admission + start-time fair queuing over tenants.

    The fleet's drain loop calls :meth:`admit` once per arriving
    request (a ``None`` verdict admits; a string verdict names the
    shed detail), :meth:`note_queued` for requests that re-enter the
    queue without a fresh charge (failover retries, re-dispatched
    data-plane followers), :meth:`order_key` to sort the dispatch
    queue fairly, and :meth:`on_flush` when requests leave the queue.
    """

    def __init__(self, config: TenancyConfig) -> None:
        self.config = config
        self.states: dict[str | None, TenantState] = {}
        #: SFQ virtual time: the largest start tag dispatched so far.
        self.vtime = 0.0
        #: request id → (start tag, admission sequence) — the fair order.
        self._tags: dict[int, tuple[float, int]] = {}
        self._seq = 0
        #: Sheds by detail, for the dashboard (``rate_limit`` / ``queue_limit``).
        self.shed_counts: dict[str, int] = {}

    def state(self, tenant: str | None) -> TenantState:
        if tenant not in self.states:
            policy = self.config.policy_for(tenant)
            self.states[tenant] = TenantState(
                tenant=tenant,
                policy=policy,
                bucket=TokenBucket(rate=policy.rate, burst=policy.burst),
            )
        return self.states[tenant]

    # -- admission ------------------------------------------------------
    def admit(self, tenant: str | None, request_id: int, at: float) -> str | None:
        """Charge one request; ``None`` admits, else the shed detail."""
        state = self.state(tenant)
        cap = self.config.max_tenant_queue
        if cap is not None and state.queued >= cap:
            self.shed_counts["queue_limit"] = self.shed_counts.get("queue_limit", 0) + 1
            return "queue_limit"
        if not state.bucket.try_take(at):
            self.shed_counts["rate_limit"] = self.shed_counts.get("rate_limit", 0) + 1
            return "rate_limit"
        self._stamp(state, request_id)
        state.queued += 1
        return None

    def note_queued(self, tenant: str | None, request_id: int) -> None:
        """A request re-entered the queue without a fresh token charge
        (failover retry / re-dispatched follower); keep its original
        fair tag if it has one, stamp a fresh one otherwise."""
        state = self.state(tenant)
        if request_id not in self._tags:
            self._stamp(state, request_id)
        state.queued += 1

    def _stamp(self, state: TenantState, request_id: int) -> None:
        start = max(self.vtime, state.finish_tag)
        state.finish_tag = start + 1.0 / state.effective_weight
        self._tags[request_id] = (start, self._seq)
        self._seq += 1

    # -- fair ordering --------------------------------------------------
    def order_key(self, request) -> tuple[float, int]:
        """Sort key of one queued request: (start tag, admission seq)."""
        tag = self._tags.get(request.request_id)
        if tag is None:  # defensive: untagged requests keep FIFO order
            return (self.vtime, self._seq + request.request_id)
        return tag

    def on_flush(self, requests: Iterable) -> None:
        """Requests left the queue for dispatch: advance virtual time."""
        for request in requests:
            tag = self._tags.pop(request.request_id, None)
            if tag is not None:
                self.vtime = max(self.vtime, tag[0])
            state = self.states.get(getattr(request, "tenant", None))
            if state is not None and state.queued > 0:
                state.queued -= 1


@dataclass
class TenantStats:
    """Per-tenant serving rollup surfaced via ``FleetStats.tenants``
    (built by ``LifecycleFold.tenant_rollups``)."""

    tenant: str | None
    slo: str
    weight: float
    submitted: int
    completed: int
    shed: int
    #: ``None`` when the tenant completed nothing — render as "-".
    p50_latency: float | None
    p99_latency: float | None
    shed_rate: float
    token_debt: float
    shed_bound: float

    @property
    def within_bound(self) -> bool:
        """Did the tenant's shed rate stay within its class's SLO bound?"""
        return self.shed_rate <= self.shed_bound


# ---------------------------------------------------------------------------
# traffic-trace bridge (repro.traffic v1 → fleet admission)
# ---------------------------------------------------------------------------
def tenancy_from_trace(trace) -> TenancyConfig:
    """Build the fleet's :class:`TenancyConfig` from a generated
    :class:`~repro.data.traffic.TrafficTrace` header: one
    :class:`TenantPolicy` per tenant profile, defaults for strays."""
    policies = {
        tenant: TenantPolicy(
            slo=profile.slo,
            weight=profile.weight,
            rate=profile.rate,
            burst=profile.burst,
        )
        for tenant, profile in trace.tenants.items()
    }
    return TenancyConfig(policies=policies)


def selection_requests_from_trace(
    trace, tokenizer, max_len: int, *, deadlines: bool = False
) -> list:
    """Materialise a traffic trace as :class:`~repro.core.api.SelectionRequest`\\ s.

    Arrival offsets, SLO-class lanes and tenant ids come from the
    trace; ``deadlines=True`` additionally applies each class's
    default deadline (``SLO_CLASSES[slo].deadline_s``).  Repeated and
    truncated queries share one head's token and length rows,
    read-only (:func:`~repro.data.workloads.build_batches`).
    """
    from ..data.workloads import build_batches
    from .api import SelectionRequest

    batches = build_batches([record.query for record in trace.requests], tokenizer, max_len)
    requests = []
    for index, (record, batch) in enumerate(zip(trace.requests, batches)):
        slo = SLO_CLASSES[record.slo]
        requests.append(
            SelectionRequest(
                batch=batch,
                k=record.k,
                request_id=f"{record.tenant}/{index}",
                priority=slo.priority,
                arrival=record.arrival,
                deadline=slo.deadline_s if deadlines else None,
                tenant=record.tenant,
            )
        )
    return requests
