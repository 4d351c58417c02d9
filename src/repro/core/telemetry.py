"""One fold over the request lifecycle, and the metrics registry it writes (DESIGN.md §14).

The §10 event log is the single source of truth for everything the
fleet does.  Every lifecycle number the repo reports — per-tier counts,
shed and fail reasons, exact latency percentiles, per-tenant rollups
and the SLO burn rate — is computed by one fold, :class:`LifecycleFold`,
over admissions and *terminal records* (a complete, shed, cancel or
fail, with its tier, tenant, latency and reason).  Its state is a
:class:`MetricsRegistry`'s lifecycle families, so the ``/metrics``
text, ``FleetStats`` and ``cli trace summary`` are three views of one
computation and agree by construction:

* :meth:`~repro.core.fleet.FleetService.stats` folds the fleet's own
  completion and drop records when it is called;
* :class:`EventFold` is the one event adapter: it pairs each terminal
  with its admit and feeds the fold, for
  :func:`~repro.core.trace.summarize_events` and for the live
  :class:`TelemetryCollector`, which consumes a bounded
  :class:`~repro.core.events.EventSubscription` and also keeps the
  plane's non-lifecycle counters and gauges.

Histograms retain their raw samples, so percentiles are exact
``numpy`` percentiles; the fixed buckets serve the Prometheus
exposition (:mod:`repro.harness.live`) and the bucket-estimated
quantiles a remote scraper reconstructs (`cli live`).  The burn rate
is the observed shed rate over the class's shed bound — above 1.0 the
§13 contract is being violated right now.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .events import SERVING_TIERS, TERMINAL_KINDS, Event, EventSubscription
from .tenancy import SLO_CLASSES, FairAdmission, TenantStats

#: Prometheus metric-name / label-name grammar.
_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default latency buckets (seconds) — tuned to the simulator's
#: virtual-second scale, from sub-millisecond steps to minute-long
#: batch passes.
DEFAULT_LATENCY_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)


def _label(value: Any) -> str:
    """A label value as the registry stores it (``None`` is empty)."""
    return "" if value is None else str(value)


def _percentile(samples: list[float], p: float) -> float | None:
    """Exact percentile (numpy's linear estimator); ``None`` when there
    are no samples, since an empty sample has no percentiles."""
    return float(np.percentile(samples, p)) if samples else None


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _labels_suffix(labelnames: tuple[str, ...], labelvalues: tuple[str, ...]) -> str:
    if not labelnames:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + inner + "}"


class MetricFamily:
    """Shared machinery: one named family, one child per label tuple."""

    type_name = "untyped"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...] = ()) -> None:
        if not _METRIC_NAME.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_NAME.match(label) or label.startswith("__"):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        #: Label-value tuple → child, one per series in the exposition.
        self.children: dict[tuple[str, ...], Any] = {}

    def labels(self, *labelvalues: Any):
        """The child for one label-value tuple (created on first use)."""
        values = tuple(_label(v) for v in labelvalues)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, got {values!r}"
            )
        child = self.children.get(values)
        if child is None:
            child = self._make_child()
            self.children[values] = child
        return child

    def _make_child(self):  # pragma: no cover - abstract
        raise NotImplementedError

    # -- exposition -----------------------------------------------------
    def render(self) -> list[str]:
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.type_name}",
        ]
        for labelvalues in sorted(self.children):
            lines.extend(self._render_child(labelvalues, self.children[labelvalues]))
        return lines

    def _render_child(self, labelvalues, child) -> list[str]:  # pragma: no cover
        raise NotImplementedError


class _CounterValue:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Counter(MetricFamily):
    """Monotone counter family (``*_total`` by convention)."""

    type_name = "counter"

    def _make_child(self) -> _CounterValue:
        return _CounterValue()

    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def value(self, *labelvalues: Any) -> float:
        child = self.children.get(tuple(_label(v) for v in labelvalues))
        return 0.0 if child is None else child.value

    def total(self, *prefix: Any) -> float:
        """Sum over the children whose labels start with ``prefix``."""
        wanted = tuple(_label(v) for v in prefix)
        return sum(
            child.value
            for labelvalues, child in self.children.items()
            if labelvalues[: len(wanted)] == wanted
        )

    def _render_child(self, labelvalues, child) -> list[str]:
        suffix = _labels_suffix(self.labelnames, labelvalues)
        return [f"{self.name}{suffix} {_format_value(child.value)}"]


class _GaugeValue:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Gauge(MetricFamily):
    """Last-written value family (queue depths, occupancy, debt)."""

    type_name = "gauge"

    def _make_child(self) -> _GaugeValue:
        return _GaugeValue()

    def set(self, value: float) -> None:
        self.labels().set(value)

    def value(self, *labelvalues: Any) -> float:
        child = self.children.get(tuple(_label(v) for v in labelvalues))
        return 0.0 if child is None else child.value

    def _render_child(self, labelvalues, child) -> list[str]:
        suffix = _labels_suffix(self.labelnames, labelvalues)
        return [f"{self.name}{suffix} {_format_value(child.value)}"]


class HistogramValue:
    """One histogram child: fixed cumulative buckets + raw samples.

    The buckets serve the Prometheus exposition; the retained samples
    serve :meth:`Histogram.quantile`, the exact percentile every
    lifecycle view reports.
    """

    __slots__ = ("bounds", "bucket_counts", "total", "count", "samples")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +Inf bucket last
        self.total = 0.0
        self.count = 0
        self.samples: list[float] = []

    def observe(self, value: float) -> None:
        value = float(value)
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1
        self.samples.append(value)

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(le, cumulative count)`` pairs, ending with ``+Inf``."""
        pairs: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.bucket_counts):
            running += count
            pairs.append((bound, running))
        pairs.append((float("inf"), self.count))
        return pairs


def estimate_quantile_from_buckets(
    cumulative: list[tuple[float, int]], count: int, p: float
) -> float | None:
    """Linear interpolation inside the bucket holding the p-th sample."""
    if count == 0:
        return None
    rank = (p / 100.0) * count
    previous_bound = 0.0
    previous_cum = 0
    for bound, cum in cumulative:
        if cum >= rank:
            if bound == float("inf"):
                return previous_bound  # open-ended tail: best lower bound
            if cum == previous_cum:
                return bound
            fraction = (rank - previous_cum) / (cum - previous_cum)
            return previous_bound + fraction * (bound - previous_bound)
        previous_bound = bound
        previous_cum = cum
    return previous_bound


class Histogram(MetricFamily):
    """Fixed-bucket histogram family with exact-quantile retention."""

    type_name = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("bucket bounds must be strictly increasing")
        if bounds[-1] == float("inf"):
            bounds = bounds[:-1]  # +Inf is implicit
        self.bounds = bounds

    def _make_child(self) -> HistogramValue:
        return HistogramValue(self.bounds)

    def merged_samples(self, *prefix: Any) -> list[float]:
        """Raw samples across children whose labels start with ``prefix``
        (emission order within a child; order is irrelevant to the
        percentile estimator)."""
        wanted = tuple(_label(v) for v in prefix)
        merged: list[float] = []
        for labelvalues, child in self.children.items():
            if labelvalues[: len(wanted)] == wanted:
                merged.extend(child.samples)
        return merged

    def quantile(self, p: float, *prefix: Any) -> float | None:
        """Exact percentile over the samples of :meth:`merged_samples`."""
        return _percentile(self.merged_samples(*prefix), p)

    def _render_child(self, labelvalues, child: HistogramValue) -> list[str]:
        lines = []
        for bound, cum in child.cumulative_buckets():
            values = labelvalues + (_format_value(bound),)
            suffix = _labels_suffix(self.labelnames + ("le",), values)
            lines.append(f"{self.name}_bucket{suffix} {cum}")
        suffix = _labels_suffix(self.labelnames, labelvalues)
        lines.append(f"{self.name}_sum{suffix} {_format_value(child.total)}")
        lines.append(f"{self.name}_count{suffix} {child.count}")
        return lines


class MetricsRegistry:
    """A named set of metric families rendering to one exposition.

    Thread-safety: mutation happens under :attr:`lock` when driven by
    :class:`TelemetryCollector`; :meth:`render` takes the same lock, so
    a scrape racing the pump sees a consistent snapshot.
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        self.lock = threading.Lock()

    def register(self, family: MetricFamily) -> MetricFamily:
        if family.name in self._families:
            raise ValueError(f"duplicate metric family {family.name!r}")
        self._families[family.name] = family
        return family

    def counter(self, name: str, help: str, labelnames: tuple[str, ...] = ()) -> Counter:
        return self.register(Counter(name, help, labelnames))  # type: ignore[return-value]

    def gauge(self, name: str, help: str, labelnames: tuple[str, ...] = ()) -> Gauge:
        return self.register(Gauge(name, help, labelnames))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self.register(Histogram(name, help, labelnames, buckets))  # type: ignore[return-value]

    def render(self) -> str:
        """Prometheus text exposition format 0.0.4."""
        with self.lock:
            lines: list[str] = []
            for name in sorted(self._families):
                lines.extend(self._families[name].render())
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# exposition parsing (cli live, tests)
# ---------------------------------------------------------------------------
_LABEL_VALUE = r'"(?:[^"\\]|\\.)*"'
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r'(?:\{(?P<labels>(?:[^"}]|' + _LABEL_VALUE + r")*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_PAIR = re.compile(r"([a-zA-Z_][a-zA-Z0-9_]*)=(" + _LABEL_VALUE + ")")
_ESCAPE = re.compile(r"\\(.)")


def _unescape_label_value(quoted: str) -> str:
    """Undo :func:`_escape_label_value` in one left-to-right pass."""
    return _ESCAPE.sub(
        lambda match: "\n" if match.group(1) == "n" else match.group(1), quoted[1:-1]
    )


def parse_exposition(text: str) -> dict[str, list[tuple[dict[str, str], float]]]:
    """Parse Prometheus text back into ``name → [(labels, value)]``.

    The inverse of :meth:`MetricsRegistry.render`, used by the
    ``cli live`` dashboard and the exposition-grammar tests; raises
    ``ValueError`` on a malformed sample line.  Label values are quoted
    strings, so braces and escapes inside them are data, not grammar.
    """
    samples: dict[str, list[tuple[dict[str, str], float]]] = {}
    for line in text.split("\n"):
        if not line.strip() or line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"malformed exposition line: {line!r}")
        labels = {
            name: _unescape_label_value(quoted)
            for name, quoted in _LABEL_PAIR.findall(match.group("labels") or "")
        }
        raw = match.group("value")
        value = float("inf") if raw == "+Inf" else float(raw)
        samples.setdefault(match.group("name"), []).append((labels, value))
    return samples


# ---------------------------------------------------------------------------
# the lifecycle fold (DESIGN.md §14)
# ---------------------------------------------------------------------------
@dataclass
class TierSummary:
    """One serving tier's lifecycle row: counts and latency percentiles.

    :meth:`LifecycleFold.tier` fills the percentiles exactly,
    :func:`dashboard_views` estimates them from a scrape's buckets, and
    :func:`~repro.core.trace.summarize_events` adds the throughput over
    the tier's observed span.
    """

    tier: str
    admitted: int = 0
    completed: int = 0
    shed: int = 0
    cancelled: int = 0
    failed: int = 0
    throughput_rps: float | None = None
    p50_latency: float | None = None
    p95_latency: float | None = None
    p99_latency: float | None = None


@dataclass
class _TenantTally:
    """One tenant's terminal records in the tenant tier."""

    completed: int = 0
    shed: int = 0
    #: Cancelled or failed: counted in the tenant's submitted total.
    lost: int = 0
    latencies: list[float] = field(default_factory=list)


class LifecycleFold:
    """The one fold over admissions and terminal records.

    A terminal record is a ``complete``, ``shed``, ``cancel`` or
    ``fail`` with its tier, tenant, latency (completions) and reason
    (a shed's verdict, ``deadline`` when empty; a fail's fault kind).
    The fold writes the registry's lifecycle families — per-tier
    counts and reasons, the per-tier/SLO latency histogram, per-tenant
    completions, sheds, latency and token debt, the SLO burn rate — and
    its views read them back: :meth:`tier` and :meth:`tiers`.
    :meth:`tenant_rollups` reads a tally of the same records kept per
    raw tenant id, since exposition labels merge ids that print alike.

    ``tenant_tier`` is the serving tier whose records drive the tenant
    and burn-rate metrics (default ``"fleet"``, the tier that owns
    multi-tenant admission; a device-only run passes ``"device"``).
    Inner tiers re-announce the same request per replica, so folding
    every tier into the tenant rollup would double-count.  ``slo_of``
    maps a tenant to its SLO-class name (see :func:`slo_lookup`);
    without it tenants fall into the ``"unknown"`` class and no burn
    rate is derived.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        slo_of: Callable[[str | None], str] | None = None,
        tenant_tier: str = "fleet",
        latency_buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        if tenant_tier not in SERVING_TIERS:
            known = ", ".join(SERVING_TIERS)
            raise ValueError(f"unknown tenant tier {tenant_tier!r}; known: {known}")
        self.registry = registry if registry is not None else MetricsRegistry()
        self.slo_of = slo_of
        self.tenant_tier = tenant_tier
        #: Tenant-tier records per raw tenant id, for the rollups: the
        #: tenant families' labels merge ids that print alike (``None``
        #: and ``""``, ``1`` and ``"1"``), which admission keeps apart.
        self._tenants: dict[Any, _TenantTally] = {}
        #: SLO class → [tenant-tier admissions, tenant-tier sheds].
        self._burn: dict[str, list[int]] = {}
        r = self.registry
        self.admitted = r.counter(
            "repro_requests_admitted_total", "Requests admitted per serving tier.", ("tier",)
        )
        self.completed = r.counter(
            "repro_requests_completed_total", "Requests completed per serving tier.", ("tier",)
        )
        self.shed = r.counter(
            "repro_requests_shed_total",
            "Requests shed at admission, by tier and reason.",
            ("tier", "reason"),
        )
        self.cancelled = r.counter(
            "repro_requests_cancelled_total", "Requests cancelled per tier.", ("tier",)
        )
        self.failed = r.counter(
            "repro_requests_failed_total",
            "Requests failed per tier, by fault kind.",
            ("tier", "fault"),
        )
        self.latency = r.histogram(
            "repro_request_latency_seconds",
            "End-to-end latency of completed requests, by tier and SLO class.",
            ("tier", "slo"),
            buckets=latency_buckets,
        )
        self.tenant_completed = r.counter(
            "repro_tenant_completed_total", "Completed requests per tenant.", ("tenant",)
        )
        self.tenant_shed = r.counter(
            "repro_tenant_shed_total", "Shed requests per tenant, by reason.", ("tenant", "reason")
        )
        self.tenant_latency = r.histogram(
            "repro_tenant_latency_seconds",
            "End-to-end latency of completed requests, per tenant.",
            ("tenant",),
            buckets=latency_buckets,
        )
        self.tenant_token_debt = r.gauge(
            "repro_tenant_token_debt",
            "Token-bucket debt observed at the tenant's last rate-limit shed.",
            ("tenant",),
        )
        self.slo_burn_rate = r.gauge(
            "repro_slo_burn_rate",
            "Observed shed rate over the class shed bound (>1 = SLO burning).",
            ("slo",),
        )

    def _slo(self, tenant: str | None) -> str:
        return "unknown" if self.slo_of is None else self.slo_of(tenant)

    def _burn_count(self, tenant: str | None, index: int) -> None:
        slo = self._slo(tenant)
        counts = self._burn.setdefault(slo, [0, 0])
        counts[index] += 1
        slo_class = SLO_CLASSES.get(slo)
        if counts[0] and slo_class is not None and slo_class.shed_bound > 0:
            self.slo_burn_rate.labels(slo).set(counts[1] / counts[0] / slo_class.shed_bound)

    # -- the fold -------------------------------------------------------
    def admit(self, tier: str, tenant: str | None) -> None:
        """Fold one admission."""
        self.admitted.labels(tier).inc()
        if tier == self.tenant_tier:
            self._burn_count(tenant, 0)

    def terminal(
        self,
        kind: str,
        tier: str,
        tenant: str | None,
        latency: float | None = None,
        reason: str | None = None,
        debt: float | None = None,
    ) -> None:
        """Fold one terminal record.

        ``latency`` is a completion's admission-to-finish seconds
        (``None`` when unknown); ``debt`` is the token debt a
        rate-limit shed observed.
        """
        # The tenant's label and tally when the record is in tenant scope.
        label = tally = None
        if tier == self.tenant_tier:
            label = _label(tenant)
            tally = self._tenants.get(tenant)
            if tally is None:
                tally = self._tenants[tenant] = _TenantTally()
        if kind == "complete":
            self.completed.labels(tier).inc()
            if latency is not None:
                self.latency.labels(tier, self._slo(tenant)).observe(latency)
            if tally is not None:
                tally.completed += 1
                self.tenant_completed.labels(label).inc()
                if latency is not None:
                    tally.latencies.append(float(latency))
                    self.tenant_latency.labels(label).observe(latency)
        elif kind == "shed":
            reason = str(reason or "deadline")
            self.shed.labels(tier, reason).inc()
            if tally is not None:
                tally.shed += 1
                self.tenant_shed.labels(label, reason).inc()
                self._burn_count(tenant, 1)
                if debt is not None:
                    self.tenant_token_debt.labels(label).set(debt)
        else:
            if kind == "cancel":
                self.cancelled.labels(tier).inc()
            else:
                self.failed.labels(tier, str(reason or "unknown")).inc()
            if tally is not None:
                tally.lost += 1

    # -- views ----------------------------------------------------------
    def tier(self, tier: str) -> TierSummary:
        """One tier's counts and exact p50/p95/p99 latency."""
        samples = self.latency.merged_samples(tier)
        return TierSummary(
            tier=tier,
            admitted=int(self.admitted.value(tier)),
            completed=int(self.completed.value(tier)),
            shed=int(self.shed.total(tier)),
            cancelled=int(self.cancelled.value(tier)),
            failed=int(self.failed.total(tier)),
            p50_latency=_percentile(samples, 50),
            p95_latency=_percentile(samples, 95),
            p99_latency=_percentile(samples, 99),
        )

    def tiers(self) -> list[TierSummary]:
        """Rows of the serving tiers that admitted or ended a request."""
        rows = [self.tier(tier) for tier in SERVING_TIERS]
        return [
            row
            for row in rows
            if row.admitted or row.completed + row.shed + row.cancelled + row.failed
        ]

    def tenant_rollups(self, admission: FairAdmission) -> dict[str | None, TenantStats]:
        """Per-tenant rollups of the tenant tier, keyed by the raw tenant
        id as admission keys its states: one per tenant with a state or
        a record (a data-plane hit skips admission, so its tenant may
        have no state yet; the state supplies policy and token debt)."""
        stats: dict[str | None, TenantStats] = {}
        for tenant in dict.fromkeys([*admission.states, *self._tenants]):
            state = admission.state(tenant)
            tally = self._tenants.get(tenant, _TenantTally())
            submitted = tally.completed + tally.shed + tally.lost
            stats[tenant] = TenantStats(
                tenant=tenant,
                slo=state.policy.slo,
                weight=state.policy.weight,
                submitted=submitted,
                completed=tally.completed,
                shed=tally.shed,
                p50_latency=_percentile(tally.latencies, 50),
                p99_latency=_percentile(tally.latencies, 99),
                shed_rate=(tally.shed / submitted) if submitted else 0.0,
                token_debt=state.bucket.debt,
                shed_bound=state.policy.slo_class.shed_bound,
            )
        return stats


#: Event kinds that carry the lifecycle: the admit and the terminals.
_LIFECYCLE_KINDS = frozenset(("admit",) + TERMINAL_KINDS)


def lifecycle_key(event: Event) -> tuple[str, int | None, str | int | None]:
    """The key that pairs a request's admit with its terminal.

    Fleet lifecycle events ride the coordinator clock (the admit names
    no replica, the complete names the serving one), so the request
    alone keys the pairing; inner tiers pair within their replica's own
    axis.
    """
    tier = event.tier
    return (tier, None if tier == "fleet" else event.replica, event.request)


class EventFold:
    """The event adapter in front of a :class:`LifecycleFold`.

    Feeds each serving-tier admit and terminal event to the fold and
    pairs them by :func:`lifecycle_key`: a fleet ``complete`` carries its
    latency, an inner tier's is ``terminal.at − arrival`` on its
    replica's own clock (replicas' differing origins never mix).
    """

    def __init__(self, fold: LifecycleFold) -> None:
        self.fold = fold
        self._arrivals: dict[tuple[str, int | None, str | int | None], float] = {}

    def feed(self, event: Event) -> None:
        """Fold one event; all but serving-tier lifecycle events pass."""
        tier = event.tier
        if tier not in SERVING_TIERS or event.kind not in _LIFECYCLE_KINDS:
            return
        key = lifecycle_key(event)
        data = event.data
        if event.kind == "admit":
            self._arrivals[key] = float(data.get("arrival", event.at))
            self.fold.admit(tier, event.tenant)
            return
        arrival = self._arrivals.pop(key, None)
        latency = data.get("latency")
        if latency is None and arrival is not None:
            latency = event.at - arrival
        self.fold.terminal(
            event.kind,
            tier,
            event.tenant,
            latency=latency,
            reason=data.get("detail"),
            debt=data.get("debt"),
        )


def slo_lookup(tenancy) -> Callable[[str | None], str]:
    """Tenant → SLO-class-name mapping from a
    :class:`~repro.core.tenancy.TenancyConfig` (``policy_for``)."""

    def lookup(tenant: str | None) -> str:
        return tenancy.policy_for(tenant).slo

    return lookup


class TelemetryCollector:
    """Folds the §10 event stream into a :class:`MetricsRegistry`.

    The collector is populated *only* through :meth:`consume` — there
    is no side channel from the serving stack.  Lifecycle events go
    through an :class:`EventFold` into :attr:`lifecycle`, the registry's
    :class:`LifecycleFold` (``slo_of``, ``tenant_tier`` and
    ``latency_buckets`` configure it); every other event kind feeds the
    plane's own counters and gauges.  ``events_seen`` counts what was
    folded, so a live server can prove it missed nothing.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        slo_of: Callable[[str | None], str] | None = None,
        tenant_tier: str = "fleet",
        latency_buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        self.lifecycle = LifecycleFold(registry, slo_of, tenant_tier, latency_buckets)
        self.registry = self.lifecycle.registry
        self._lifecycle_events = EventFold(self.lifecycle)
        self.events_seen = 0
        r = self.registry
        self.events_total = r.counter(
            "repro_events_total", "Events observed, by kind and tier.", ("kind", "tier")
        )
        self.queue_depth = r.gauge(
            "repro_queue_depth", "Dispatch-queue depth after the last queue event.", ("tier",)
        )
        self.fused_occupancy = r.gauge(
            "repro_fused_occupancy", "Size of the most recent fused gang.", ("tier",)
        )
        self.fused_joins = r.counter(
            "repro_fused_joins_total", "Requests that joined a fused gang.", ("tier",)
        )
        self.steps = r.counter(
            "repro_steps_total", "Layer steps executed, by tier.", ("tier",)
        )
        self.fetches = r.counter(
            "repro_ssd_fetches_total", "SSD transfers issued, by tier.", ("tier",)
        )
        self.fetched_bytes = r.counter(
            "repro_ssd_fetched_bytes_total", "Bytes moved by SSD transfers.", ("tier",)
        )
        self.plane_ops = r.counter(
            "repro_plane_ops_total",
            "Weight-plane operations (attach / acquire / release).",
            ("op",),
        )
        self.cache_hits = r.counter(
            "repro_cache_hits_total",
            "Data-plane hits by mode (memo / coalesced / overlap).",
            ("tier", "mode"),
        )
        self.cache_evictions = r.counter(
            "repro_cache_evictions_total",
            "Data-plane evictions/invalidations, by scope and reason.",
            ("scope", "reason"),
        )
        self.faults = r.counter(
            "repro_faults_total", "Injected device faults fired, by kind.", ("kind",)
        )
        self.failovers = r.counter(
            "repro_failovers_total", "Faulted requests requeued onto healthy replicas."
        )
        self.hedges = r.counter(
            "repro_hedges_total", "Straggler hedges launched, by race outcome.", ("outcome",)
        )
        self.scale_actions = r.counter(
            "repro_scale_actions_total", "Autoscaler capacity changes, by action.", ("action",)
        )

    def consume(self, subscription: EventSubscription, limit: int | None = None) -> int:
        """Drain a subscription into the registry; returns events folded.

        The poll happens under the registry lock, so concurrent pumps (a
        scrape and the final drain) fold events in emission order.
        """
        with self.registry.lock:
            events = subscription.poll(limit)
            self.events_seen += len(events)
            for event in events:
                kind, tier, data = event.kind, event.tier, event.data
                self.events_total.labels(kind, tier).inc()
                if kind in _LIFECYCLE_KINDS:
                    self._lifecycle_events.feed(event)
                elif kind == "queue":
                    self.queue_depth.labels(tier).set(float(data.get("depth", 0)))
                elif kind == "fuse":
                    self.fused_joins.labels(tier).inc()
                    self.fused_occupancy.labels(tier).set(float(data.get("group_size", 0)))
                elif kind == "step":
                    self.steps.labels(tier).inc()
                elif kind == "fetch":
                    self.fetches.labels(tier).inc()
                    self.fetched_bytes.labels(tier).inc(float(data.get("nbytes", 0)))
                elif kind in ("attach", "acquire", "release"):
                    self.plane_ops.labels(kind).inc()
                elif kind == "cache_hit":
                    self.cache_hits.labels(tier, str(data.get("mode", "memo"))).inc()
                elif kind == "cache_evict":
                    self.cache_evictions.labels(
                        str(data.get("scope", "memo")), str(data.get("reason", "lru"))
                    ).inc()
                elif kind == "fault":
                    self.faults.labels(str(data.get("fault", "unknown"))).inc()
                elif kind == "failover":
                    self.failovers.inc()
                elif kind == "hedge":
                    self.hedges.labels("won" if data.get("won") else "lost").inc()
                elif kind == "scale":
                    self.scale_actions.labels(str(data.get("action", "unknown"))).inc()
                # "dispatch" carries no derived metric beyond repro_events_total.
        return len(events)


def dashboard_views(samples: dict[str, list[tuple[dict[str, str], float]]]) -> list[TierSummary]:
    """Fold a parsed exposition into per-tier dashboard rows.

    Works from the scrape alone — quantiles are bucket-estimated via
    :func:`estimate_quantile_from_buckets`, which is all a remote
    scraper can reconstruct without the raw samples.
    """
    views: dict[str, TierSummary] = {}

    def view(tier: str) -> TierSummary:
        if tier not in views:
            views[tier] = TierSummary(tier=tier)
        return views[tier]

    for name, attr in (
        ("repro_requests_admitted_total", "admitted"),
        ("repro_requests_completed_total", "completed"),
        ("repro_requests_cancelled_total", "cancelled"),
    ):
        for labels, value in samples.get(name, []):
            setattr(view(labels.get("tier", "?")), attr, int(value))
    for labels, value in samples.get("repro_requests_shed_total", []):
        view(labels.get("tier", "?")).shed += int(value)
    for labels, value in samples.get("repro_requests_failed_total", []):
        view(labels.get("tier", "?")).failed += int(value)
    buckets: dict[str, dict[float, int]] = {}
    for labels, value in samples.get("repro_request_latency_seconds_bucket", []):
        tier = labels.get("tier", "?")
        le = float(labels["le"])
        per_tier = buckets.setdefault(tier, {})
        per_tier[le] = per_tier.get(le, 0) + int(value)
    for tier, per_tier in buckets.items():
        cumulative = sorted(per_tier.items())
        count = cumulative[-1][1] if cumulative else 0
        row = view(tier)
        row.p50_latency = estimate_quantile_from_buckets(cumulative, count, 50)
        row.p95_latency = estimate_quantile_from_buckets(cumulative, count, 95)
        row.p99_latency = estimate_quantile_from_buckets(cumulative, count, 99)
    return [views[tier] for tier in sorted(views)]


__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "EventFold",
    "Gauge",
    "Histogram",
    "HistogramValue",
    "LifecycleFold",
    "MetricFamily",
    "MetricsRegistry",
    "TelemetryCollector",
    "TierSummary",
    "dashboard_views",
    "estimate_quantile_from_buckets",
    "lifecycle_key",
    "parse_exposition",
    "slo_lookup",
]
