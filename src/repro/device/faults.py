"""Deterministic fault injection on the simulated device (DESIGN.md §9).

Every tier of the serving stack shares one discrete-event virtual
clock, so hardware faults can be *scheduled* the same way work is: a
:class:`FaultPlan` is a list of clock-stamped :class:`FaultEvent`\\ s,
and a :class:`FaultInjector` installed on a device fires each event
exactly once, at a deterministic instant, every replay.  Four fault
kinds model the failure modes the resilience plane must survive:

* ``ssd_read_error`` — the next SSD read completing at or after the
  event instant fails; the waiting caller sees a typed
  :class:`DeviceFault` instead of data.
* ``bandwidth_degradation`` — SSD transfer bandwidth drops to
  ``fraction`` of nominal for a ``duration`` window (thermal
  throttling, a competing tenant saturating the link).
* ``replica_stall`` — the device freezes for ``duration`` seconds at
  the next task step boundary (GC pause, power-state transition).
* ``replica_crash`` — at the next step boundary every in-flight task
  on the device fails with a :class:`DeviceFault`, and the serving
  tier fails the rest of that drain.  Like every event it fires once:
  the device keeps no dead state, so the next drain is served (a
  restart).  The fleet charges the restart as
  ``ResilienceConfig.cooldown_s`` out of routing.

Faults surface only at layer boundaries — the same preemption points
the scheduler uses — so a failing pass releases its shared
weight-plane refcounts exactly like a cancelled one (DESIGN.md §8),
and the survivors keep serving.  An empty plan injects nothing and
changes *nothing*: execution under ``FaultPlan()`` is byte-identical
to execution without one (asserted in ``tests/test_resilience_plane.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

#: SSD read completes with an uncorrectable error.
FAULT_SSD_READ_ERROR = "ssd_read_error"
#: SSD bandwidth degraded to a fraction of nominal for a window.
FAULT_BANDWIDTH_DEGRADATION = "bandwidth_degradation"
#: Device freezes for a window at its next step boundary.
FAULT_REPLICA_STALL = "replica_stall"
#: Device fails at its next step boundary: the drain in flight fails, the
#: next one is served.
FAULT_REPLICA_CRASH = "replica_crash"

#: Every fault kind a :class:`FaultEvent` may carry.
FAULT_KINDS = (
    FAULT_SSD_READ_ERROR,
    FAULT_BANDWIDTH_DEGRADATION,
    FAULT_REPLICA_STALL,
    FAULT_REPLICA_CRASH,
)


class DeviceFault(RuntimeError):
    """A hardware fault surfaced to the execution layer.

    ``kind`` is one of :data:`FAULT_KINDS`, ``at`` the instant the
    fault surfaced on the raising device's clock, ``detail`` a
    human-readable hint (the failing transfer tag, the dying request).
    """

    def __init__(self, kind: str, at: float, detail: str = "") -> None:
        super().__init__(f"{kind} at t={at:.6f}" + (f" ({detail})" if detail else ""))
        self.kind = kind
        self.at = at
        self.detail = detail


@dataclass(frozen=True)
class FaultEvent:
    """One clock-scheduled fault.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    at:
        Instant on the governing clock (the fleet clock when the event
        rides in a fleet-installed plan, the device clock when
        installed directly) at or after which the fault fires.
    replica:
        Fleet tier: index of the replica the event targets (``None``
        targets every replica).  Ignored on direct device installs.
    duration:
        Stall length / degradation-window length in seconds.
    fraction:
        ``bandwidth_degradation`` only: the degraded bandwidth as a
        fraction of nominal, in ``(0, 1)``.
    """

    kind: str
    at: float
    replica: int | None = None
    duration: float = 0.0
    fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            known = ", ".join(FAULT_KINDS)
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {known}")
        if self.at < 0:
            raise ValueError("fault instants must be >= 0")
        if self.duration < 0:
            raise ValueError("fault duration must be >= 0")
        if self.kind in (FAULT_BANDWIDTH_DEGRADATION, FAULT_REPLICA_STALL):
            if self.duration <= 0:
                raise ValueError(f"{self.kind} needs a positive duration")
        if self.kind == FAULT_BANDWIDTH_DEGRADATION and not 0 < self.fraction < 1:
            raise ValueError("degraded bandwidth fraction must lie in (0, 1)")


class FaultPlan:
    """A deterministic, replayable schedule of fault events.

    The plan is pure data — installing it on a device (or handing it
    to a :class:`~repro.core.fleet.FleetService`) compiles it into
    per-device :class:`FaultInjector`\\ s.  Replaying the same plan
    against the same workload reproduces the same failure history,
    byte for byte, which is what makes resilience behaviour testable.
    """

    __slots__ = ("events",)

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        self.events: tuple[FaultEvent, ...] = tuple(events)

    def __repr__(self) -> str:
        return f"FaultPlan({len(self.events)} events)"

    @property
    def empty(self) -> bool:
        return not self.events

    def for_replica(self, index: int) -> tuple[FaultEvent, ...]:
        """The events targeting replica ``index`` (or every replica)."""
        return tuple(
            event
            for event in self.events
            if event.replica is None or event.replica == index
        )


class FaultInjector:
    """Per-device runtime of a fault plan.

    Holds the device's share of the plan with every instant already
    rebased onto the device's own clock (``origin`` maps plan time to
    local time).  Point events (read error, stall, crash) fire once —
    the first consult at or after their instant consumes them — while
    degradation windows stay active for their whole duration.  Fired
    events are recorded in :attr:`fired` for observability.
    """

    def __init__(self, events: Sequence[FaultEvent], origin: float = 0.0) -> None:
        rebased = sorted(
            (
                FaultEvent(
                    kind=event.kind,
                    at=event.at + origin,
                    replica=event.replica,
                    duration=event.duration,
                    fraction=event.fraction,
                )
                for event in events
            ),
            key=lambda event: event.at,
        )
        self._point: dict[str, list[FaultEvent]] = {
            FAULT_SSD_READ_ERROR: [],
            FAULT_REPLICA_STALL: [],
            FAULT_REPLICA_CRASH: [],
        }
        self._windows: list[FaultEvent] = []
        for event in rebased:
            if event.kind == FAULT_BANDWIDTH_DEGRADATION:
                self._windows.append(event)
            else:
                self._point[event.kind].append(event)
        self.fired: list[FaultEvent] = []
        #: Observability sink (DESIGN.md §10); ``None`` observes nothing.
        self.events = None
        self.events_replica: int | None = None

    @property
    def pending_events(self) -> int:
        """Point events not yet fired (windows never count)."""
        return sum(len(queue) for queue in self._point.values())

    def bandwidth_fraction(self, at: float) -> float:
        """The SSD bandwidth multiplier in effect at instant ``at``.

        Overlapping windows compose multiplicatively — two tenants
        each halving the link leave a quarter.
        """
        fraction = 1.0
        for event in self._windows:
            if event.at <= at < event.at + event.duration:
                fraction *= event.fraction
        return fraction

    def _pop(self, kind: str, at: float) -> FaultEvent | None:
        queue = self._point[kind]
        if queue and queue[0].at <= at:
            event = queue.pop(0)
            self.fired.append(event)
            if self.events is not None:
                self.events.emit(
                    "fault",
                    at=at,
                    tier="device",
                    replica=self.events_replica,
                    fault=event.kind,
                    scheduled_at=event.at,
                    duration=event.duration,
                )
            return event
        return None

    def pop_read_error(self, at: float) -> FaultEvent | None:
        """Consume a due read-error event, if any (one-shot)."""
        return self._pop(FAULT_SSD_READ_ERROR, at)

    def pop_stall(self, at: float) -> FaultEvent | None:
        """Consume a due stall event, if any (one-shot)."""
        return self._pop(FAULT_REPLICA_STALL, at)

    def pop_crash(self, at: float) -> FaultEvent | None:
        """Consume a due crash event, if any (one-shot)."""
        return self._pop(FAULT_REPLICA_CRASH, at)
