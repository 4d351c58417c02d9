"""Byte-accurate memory accounting for the device simulator.

The paper's memory claims (Figures 9, 11b/c, 13, 15, 16) are statements
about *which buffers are resident when*: full weight sets vs. two
streamed layers, full embedding tables vs. an LRU slice, monolithic
intermediate tensors vs. one chunk's worth.  ``MemoryTracker`` records
named allocations and frees against the shared :class:`~repro.device.clock.VirtualClock`
and exposes exactly the statistics the paper plots — a usage timeline,
the peak, and the time-weighted average.

Categories let experiments break the footprint down the way Figure 16
does (weights / embedding / intermediate / hidden-state / other).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .clock import VirtualClock

MiB = 1024 * 1024
GiB = 1024 * MiB

#: Canonical allocation categories used across the repo.
CATEGORY_WEIGHTS = "weights"
CATEGORY_EMBEDDING = "embedding"
CATEGORY_INTERMEDIATE = "intermediate"
CATEGORY_HIDDEN = "hidden"
CATEGORY_KV = "kv"
CATEGORY_OTHER = "other"


class MemoryError_(RuntimeError):
    """Raised on invalid allocation activity (double free, unknown name)."""


class OutOfMemoryError(MemoryError_):
    """Raised when an allocation would exceed the device's memory budget."""

    def __init__(self, requested: int, in_use: int, budget: int, name: str) -> None:
        self.requested = requested
        self.in_use = in_use
        self.budget = budget
        self.name = name
        super().__init__(
            f"OOM allocating {requested / MiB:.1f} MiB for {name!r}: "
            f"{in_use / MiB:.1f} MiB already in use of {budget / MiB:.1f} MiB budget"
        )


@dataclass
class TimelinePoint:
    """One step of the memory-usage staircase."""

    time: float
    in_use: int


@dataclass
class MemoryStats:
    """Summary statistics over a tracked run."""

    peak_bytes: int
    avg_bytes: float
    final_bytes: int
    peak_by_category: dict[str, int] = field(default_factory=dict)

    @property
    def peak_mib(self) -> float:
        return self.peak_bytes / MiB

    @property
    def avg_mib(self) -> float:
        return self.avg_bytes / MiB


class MemoryTracker:
    """Tracks named allocations against a virtual clock.

    The staircase is kept as parallel sequences — ``_timeline`` holds
    each point's instant and ``_levels`` the bytes in use from then on,
    and every category keeps its own pair — so recording an event
    appends two numbers instead of building point objects.
    :class:`TimelinePoint` records are made only when a caller asks
    for a timeline.

    Parameters
    ----------
    clock:
        The shared simulation clock; allocation events are stamped with
        ``clock.now``.
    budget_bytes:
        Optional hard memory budget.  When set, an allocation pushing
        usage past the budget raises :class:`OutOfMemoryError` — this is
        how the reproduction recreates the paper's OOM entries for
        Qwen3-4B/8B under vanilla HF on 8 GiB devices.
    """

    def __init__(self, clock: VirtualClock, budget_bytes: int | None = None) -> None:
        self.clock = clock
        self.budget_bytes = budget_bytes
        #: name -> (nbytes, category) of every live allocation.
        self._live: dict[str, tuple[int, str]] = {}
        self._in_use = 0
        self._per_category: dict[str, int] = {}
        self._peak_by_category: dict[str, int] = {}
        self._timeline: list[float] = [clock.now]
        self._levels: list[int] = [0]
        self._category_timelines: dict[str, tuple[list[float], list[int]]] = {}
        self._peak = 0

    # ------------------------------------------------------------------
    # allocation API
    # ------------------------------------------------------------------
    def alloc(self, name: str, nbytes: int, category: str = CATEGORY_OTHER) -> None:
        """Record an allocation of ``nbytes`` under ``name``."""
        in_use, level = self._take(name, nbytes, category)
        self._record(in_use, category, level)

    def transients(
        self, name: str, nbytes: int, category: str, duration: float, count: int
    ) -> None:
        """Replay ``count`` rounds of ``alloc(name, nbytes, category)``,
        ``clock.advance(duration)``, ``free(name)``, bit for bit.

        A layer's run of equal chunks is charged this way.  Every round
        starts from the state before the run, so the first round's
        checks, which raise before anything changes, cover them all.
        The clock takes ``count`` separate additions, and every event
        goes through :meth:`_record`, so same-instant points are
        overwritten in the same order.  ``count <= 0`` changes nothing.
        """
        if count <= 0:
            return
        in_use, level = self._take(name, nbytes, category)
        base_in_use, base_level = in_use - nbytes, level - nbytes
        clock, record = self.clock, self._record
        record(in_use, category, level)
        clock.advance(duration)
        for _ in range(count - 1):
            record(base_in_use, category, base_level)
            record(in_use, category, level)
            clock.advance(duration)
        del self._live[name]
        self._in_use = base_in_use
        self._per_category[category] = base_level
        record(base_in_use, category, base_level)

    def _take(self, name: str, nbytes: int, category: str) -> tuple[int, int]:
        """Check and book an allocation; return the bytes in use after it
        and its category's level, for the caller to record."""
        if nbytes < 0:
            raise MemoryError_(f"negative allocation size {nbytes} for {name!r}")
        live = self._live
        if name in live:
            raise MemoryError_(f"allocation name {name!r} already live")
        in_use = self._in_use + nbytes
        if self.budget_bytes is not None and in_use > self.budget_bytes:
            raise OutOfMemoryError(nbytes, self._in_use, self.budget_bytes, name)
        live[name] = (nbytes, category)
        self._in_use = in_use
        if in_use > self._peak:
            self._peak = in_use
        level = self._per_category.get(category, 0) + nbytes
        self._per_category[category] = level
        # -1 so a category's first allocation, even of zero bytes, has a peak.
        if level > self._peak_by_category.get(category, -1):
            self._peak_by_category[category] = level
        return in_use, level

    def free(self, name: str) -> None:
        """Release the allocation registered under ``name``."""
        entry = self._live.pop(name, None)
        if entry is None:
            raise MemoryError_(f"free of unknown allocation {name!r}")
        nbytes, category = entry
        self._in_use -= nbytes
        level = self._per_category[category] - nbytes
        self._per_category[category] = level
        self._record(self._in_use, category, level)

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
        entry = self._live.get(name)
        return entry[0] if entry else 0

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
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
        return list(map(TimelinePoint, self._timeline, self._levels))

    def category_timeline(self, category: str) -> list[TimelinePoint]:
        """Per-category staircase (the stacked curves of Figures 9/16).

        Returns an empty list for categories never allocated.
        """
        times, levels = self._category_timelines.get(category, ((), ()))
        return list(map(TimelinePoint, times, levels))

    def stats(self) -> MemoryStats:
        """Peak / time-weighted average / final usage over the run."""
        return MemoryStats(
            peak_bytes=self._peak,
            avg_bytes=self._time_weighted_average(),
            final_bytes=self._in_use,
            peak_by_category=dict(self._peak_by_category),
        )

    def _time_weighted_average(self) -> float:
        times, levels = self._timeline, self._levels
        span = times[-1] - times[0]
        if len(times) < 2 or span <= 0:
            return float(levels[-1])
        # One left-to-right accumulation: a pairwise sum (np.sum, np.dot)
        # or a compensated one (math.fsum) would change the result's bits.
        total = 0.0
        for level, start, end in zip(levels, times, times[1:]):
            total += level * (end - start)
        return total / span

    def _record(self, in_use: int, category: str, level: int) -> None:
        """Append the event's point to the staircase and its category's.

        Events at an instant that already has a point overwrite it with
        the final state, so each staircase stays a function of time.
        """
        now = self.clock.now
        times = self._timeline
        if times[-1] == now:
            self._levels[-1] = in_use
        else:
            times.append(now)
            self._levels.append(in_use)
        series = self._category_timelines.get(category)
        if series is None:
            self._category_timelines[category] = ([now], [level])
            return
        times, levels = series
        if times[-1] == now:
            levels[-1] = level
        else:
            times.append(now)
            levels.append(level)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryTracker(in_use={self._in_use / MiB:.1f} MiB, "
            f"peak={self._peak / MiB:.1f} MiB, live={len(self._live)})"
        )
