"""Fleet-shared semantic data plane (DESIGN.md §12).

PR 3's :class:`~repro.core.streaming.WeightPlane` removed redundant
*weight* reads across concurrent passes; this module removes the same
redundancy from the *inputs*.  At fleet scale the request stream is
Zipf-skewed — users repeat queries, share candidate chunks and re-embed
the same tokens — so a fleet-shared cache plane over semantic selection
data pays for itself at modest overlap.  Three layers, cheapest first:

1. **Request-level memoization** — a canonical fingerprint of (model,
   query, candidate set, k, sampling/threshold config) short-circuits a
   request that is byte-identical to one already completed (memo hit)
   or still in flight (the follower *attaches* to the leader's pending
   result, exactly like :class:`~repro.core.streaming.PlanePass`
   attach).  A hit never occupies a scheduler slot.
2. **Partial-overlap candidate reuse** — per-(model, query, candidate)
   score entries let a request sharing only *some* candidate rows skip
   the shared rows and run a reduced pass over the residue.  This is
   exact by construction: candidate rows are scored independently
   (:class:`~repro.model.semantics.ScoreDynamics` keys each trajectory
   on (model_seed, uid, relevance, layer), never on batch
   composition), so cached rows make the selection algebra a pure
   scalar computation and only residue rows need the model forward.
   The final selection is recovered by a zero-cost full-batch replay
   on a shadow engine (`SemanticSelectionService.replay_selection`),
   byte-identical to a full serving pass by the repo's cross-tier
   determinism.
3. **Fleet-shared embedding residency** — :class:`SharedEmbeddingCache`
   promotes the per-engine §4.4 row cache to plane scope with
   refcounted pins, so a row any replica faulted in stays resident for
   the whole fleet and cannot be evicted mid-pass under a reader.

Invalidation is epoch-keyed: threshold recalibration (§4.1 consensus
maintenance) bumps the plane epoch, which purges every memo and row
entry in one sweep (fingerprints embed the epoch, so stale entries are
unreachable even before the purge).  The plane publishes ``cache_hit``
and ``cache_evict`` events into the §10 event log and mirrors
:class:`~repro.core.streaming.PlaneStats` with :class:`DataPlaneStats`.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass, replace
from hashlib import blake2b
from typing import Any

import numpy as np

from ..device.executor import DeviceExecutor
from ..device.memory import CATEGORY_EMBEDDING
from ..model.transformer import CandidateBatch
from .embedding_cache import CacheLookup, LRURows
from .events import EVENT_CACHE_EVICT, EVENT_CACHE_HIT, EventLog


def clone_result(result: Any) -> Any:
    """Deep-enough copy of a ``RerankResult`` for cache hand-out.

    Hits and followers each receive their own index/score arrays so a
    caller mutating its selection cannot corrupt the memo entry (or a
    sibling's response).  Scalars are immutable; ``prune_events`` is
    shallow-copied (events are append-only records).
    """
    return replace(
        result,
        top_indices=np.array(result.top_indices, copy=True),
        top_scores=np.array(result.top_scores, copy=True),
        prune_events=list(result.prune_events),
    )


# ---------------------------------------------------------------------------
# configuration & statistics
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class DataPlaneConfig:
    """Tunables for the :class:`DataPlane`."""

    #: LRU capacity of the request-level memo (completed results).
    max_entries: int = 256
    #: LRU capacity of the per-candidate row directory that drives
    #: partial-overlap reuse.
    max_row_entries: int = 65536
    #: Minimum shared-row fraction for the overlap path to engage; below
    #: it a reduced pass saves too little to be worth the replay.
    min_overlap: float = 0.25
    #: Layer 1+2 toggle: request memoization and in-flight coalescing.
    memoize: bool = True
    #: Layer 2 toggle: partial-overlap candidate reuse.
    overlap_reuse: bool = True

    def __post_init__(self) -> None:
        if self.max_entries <= 0 or self.max_row_entries <= 0:
            raise ValueError("cache capacities must be positive")
        if not 0.0 < self.min_overlap <= 1.0:
            raise ValueError("min_overlap must lie in (0, 1]")


@dataclass
class DataPlaneStats:
    """Counters mirroring :class:`~repro.core.streaming.PlaneStats`.

    ``seconds_saved`` is virtual service time the plane kept off the
    device clocks; ``bytes_saved`` is SSD traffic (weight sweeps +
    embedding misses) not re-read thanks to the plane.
    """

    requests: int = 0
    memo_hits: int = 0
    coalesced: int = 0
    overlap_hits: int = 0
    misses: int = 0
    shared_rows: int = 0
    residue_rows: int = 0
    bytes_saved: int = 0
    seconds_saved: float = 0.0
    evictions: int = 0
    invalidations: int = 0
    redispatched: int = 0
    epoch: int = 0
    memo_entries: int = 0
    row_entries: int = 0

    @property
    def hits(self) -> int:
        """Every request the plane answered without a full pass."""
        return self.memo_hits + self.coalesced + self.overlap_hits

    @property
    def hit_rate(self) -> float | None:
        """Hit fraction, or ``None`` for a plane that saw no requests
        (mirrors the FleetStats empty-sample helpers)."""
        if self.requests == 0:
            return None
        return self.hits / self.requests


class _MemoEntry:
    """One completed result held by the request-level memo."""

    __slots__ = ("result", "service_seconds", "weight_bytes")

    def __init__(self, result: Any, service_seconds: float, weight_bytes: int) -> None:
        self.result = result
        self.service_seconds = service_seconds
        self.weight_bytes = weight_bytes


class _PendingEntry:
    """An in-flight leader and the followers attached to its result."""

    __slots__ = ("leader", "followers")

    def __init__(self, leader: Any) -> None:
        self.leader = leader
        self.followers: list[tuple[Any, float]] = []


@dataclass
class AdmitDecision:
    """What the plane decided for one admitted request.

    ``kind`` is ``"hit"`` (memoized result attached, never reaches a
    scheduler), ``"coalesced"`` (attached to an in-flight leader's
    pending result) or ``"leader"`` (must run; ``shared``/``residue``
    carry the partial-overlap plan when layer 2 engaged).
    """

    kind: str
    result: Any = None
    service_seconds: float = 0.0
    weight_bytes: int = 0
    shared: np.ndarray | None = None
    residue: np.ndarray | None = None


# ---------------------------------------------------------------------------
# the plane
# ---------------------------------------------------------------------------
class DataPlane:
    """Fleet-shared memo + candidate-row cache (DESIGN.md §12).

    The plane is a passive directory: it never touches a clock or a
    scheduler.  Its one owner, :class:`~repro.core.fleet.FleetService`,
    drives it through four calls — :meth:`fingerprint`, :meth:`admit`,
    :meth:`complete`, :meth:`invalidate` — and stays responsible for
    serving leaders and resolving follower outcomes.
    Follower payloads are opaque to the plane.
    """

    def __init__(
        self,
        config: DataPlaneConfig | None = None,
        *,
        model_key: str = "",
        threshold: float | None = None,
    ) -> None:
        self.config = config or DataPlaneConfig()
        self.model_key = model_key
        self.epoch = 0
        self._threshold = threshold
        self._memo: OrderedDict[str, _MemoEntry] = OrderedDict()
        self._rows: OrderedDict[bytes, None] = OrderedDict()
        self._pending: dict[str, _PendingEntry] = {}
        self._stats = DataPlaneStats()
        self.events: EventLog | None = None

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def attach_event_log(self, log: EventLog | None) -> None:
        self.events = log

    def _emit(self, kind: str, at: float, request: Any = None, **data: Any) -> None:
        if self.events is None:
            return
        self.events.emit(kind, at=at, tier="fleet", request=request, **data)

    def stats(self) -> DataPlaneStats:
        """A snapshot of the counters plus current directory sizes."""
        return replace(
            self._stats,
            epoch=self.epoch,
            memo_entries=len(self._memo),
            row_entries=len(self._rows),
        )

    # ------------------------------------------------------------------
    # fingerprints
    # ------------------------------------------------------------------
    def fingerprint(
        self,
        batch: CandidateBatch,
        k: int,
        *,
        threshold: float,
        sample_rate: float | None = None,
    ) -> str:
        """Canonical fingerprint of one request's full semantic identity.

        Covers the model (name + seed via ``model_key``), the plane
        epoch, every selection-relevant config scalar (k, dispersion
        threshold, sampling rate) and the byte-exact candidate batch.
        The query is implicitly covered: ``batch_pairs`` concatenates
        the query tokens into every candidate row.
        """
        h = blake2b(digest_size=16)
        h.update(self.model_key.encode())
        h.update(struct.pack("<qqd", self.epoch, int(k), float(threshold)))
        h.update(repr(sample_rate).encode())
        for name in ("tokens", "lengths", "uids", "relevance"):
            h.update(np.ascontiguousarray(getattr(batch, name)).tobytes())
        return h.hexdigest()

    def row_keys(self, batch: CandidateBatch) -> list[bytes]:
        """Per-(model, query, candidate) key for each batch row.

        No epoch: the row directory is purged wholesale on epoch bumps,
        so membership alone implies epoch validity.
        """
        tokens = np.ascontiguousarray(batch.tokens)
        keys: list[bytes] = []
        for i in range(batch.size):
            h = blake2b(digest_size=16)
            h.update(self.model_key.encode())
            h.update(tokens[i].tobytes())
            h.update(
                struct.pack(
                    "<qqd",
                    int(batch.lengths[i]),
                    int(batch.uids[i]),
                    float(batch.relevance[i]),
                )
            )
            keys.append(h.digest())
        return keys

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def admit(
        self,
        fp: str,
        batch: CandidateBatch,
        *,
        payload: Any = None,
        at: float = 0.0,
        request: Any = None,
    ) -> AdmitDecision:
        """Route one request through the plane.

        ``payload`` is the owner's opaque handle (e.g. the FleetRequest)
        stored on pending entries so :meth:`complete`/:meth:`invalidate`
        can hand followers back for resolution or re-dispatch.
        """
        stats = self._stats
        stats.requests += 1

        if self.config.memoize:
            entry = self._memo.get(fp)
            if entry is not None:
                self._memo.move_to_end(fp)
                stats.memo_hits += 1
                stats.seconds_saved += entry.service_seconds
                stats.bytes_saved += entry.weight_bytes
                self._emit(EVENT_CACHE_HIT, at, request=request, mode="memo", fp=fp)
                return AdmitDecision(
                    kind="hit",
                    result=clone_result(entry.result),
                    service_seconds=entry.service_seconds,
                    weight_bytes=entry.weight_bytes,
                )
            pending = self._pending.get(fp)
            if pending is not None:
                pending.followers.append((payload, at))
                stats.coalesced += 1
                self._emit(
                    EVENT_CACHE_HIT, at, request=request, mode="coalesced", fp=fp
                )
                return AdmitDecision(kind="coalesced")
            self._pending[fp] = _PendingEntry(leader=payload)

        decision = AdmitDecision(kind="leader")
        if self.config.overlap_reuse:
            plan = self._overlap_plan(batch)
            if plan is not None:
                decision.shared, decision.residue = plan
                stats.overlap_hits += 1
                stats.shared_rows += int(decision.shared.size)
                stats.residue_rows += int(decision.residue.size)
                self._emit(
                    EVENT_CACHE_HIT,
                    at,
                    request=request,
                    mode="overlap",
                    fp=fp,
                    shared=int(decision.shared.size),
                    residue=int(decision.residue.size),
                )
                return decision
        stats.misses += 1
        return decision

    def _overlap_plan(
        self, batch: CandidateBatch
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Split a batch into (shared, residue) row positions, or None
        when too few rows are cached to clear ``min_overlap``."""
        if not self._rows or batch.size == 0:
            return None
        keys = self.row_keys(batch)
        shared = [i for i, key in enumerate(keys) if key in self._rows]
        if not shared or len(shared) < self.config.min_overlap * batch.size:
            return None
        shared_set = set(shared)
        residue = [i for i in range(batch.size) if i not in shared_set]
        for i in shared:
            self._rows.move_to_end(keys[i])
        return (
            np.asarray(shared, dtype=np.int64),
            np.asarray(residue, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # completion / invalidation
    # ------------------------------------------------------------------
    def complete(
        self,
        fp: str,
        batch: CandidateBatch,
        result: Any,
        *,
        service_seconds: float,
        weight_bytes: int,
        at: float,
        request: Any = None,
    ) -> list[tuple[Any, float]]:
        """A leader finished: memoize, index its rows, hand back the
        followers (as ``(payload, attached_at)``) for resolution.

        Each resolved follower's savings are the leader's full cost —
        they would each have run the identical pass."""
        pending = self._pending.pop(fp, None)
        followers = pending.followers if pending is not None else []
        stats = self._stats
        if self.config.memoize:
            self._memo[fp] = _MemoEntry(
                clone_result(result), service_seconds, weight_bytes
            )
            self._memo.move_to_end(fp)
            evicted = 0
            while len(self._memo) > self.config.max_entries:
                self._memo.popitem(last=False)
                evicted += 1
            if evicted:
                stats.evictions += evicted
                self._emit(
                    EVENT_CACHE_EVICT, at, request=request,
                    scope="memo", count=evicted, reason="lru",
                )
        if self.config.overlap_reuse:
            for key in self.row_keys(batch):
                self._rows[key] = None
                self._rows.move_to_end(key)
            evicted = 0
            while len(self._rows) > self.config.max_row_entries:
                self._rows.popitem(last=False)
                evicted += 1
            if evicted:
                stats.evictions += evicted
                self._emit(
                    EVENT_CACHE_EVICT, at, request=request,
                    scope="rows", count=evicted, reason="lru",
                )
        for _payload, _attached in followers:
            stats.seconds_saved += service_seconds
            stats.bytes_saved += weight_bytes
        return followers

    def invalidate(
        self, fp: str, *, at: float, reason: str, request: Any = None
    ) -> list[tuple[Any, float]]:
        """A leader died (shed / cancelled / faulted): drop the pending
        entry so the failure never poisons the memo, and hand the
        followers back for re-dispatch."""
        pending = self._pending.pop(fp, None)
        if pending is None:
            return []
        stats = self._stats
        stats.invalidations += 1
        stats.redispatched += len(pending.followers)
        self._emit(
            EVENT_CACHE_EVICT, at, request=request,
            scope="pending", reason=reason, followers=len(pending.followers),
        )
        return pending.followers

    def note_saved(self, seconds: float, nbytes: int) -> None:
        """Owner-reported savings (the overlap path's reduced pass)."""
        self._stats.seconds_saved += seconds
        self._stats.bytes_saved += nbytes

    # ------------------------------------------------------------------
    # invalidation epochs
    # ------------------------------------------------------------------
    def on_threshold(self, threshold: float, *, at: float = 0.0) -> None:
        """Threshold recalibration hook: a changed consensus threshold
        bumps the epoch (stale scores were selected under different
        pruning behaviour — fingerprints already embed the threshold,
        the bump frees the memory and makes the purge observable)."""
        if self._threshold is not None and threshold != self._threshold:
            self.bump_epoch(at=at, reason="threshold")
        self._threshold = threshold

    def bump_epoch(self, *, at: float = 0.0, reason: str = "epoch") -> None:
        """Advance the model/config epoch, purging memo + row entries.

        Pending leaders are left untouched: they complete against their
        own fingerprint and must still resolve their followers (their
        results stay exact — the epoch only gates *reuse* by later
        requests, which fingerprint under the new epoch)."""
        purged = len(self._memo) + len(self._rows)
        self._memo.clear()
        self._rows.clear()
        self.epoch += 1
        self._stats.invalidations += purged
        self._emit(
            EVENT_CACHE_EVICT, at, scope="epoch",
            count=purged, reason=reason, epoch=self.epoch,
        )


# ---------------------------------------------------------------------------
# fleet-shared embedding residency (layer 3)
# ---------------------------------------------------------------------------
class EmbeddingPin:
    """A pass's refcount on the rows it resolved; release at pass end.

    Double-release safe, and released automatically by the engine on
    both the normal and the fault/cancel teardown paths."""

    __slots__ = ("_plane", "_tokens")

    def __init__(self, plane: "SharedEmbeddingCache", tokens: np.ndarray) -> None:
        self._plane = plane
        self._tokens = tokens

    def release(self) -> None:
        if self._tokens is not None:
            self._plane._release(self._tokens)
            self._tokens = None


class _PinnedRows(LRURows):
    """:class:`LRURows` plus a per-token refcount (0: evictable)."""

    def __init__(self) -> None:
        super().__init__()
        self.refs = np.zeros(0, dtype=np.int32)
        self.pinned = 0  # resident rows with a nonzero refcount

    def _grow(self, tokens: int) -> None:
        super()._grow(tokens)
        self.refs = np.concatenate([self.refs, np.zeros(tokens - self.refs.size, dtype=np.int32)])

    def pin(self, tokens: np.ndarray) -> None:
        """Add a reference to each of the distinct ``tokens``."""
        self.pinned += int(np.count_nonzero(self.refs[tokens] == 0))
        self.refs[tokens] += 1

    def unpin(self, tokens: np.ndarray) -> None:
        """Drop a reference from each of the distinct ``tokens`` that has one."""
        held = tokens[self.refs[tokens] > 0]
        self.refs[held] -= 1
        self.pinned -= int(np.count_nonzero(self.refs[held] == 0))


class SharedEmbeddingCache:
    """Embedding-row residency promoted from per-engine to plane scope.

    One directory serves every attached replica: a row any replica
    faulted in is a hit for the whole fleet.  Residency is refcounted —
    :meth:`lookup` pins the rows a pass touches until the returned
    :class:`EmbeddingPin` is released at the pass boundary, and the LRU
    never evicts a pinned row (capacity may transiently overflow when
    every row is pinned; ``pinned_overflow`` counts those admissions).
    Each attached device charges its own fixed cache slab to its own
    memory tracker, and a miss's disk read is charged on the *calling*
    replica's executor — accounting stays per-device while residency is
    fleet-wide.
    """

    def __init__(self, fraction: float = 0.10, capacity_rows: int | None = None) -> None:
        if capacity_rows is not None and capacity_rows <= 0:
            raise ValueError("capacity_rows must be positive")
        if not 0 < fraction <= 1:
            raise ValueError("fraction must lie in (0, 1]")
        self.fraction = fraction
        self.capacity_rows = capacity_rows
        self.row_nbytes: int | None = None
        self.tag = "embedding-plane"
        self._rows = _PinnedRows()
        self._attached: list[DeviceExecutor] = []
        self.total_hits = 0
        self.total_misses = 0
        self.total_evictions = 0
        self.pinned_overflow = 0

    # ------------------------------------------------------------------
    def attach(self, executor: DeviceExecutor, vocab_size: int, row_nbytes: int) -> None:
        """Fix capacity on first attach; charge this device's slab."""
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

    def detach(self, executor: DeviceExecutor) -> None:
        if executor in self._attached:
            executor.device.memory.free(self.tag)
            self._attached.remove(executor)

    # ------------------------------------------------------------------
    def lookup(
        self, token_ids: np.ndarray, executor: DeviceExecutor
    ) -> tuple[CacheLookup, EmbeddingPin]:
        """Resolve a pass's tokens against the shared directory.

        Misses are read in one batched disk request on the *calling*
        executor; every resolved row is pinned until the returned
        :class:`EmbeddingPin` is released."""
        if executor not in self._attached:
            raise RuntimeError("SharedEmbeddingCache.lookup before attach()")
        assert self.capacity_rows is not None and self.row_nbytes is not None
        rows = self._rows
        unique = rows.distinct(token_ids)
        resident = rows.resident(unique)
        hit_rows, missing = unique[resident], unique[~resident]
        hits, misses = int(hit_rows.size), int(missing.size)
        rows.pin(hit_rows)
        rows.touch(hit_rows)

        io_seconds = 0.0
        miss_bytes = misses * self.row_nbytes
        if misses:
            before = executor.now
            try:
                executor.read_blocking(f"{self.tag}/miss", miss_bytes)
            except BaseException:
                # No pin reaches the caller, so nobody would unpin.
                rows.unpin(hit_rows)
                raise
            io_seconds = executor.now - before
            self._admit(missing)

        self.total_hits += hits
        self.total_misses += misses
        lookup = CacheLookup(
            unique_tokens=int(unique.size),
            hits=hits,
            misses=misses,
            miss_bytes=miss_bytes,
            io_seconds=io_seconds,
        )
        return lookup, EmbeddingPin(self, unique)

    def _admit(self, missing: np.ndarray) -> None:
        """Admit ``missing`` (pinned by the resolving pass) in order.

        Admitting one row at a time, each admission evicts the oldest
        unpinned rows while the cache is at capacity (catching up after
        an earlier overflow), or — when every row is pinned by an
        in-flight pass — counts one ``pinned_overflow`` and admits over
        capacity rather than evict under a reader.  Rows in this lookup
        are pinned and only the old unpinned rows can go, so the whole
        batch evicts the ``evicted`` oldest unpinned rows, and every
        admission from the one that first finds no victim overflows.
        """
        rows, capacity, count = self._rows, self.capacity_rows, int(missing.size)
        evictable = rows.size - rows.pinned
        evicted = min(evictable, max(0, rows.size + count - capacity))
        self.pinned_overflow += max(0, count - max(0, evictable + capacity - rows.size))
        if evicted:
            rows.evict(evicted, refs=rows.refs)
            self.total_evictions += evicted
        rows.admit(missing)
        rows.pin(missing)

    def _release(self, tokens: np.ndarray) -> None:
        self._rows.unpin(tokens)

    # ------------------------------------------------------------------
    @property
    def resident_rows(self) -> int:
        return self._rows.size

    @property
    def pinned_rows(self) -> int:
        return self._rows.pinned

    def is_resident(self, token: int) -> bool:
        return self._rows.is_resident(token)

    @property
    def hit_rate(self) -> float | None:
        total = self.total_hits + self.total_misses
        if total == 0:
            return None
        return self.total_hits / total
