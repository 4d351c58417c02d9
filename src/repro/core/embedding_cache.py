"""Embedding table caching (§4.4).

The full embedding table dominates memory once layers are streamed
(296 MB vs. 60 MB of active layers for Qwen3-Reranker-0.6B), but its
activation is extremely sparse — a 20-document request touches ≤6.75 %
of the vocabulary, and natural-language token usage is Zipf-skewed.
PRISM therefore keeps a small in-memory LRU cache of embedding *rows*
(10 % of the vocabulary by default); misses trigger a synchronous read
of just the missing rows from disk.

``EmbeddingCache`` tracks residency by token id in flat arrays
(:class:`LRURows`, shared with the fleet-wide cache of DESIGN.md §12),
charges the fixed cache slab to the memory tracker once, and reports
per-request hit statistics for the ablation study.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..device.executor import DeviceExecutor
from ..device.memory import CATEGORY_EMBEDDING


@dataclass
class CacheLookup:
    """Result of resolving one request's unique tokens."""

    unique_tokens: int
    hits: int
    misses: int
    miss_bytes: int
    io_seconds: float

    @property
    def hit_rate(self) -> float | None:
        """Hit fraction, or ``None`` when the lookup resolved nothing
        (mirrors the FleetStats empty-sample helpers)."""
        if self.unique_tokens == 0:
            return None
        return self.hits / self.unique_tokens


class LRURows:
    """Resident embedding rows in LRU order, kept in flat arrays.

    ``_stamp[token]`` is the 1-based position, in an append-only recency
    log, of the token's latest touch (0: not resident).  A log entry is
    live while its token's stamp still points at it, so touching a row
    appends it and the older entry dies in place: LRU order is log order
    over live entries, and the least recently used rows are the first
    live entries from the head.  The log is compacted when it fills.
    The per-token arrays grow to the largest token id seen, at most the
    vocabulary.  Every operation is a few whole-array numpy calls, with
    no per-token Python loop.
    """

    def __init__(self) -> None:
        self.size = 0
        self._stamp = np.zeros(0, dtype=np.int32)
        self._mark = np.zeros(0, dtype=bool)
        self._log = np.zeros(0, dtype=np.int32)
        self._head = 0
        self._tail = 0

    def _grow(self, tokens: int) -> None:
        """Extend the per-token arrays to cover ids below ``tokens``."""
        extra = tokens - self._stamp.size
        self._stamp = np.concatenate([self._stamp, np.zeros(extra, dtype=np.int32)])
        self._mark = np.concatenate([self._mark, np.zeros(extra, dtype=bool)])

    def distinct(self, token_ids: np.ndarray) -> np.ndarray:
        """Sorted distinct token ids — ``np.unique`` through a bitmap."""
        tokens = np.asarray(token_ids, dtype=np.int64).ravel()
        if tokens.size == 0:
            return tokens
        if tokens.min() < 0:
            raise ValueError("token ids must be non-negative")
        top = int(tokens.max()) + 1
        if top > self._stamp.size:
            self._grow(top)
        mark = self._mark
        mark[tokens] = True
        unique = np.flatnonzero(mark)
        mark[unique] = False
        return unique

    def resident(self, tokens: np.ndarray) -> np.ndarray:
        """Residency mask over distinct ``tokens`` already seen by :meth:`distinct`."""
        return self._stamp[tokens] != 0

    def is_resident(self, token: int) -> bool:
        return 0 <= token < self._stamp.size and bool(self._stamp[token])

    def touch(self, tokens: np.ndarray) -> None:
        """Mark resident ``tokens`` most recently used, in the given order."""
        self._append(tokens)

    def admit(self, tokens: np.ndarray) -> None:
        """Insert absent ``tokens`` as the most recently used, in the given order."""
        self._append(tokens)
        self.size += int(tokens.size)

    def evict(self, count: int, refs: np.ndarray | None = None) -> None:
        """Drop the ``count`` least recently used rows whose ``refs`` entry is 0.

        The caller guarantees that many evictable rows exist.  The head
        moves past every entry that is dead or evicted, and stops at the
        first pinned row it had to skip.
        """
        stamp, log = self._stamp, self._log
        pos, held_at = self._head, self._tail
        while count > 0 and pos < self._tail:
            end = min(self._tail, pos + max(2 * count, 1024))
            entries = log[pos:end]
            live = stamp[entries] == np.arange(pos + 1, end + 1)
            if refs is not None:
                held = refs[entries] != 0
                if held_at == self._tail and (live & held).any():
                    held_at = pos + int(np.argmax(live & held))
                live &= ~held
            victims = np.flatnonzero(live)[:count]
            stamp[entries[victims]] = 0
            self.size -= int(victims.size)
            count -= int(victims.size)
            pos = pos + int(victims[-1]) + 1 if count == 0 else end
        self._head = min(pos, held_at)

    def _append(self, tokens: np.ndarray) -> None:
        if self._tail + tokens.size > self._log.size:
            self._compact(tokens.size)
        end = self._tail + tokens.size
        self._log[self._tail : end] = tokens
        self._stamp[tokens] = np.arange(self._tail + 1, end + 1)
        self._tail = end

    def _compact(self, room: int) -> None:
        """Keep only live entries; size the log for at least as many appends."""
        entries = self._log[self._head : self._tail]
        live = entries[self._stamp[entries] == np.arange(self._head + 1, self._tail + 1)]
        log = np.empty(max(self._log.size, 2 * (live.size + room)), dtype=np.int32)
        log[: live.size] = live
        self._stamp[live] = np.arange(1, live.size + 1)
        self._log, self._head, self._tail = log, 0, int(live.size)


class EmbeddingCache:
    """Fixed-capacity LRU cache over embedding-table rows."""

    def __init__(
        self,
        capacity_rows: int,
        row_nbytes: int,
        executor: DeviceExecutor,
        tag: str = "embedding-cache",
    ) -> None:
        if capacity_rows <= 0:
            raise ValueError("capacity_rows must be positive")
        if row_nbytes <= 0:
            raise ValueError("row_nbytes must be positive")
        self.capacity_rows = capacity_rows
        self.row_nbytes = row_nbytes
        self.executor = executor
        self.tag = tag
        self._rows = LRURows()
        self._allocated = False
        self.total_hits = 0
        self.total_misses = 0
        self.total_evictions = 0

    # ------------------------------------------------------------------
    def allocate(self) -> None:
        """Charge the cache slab to the memory tracker (once, at prepare)."""
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
            self._rows = LRURows()

    # ------------------------------------------------------------------
    def lookup(self, token_ids: np.ndarray) -> CacheLookup:
        """Resolve a request's tokens; read missing rows synchronously.

        Misses are batched into a single disk request (the rows are
        gathered in one pass), which together with the small activated
        volume keeps the latency negligible — the ablation in §6.4
        reports ~4 ms.
        """
        if not self._allocated:
            raise RuntimeError("EmbeddingCache.lookup before allocate()")
        rows = self._rows
        unique = rows.distinct(token_ids)
        resident = rows.resident(unique)
        missing = unique[~resident]
        hits = int(unique.size - missing.size)
        misses = int(missing.size)
        # LRU touch over hits, then admission of misses, both in
        # ascending token order; evicting the oldest rows after the
        # admissions is what evicting before each admission did.
        rows.touch(unique[resident])

        io_seconds = 0.0
        miss_bytes = misses * self.row_nbytes
        if misses:
            before = self.executor.now
            self.executor.read_blocking(f"{self.tag}/miss", miss_bytes)
            io_seconds = self.executor.now - before
            rows.admit(missing)
            over = rows.size - self.capacity_rows
            if over > 0:
                rows.evict(over)
                self.total_evictions += over

        self.total_hits += hits
        self.total_misses += misses
        return CacheLookup(
            unique_tokens=int(unique.size),
            hits=hits,
            misses=misses,
            miss_bytes=miss_bytes,
            io_seconds=io_seconds,
        )

    # ------------------------------------------------------------------
    @property
    def resident_rows(self) -> int:
        return self._rows.size

    def is_resident(self, token: int) -> bool:
        return self._rows.is_resident(token)

    @property
    def hit_rate(self) -> float | None:
        """Lifetime hit fraction, or ``None`` for a never-used cache
        (1.0 would fake a perfect cache in the ablation tables)."""
        total = self.total_hits + self.total_misses
        if total == 0:
            return None
        return self.total_hits / total
