"""Chunked execution (§4.3): chunk-size policy and hidden-state ring.

Monolithic forwarding inflates intermediate tensors proportionally to
the candidate count (60 candidates × 512 tokens on the 0.6 B model add
≈473 MB per layer).  Chunked execution splits the monolithic batch and
runs chunks sequentially within each layer, so only one chunk's
transient tensors exist at a time — while the layer's *total* compute
window (the sum over chunks) still covers the next layer's prefetch.

The chunk size is chosen dynamically from device compute capability,
model size and sequence length (§4.3): as small as possible (minimum
memory) subject to

* a **utilisation floor** — the chunk's per-layer compute window must
  be long enough to saturate the device and amortise kernel launches;
* a **memory ceiling** — one chunk's intermediates must fit the budget.

For massive candidate counts the aggregated hidden states themselves
become the bottleneck; :class:`HiddenStateRing` implements the paper's
dynamic offloading, keeping at most three chunk slabs resident (one
computing, one offloading, one prefetching).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..device.executor import DeviceExecutor
from ..device.memory import CATEGORY_HIDDEN
from ..device.platforms import DeviceProfile
from ..model import costs
from ..model.zoo import ModelConfig


def choose_chunk_size(
    model: ModelConfig,
    profile: DeviceProfile,
    seq_len: int,
    num_candidates: int,
    chunk_memory_budget: int,
    min_compute_window: float,
) -> int:
    """Smallest chunk that still saturates the device, capped by memory.

    Reproduces the working example of §4.5: a 0.6 B model with 20
    candidates of ~512 tokens on the laptop GPU yields chunks of 2.
    """
    if num_candidates <= 0:
        raise ValueError("num_candidates must be positive")
    per_cand_inter = costs.intermediate_bytes_per_candidate(model, seq_len)
    max_by_memory = max(1, chunk_memory_budget // per_cand_inter)
    per_cand_seconds = (
        costs.layer_flops_per_candidate(model, seq_len) / profile.compute.flops_per_second
    )
    min_by_window = max(1, math.ceil(min_compute_window / per_cand_seconds))
    chunk = min(max(min_by_window, 1), max_by_memory, num_candidates)
    return int(chunk)


def iter_chunks(num_candidates: int, chunk_size: int) -> Iterator[np.ndarray]:
    """Yield index arrays partitioning ``range(num_candidates)``."""
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    for start in range(0, num_candidates, chunk_size):
        yield np.arange(start, min(start + chunk_size, num_candidates))


@dataclass
class HiddenPlan:
    """Residency plan for a request's hidden states."""

    offload: bool
    chunk_size: int
    resident_chunks: int  # 3 when offloading (compute/offload/prefetch ring)
    per_candidate_bytes: int

    def resident_bytes(self, num_candidates: int) -> int:
        if not self.offload:
            return num_candidates * self.per_candidate_bytes
        per_chunk = self.chunk_size * self.per_candidate_bytes
        rings = min(
            self.resident_chunks, max(1, math.ceil(num_candidates / self.chunk_size))
        )
        return rings * per_chunk


def plan_hidden_states(
    model: ModelConfig,
    seq_len: int,
    num_candidates: int,
    chunk_size: int,
    mode: str,
    hidden_memory_budget: int,
) -> HiddenPlan:
    """Decide whether to offload hidden states (§4.3, "auto" policy)."""
    per_cand = costs.hidden_state_bytes_per_candidate(model, seq_len)
    total = per_cand * num_candidates
    if mode == "on":
        offload = True
    elif mode == "off":
        offload = False
    elif mode == "auto":
        offload = total > hidden_memory_budget
    else:
        raise ValueError(f"bad hidden offload mode {mode!r}")
    return HiddenPlan(
        offload=offload,
        chunk_size=chunk_size,
        resident_chunks=3,
        per_candidate_bytes=per_cand,
    )


class HiddenStateRing:
    """Three-slot hidden-state pipeline for offloaded execution.

    Per layer, for each chunk in order: :meth:`acquire` waits for the
    chunk's prefetch (issued while earlier chunks computed), the engine
    computes, then :meth:`release` starts the chunk's write-back and
    prefetches the chunk two positions ahead.  The ring's three slabs
    are the only hidden-state memory ever resident.
    """

    def __init__(
        self,
        executor: DeviceExecutor,
        plan: HiddenPlan,
        num_candidates: int,
        tag_prefix: str = "hidden-ring",
    ) -> None:
        if not plan.offload:
            raise ValueError("HiddenStateRing requires an offloading plan")
        self.executor = executor
        self.plan = plan
        self.num_chunks = max(1, math.ceil(num_candidates / plan.chunk_size))
        self.tag_prefix = tag_prefix
        self._slab_bytes = plan.chunk_size * plan.per_candidate_bytes
        self._layer_chunks = self.num_chunks
        self._allocated = False

    def allocate(self) -> None:
        if self._allocated:
            return
        slots = min(self.plan.resident_chunks, self.num_chunks)
        for slot in range(slots):
            self.executor.device.memory.alloc(
                f"{self.tag_prefix}/slot{slot}", self._slab_bytes, CATEGORY_HIDDEN
            )
        self._allocated = True
        self._slots = slots

    def release_all(self) -> None:
        if not self._allocated:
            return
        for slot in range(self._slots):
            self.executor.device.memory.free(f"{self.tag_prefix}/slot{slot}")
        self._allocated = False

    # ------------------------------------------------------------------
    def begin_layer(self, layer_idx: int, num_active: int | None = None) -> None:
        """Prefetch the first chunks of this layer's sweep.

        ``num_active`` is the layer's candidate count (by default every
        one the ring was built for): after pruning a layer sweeps fewer
        chunks, and neither this nor :meth:`release` prefetches past
        them.
        """
        self._layer_chunks = (
            self.num_chunks
            if num_active is None
            else max(1, math.ceil(num_active / self.plan.chunk_size))
        )
        for chunk in range(min(2, self._layer_chunks)):
            if layer_idx == 0 and chunk == 0:
                continue  # chunk 0 of layer 0 is produced by the embedding
            self.executor.prefetch(self._read_tag(layer_idx, chunk), self._slab_bytes)

    def acquire(self, layer_idx: int, chunk_idx: int) -> None:
        """Wait for this chunk's hidden states to be resident."""
        tag = self._read_tag(layer_idx, chunk_idx)
        self.executor.wait_io_if_pending(tag)

    def release(self, layer_idx: int, chunk_idx: int) -> None:
        """Write back the computed chunk; prefetch two chunks ahead."""
        self.executor.offload_async(self._write_tag(layer_idx, chunk_idx), self._slab_bytes)
        ahead = chunk_idx + 2
        if ahead < self._layer_chunks:
            self.executor.prefetch(self._read_tag(layer_idx, ahead), self._slab_bytes)

    def _read_tag(self, layer_idx: int, chunk_idx: int) -> str:
        return f"{self.tag_prefix}/read/L{layer_idx}/C{chunk_idx}"

    def _write_tag(self, layer_idx: int, chunk_idx: int) -> str:
        return f"{self.tag_prefix}/write/L{layer_idx}/C{chunk_idx}"
