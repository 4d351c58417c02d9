"""HF Offload baseline: Accelerate-style disk offloading.

The paper's second baseline offloads *all transformer layers* to disk
via HuggingFace Accelerate and loads each "right before execution"
(§6.1).  Key behaviours reproduced here:

* the embedding table and head stay resident (Accelerate keeps
  non-offloaded modules in memory);
* each layer's weights are read **synchronously** immediately before
  that layer executes and released right after — there is no prefetch,
  so every load sits on the critical path;
* because execution proceeds mini-batch by mini-batch with no global
  view, the full layer sequence is re-loaded **for every mini-batch** —
  this is what makes HF Offload dramatically slower than in-memory HF
  on multi-batch pools (Figures 8/9) and what PRISM's monolithic batch
  + overlapped streaming eliminates.
"""

from __future__ import annotations

import numpy as np

from ..device.memory import (
    CATEGORY_EMBEDDING,
    CATEGORY_HIDDEN,
    CATEGORY_WEIGHTS,
)
from ..device.platforms import Device
from ..model import costs
from ..model.transformer import CandidateBatch, CrossEncoderModel
from ..core.chunking import iter_chunks
from ..core.engine import EngineBase, RerankResult, TaskContext
from .hf import DEFAULT_BATCH_SIZE


#: Accelerate's disk offloading deserialises parameter-by-parameter
#: through Python rather than issuing raw sequential reads; measured
#: effective throughput is well under the device's sequential bandwidth.
DESERIALIZE_EFFICIENCY = 0.55


class HFOffloadEngine(EngineBase):
    """HF + Accelerate disk offloading (synchronous per-layer loads)."""

    name = "hf_offload"

    def __init__(
        self,
        model: CrossEncoderModel,
        device: Device,
        batch_size: int = DEFAULT_BATCH_SIZE,
        quantized: bool = False,
        numerics: bool = True,
        deserialize_efficiency: float = DESERIALIZE_EFFICIENCY,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if not 0 < deserialize_efficiency <= 1:
            raise ValueError("deserialize_efficiency must lie in (0, 1]")
        super().__init__(model, device, quantized=quantized)
        self.batch_size = batch_size
        self.numerics = numerics
        self.deserialize_efficiency = deserialize_efficiency

    # ------------------------------------------------------------------
    def _prepare_impl(self) -> None:
        memory = self.device.memory
        memory.alloc("classifier", self.store.classifier_nbytes(), CATEGORY_WEIGHTS)
        emb_bytes = self.store.embedding_nbytes()
        self.executor.read_blocking("load/embedding", emb_bytes)
        memory.alloc("embedding-table", emb_bytes, CATEGORY_EMBEDDING)

    # ------------------------------------------------------------------
    def _task_impl(self, batch: CandidateBatch, k: int, ctx: TaskContext):
        """One step per (mini-batch, layer); yields at layer boundaries."""
        cfg = self.model.config
        memory = self.device.memory
        seq_len = self._effective_seq_len(batch)
        t0, stall0 = self.executor.now, self.executor.io_stall_seconds

        hidden_tag = ctx.tag("hidden")
        inter_tag = ctx.tag("intermediates")
        chunk_costs = self._layer_chunk_costs(seq_len)
        all_scores = np.empty(batch.size)
        layers_executed = 0
        candidate_layers = 0
        for mini in iter_chunks(batch.size, self.batch_size):
            sub = batch.select(mini)
            hidden_bytes = mini.size * costs.hidden_state_bytes_per_candidate(cfg, seq_len)
            memory.alloc(hidden_tag, hidden_bytes, CATEGORY_HIDDEN)
            self._charge_embedding(mini.size, seq_len)
            state = self.model.embed(sub, numerics=self.numerics)
            for layer in range(cfg.num_layers):
                tag = ctx.tag(self.store.layer_tag(layer))
                nbytes = self.store.layer_nbytes(layer)
                memory.alloc(tag, nbytes, CATEGORY_WEIGHTS)
                # Charge the read at Accelerate's effective throughput.
                self.executor.read_blocking(
                    f"load/{tag}", int(nbytes / self.deserialize_efficiency)
                )
                self._run_layer_chunks(inter_tag, mini.size, mini.size, chunk_costs)
                memory.free(tag)
                self.model.forward_layer(state, layer)
                layers_executed += 1
                candidate_layers += int(mini.size)
                yield layer  # preemption point: one layer advanced
            self._charge_classifier(int(mini.size))
            all_scores[mini] = self.model.score(state)
            memory.free(hidden_tag)

        order = np.argsort(-all_scores)[:k]
        return RerankResult(
            top_indices=order.astype(np.int64),
            top_scores=all_scores[order],
            latency_seconds=self.executor.now - t0,
            layers_executed=layers_executed,
            candidate_layers=candidate_layers,
            io_stall_seconds=self.executor.io_stall_seconds - stall0,
        )
