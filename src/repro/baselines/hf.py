"""HF baseline: vanilla HuggingFace-Transformers-style inference.

This is the paper's primary comparison point (§6.1): fully in-memory
execution with the PyTorch backend.  Its policy:

* **everything resident** — all transformer layers, the full embedding
  table and the head are loaded at startup and stay in memory;
* **fixed-size mini-batches** — conventional reranker stacks split the
  candidate pool into batches "to balance computation and memory"
  (paper footnote 1; e.g. sentence-transformers' CrossEncoder defaults
  to modest batch sizes), so each mini-batch runs the *full* L-layer
  forward pass independently, with no global view across batches — the
  design monolithic forwarding replaces;
* **no pruning** — every candidate pays for every layer.

Memory behaviour: peak = resident weights + one mini-batch's hidden
states + one layer's transient intermediates, which reproduces the HF
curves of Figure 9/16.
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

#: Framework-default mini-batch size (footnote 1 of the paper; reranker
#: stacks split candidate pools into modest fixed batches to balance
#: computation and memory).
DEFAULT_BATCH_SIZE = 16


class HFEngine(EngineBase):
    """Vanilla in-memory inference in fixed mini-batches."""

    name = "hf"

    def __init__(
        self,
        model: CrossEncoderModel,
        device: Device,
        batch_size: int = DEFAULT_BATCH_SIZE,
        quantized: bool = False,
        numerics: bool = True,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        super().__init__(model, device, quantized=quantized)
        self.batch_size = batch_size
        self.numerics = numerics

    # ------------------------------------------------------------------
    def _prepare_impl(self) -> None:
        memory = self.device.memory
        memory.alloc("classifier", self.store.classifier_nbytes(), CATEGORY_WEIGHTS)
        emb_bytes = self.store.embedding_nbytes()
        self.executor.read_blocking("load/embedding", emb_bytes)
        memory.alloc("embedding-table", emb_bytes, CATEGORY_EMBEDDING)
        for layer in range(self.model.config.num_layers):
            nbytes = self.store.layer_nbytes(layer)
            self.executor.read_blocking(f"load/{self.store.layer_tag(layer)}", nbytes)
            memory.alloc(self.store.layer_tag(layer), nbytes, CATEGORY_WEIGHTS)

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
                self._run_layer_chunks(inter_tag, mini.size, mini.size, chunk_costs)
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
