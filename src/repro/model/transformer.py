"""CrossEncoderModel: the per-layer forward API engines drive.

The execution *policy* (what is batched, what is resident, what is
pruned) lives in the engines (``repro.core.engine`` and
``repro.baselines``); this class owns the model itself:

* packing token batches down to the reduced numerics dimensions;
* the embedding → layers → classifier numerics;
* the semantic channel: after every layer, the provisional score from
  :class:`~repro.model.semantics.ScoreDynamics` is written into channel
  0 of each candidate's readout token, which is exactly what the
  classifier head reads (see ``repro.model.classifier``).

Engines can run with ``numerics=False`` for large parameter sweeps; the
model then skips the numpy tensor work and serves scores directly from
the semantic process.  Both paths produce *identical scores* (asserted
in tests) and engines charge identical simulated costs either way.

The forward kernel (DESIGN.md §11): every layer crossing runs one
fused forward in reduced precision (:data:`KERNEL_DTYPE`) over the
layer's weights, cast once and cached per layer, as soon as the engine
asks for it.  ``state.hidden`` stays float64 between crossings and the
semantic channel is written at full precision after each one, so the
kernel's rounding never reaches a score: every observable (classifier
score, pruning decision) reads that channel.  Selections are checked
byte for byte against a float64 reference layer kept under ``tests/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .classifier import Classifier
from .layers import TransformerLayer
from .semantics import ScoreDynamics
from .weights import WeightStore
from .zoo import ModelConfig

#: Precision of the forward kernel (DESIGN.md §11).  Reduced precision
#: halves the memory traffic of the (N, H, L, L) score tensors;
#: selections are unaffected because observables ride the semantic
#: channel, which is injected exactly after every crossing.
KERNEL_DTYPE = np.float32


class CandidateBatch:
    """A monolithic batch of query-candidate pairs ready to forward.

    ``tokens`` are paper-scale packed sequences (N, max_seq_len);
    ``relevance``/``uids`` drive the semantic score process and come
    from the workload's hidden ground truth — engines never read them
    directly, only through classifier scores.

    A batch made by :meth:`deferred` packs ``tokens`` the first time
    they are read, and only once.  ``size`` and the other fields never
    read them, so an engine that charges the embedding from shapes
    alone never packs its batch.
    """

    __slots__ = ("_tokens", "_pack", "lengths", "relevance", "uids")

    def __init__(
        self, tokens: np.ndarray, lengths: np.ndarray, relevance: np.ndarray, uids: np.ndarray
    ) -> None:
        self._tokens: np.ndarray | None = tokens
        self._pack: Callable[[], np.ndarray] | None = None
        self.lengths, self.relevance, self.uids = lengths, relevance, uids
        self._check_rows(tokens.shape[0])

    @classmethod
    def deferred(
        cls,
        pack: Callable[[], np.ndarray],
        lengths: np.ndarray,
        relevance: np.ndarray,
        uids: np.ndarray,
    ) -> CandidateBatch:
        """A batch whose token matrix ``pack()`` builds on first read."""
        batch = cls.__new__(cls)
        batch._tokens, batch._pack = None, pack
        batch.lengths, batch.relevance, batch.uids = lengths, relevance, uids
        batch._check_rows(lengths.shape[0])
        return batch

    def _check_rows(self, n: int) -> None:
        for name in ("lengths", "relevance", "uids"):
            arr = getattr(self, name)
            if arr.shape[0] != n:
                raise ValueError(f"{name} length {arr.shape[0]} != batch size {n}")

    @property
    def tokens(self) -> np.ndarray:
        if self._tokens is None:
            self._tokens, self._pack = self._pack(), None
        return self._tokens

    @property
    def size(self) -> int:
        return int(self.lengths.shape[0])

    def select(self, index: np.ndarray) -> CandidateBatch:
        """Sub-batch of the rows at ``index``, for chunking / pruning.

        Its tokens are taken from this batch when they are first read,
        by fancy indexing, which copies: a subset of a batch whose rows
        are shared read-only (:func:`~repro.data.workloads.build_batches`)
        is private and writable, and a subset nobody reads copies nothing.
        """
        index = np.array(index)  # read again on first read; the caller may reuse its own
        return CandidateBatch.deferred(
            lambda: self.tokens[index],
            lengths=self.lengths[index],
            relevance=self.relevance[index],
            uids=self.uids[index],
        )


@dataclass
class ForwardState:
    """Mutable per-candidate state while a batch advances through layers."""

    batch: CandidateBatch
    layer_done: int = -1  # index of the last executed layer (-1 = embedding only)
    #: (N, sim_seq, sim_hidden) float64 when numerics are on; the kernel
    #: computes in reduced precision but hands back float64, so the
    #: exact semantic channel survives between crossings (DESIGN.md §11).
    hidden: np.ndarray | None = None
    sim_lengths: np.ndarray | None = None
    #: The pass's score noise, drawn once on its first score: row
    #: ``ℓ - noise_from`` holds every candidate's draw after layer ``ℓ``.
    noise: np.ndarray | None = None
    noise_from: int = 0

    @property
    def size(self) -> int:
        return self.batch.size


class CrossEncoderModel:
    """A reranker: embedding + L transformer layers + scoring head."""

    def __init__(self, config: ModelConfig, store: WeightStore | None = None) -> None:
        self.config = config
        self.store = store if store is not None else WeightStore(config)
        self.classifier = Classifier(config)
        self.dynamics = ScoreDynamics(config.semantics, config.num_layers, config.model_seed)
        #: Per-layer kernel over weights cast to :data:`KERNEL_DTYPE`
        #: (DESIGN.md §11), built on a layer's first crossing.
        self._fused_layers: dict[int, TransformerLayer] = {}

    # ------------------------------------------------------------------
    # numerics-dimension packing
    # ------------------------------------------------------------------
    def sim_tokens(self, batch: CandidateBatch) -> tuple[np.ndarray, np.ndarray]:
        """Stride paper-length token rows down to the numerics length."""
        cfg = self.config
        stride = max(1, cfg.max_seq_len // cfg.sim_seq_len)
        tokens = batch.tokens[:, ::stride][:, : cfg.sim_seq_len]
        if tokens.shape[1] < cfg.sim_seq_len:
            pad = np.zeros((tokens.shape[0], cfg.sim_seq_len - tokens.shape[1]), dtype=np.int64)
            tokens = np.concatenate([tokens, pad], axis=1)
        sim_lengths = np.clip(
            np.ceil(batch.lengths / stride).astype(np.int64), 1, cfg.sim_seq_len
        )
        return tokens, sim_lengths

    # ------------------------------------------------------------------
    # forward stages
    # ------------------------------------------------------------------
    def embed(self, batch: CandidateBatch, numerics: bool = True) -> ForwardState:
        """Embedding stage → a fresh :class:`ForwardState` (layer_done = -1)."""
        state = ForwardState(batch=batch)
        if numerics:
            tokens, sim_lengths = self.sim_tokens(batch)
            state.hidden = self.store.embedding_rows(tokens)
            state.sim_lengths = sim_lengths
            self._inject(state, -1)
        return state

    def forward_layer(self, state: ForwardState, layer_idx: int) -> ForwardState:
        """Run one layer in place (numerics if the state carries hidden).

        A numerics state crosses through the layer kernel at once
        (:meth:`forward_layer_batched`, DESIGN.md §11).  Simulated
        costs are unaffected either way; engines charge them
        separately.
        """
        expected = state.layer_done + 1
        if layer_idx != expected:
            raise ValueError(f"layer {layer_idx} out of order; expected {expected}")
        if state.hidden is not None:
            self.forward_layer_batched([state], layer_idx)
        state.layer_done = layer_idx
        return state

    def forward_layer_batched(self, states: list[ForwardState], layer_idx: int) -> None:
        """Cross ``layer_idx`` with the layer kernel, state by state.

        The kernel entry point (DESIGN.md §11): each state's hidden
        batch is cast to :data:`KERNEL_DTYPE`, run through the layer's
        cached fused forward, cast back to float64 and then given its
        semantic channel at full precision.  Hidden states agree with
        a float64 forward to reduced-precision tolerance; scores are
        exact.  Does not touch ``layer_done``: :meth:`forward_layer`
        owns the crossing's bookkeeping.
        """
        layer = self._fused_layers.get(layer_idx)
        if layer is None:
            layer = TransformerLayer(
                self.config, self.store.load_layer(layer_idx).cast(KERNEL_DTYPE)
            )
            self._fused_layers[layer_idx] = layer
        for state in states:
            assert state.hidden is not None and state.sim_lengths is not None
            forwarded = layer.forward(state.hidden.astype(KERNEL_DTYPE), state.sim_lengths)
            state.hidden = forwarded.astype(np.float64)
            self._inject(state, layer_idx)

    def score(self, state: ForwardState) -> np.ndarray:
        """Apply the classifier head at the state's current depth."""
        if state.layer_done < 0:
            raise ValueError("cannot score before any transformer layer has run")
        if state.hidden is not None:
            assert state.sim_lengths is not None
            return self.classifier.score(state.hidden, state.sim_lengths)
        return self._semantic_scores(state, state.layer_done)

    def full_forward(self, batch: CandidateBatch, numerics: bool = True) -> np.ndarray:
        """Reference unpruned forward pass → final scores."""
        state = self.embed(batch, numerics=numerics)
        for layer_idx in range(self.config.num_layers):
            self.forward_layer(state, layer_idx)
        return self.score(state)

    # ------------------------------------------------------------------
    def _semantic_scores(self, state: ForwardState, layer: int) -> np.ndarray:
        """The semantic scores after ``layer``, from that layer's row of
        the state's noise table; the first read draws the table from
        that depth to the last layer in one call."""
        if state.noise is None or layer < state.noise_from:
            state.noise = self.dynamics.noise(state.batch.uids, layer)
            state.noise_from = layer
        eps = state.noise[layer - state.noise_from]
        return self.dynamics.scores_from_noise(layer, state.batch.relevance, eps)

    def _inject(self, state: ForwardState, layer: int) -> None:
        """Write the semantic channel after ``layer`` (-1 = embedding)
        into the readout token, channel 0."""
        assert state.hidden is not None and state.sim_lengths is not None
        if layer < 0:
            values = np.full(state.size, self.config.semantics.anchor)
        else:
            values = self._semantic_scores(state, layer)
        positions = self.classifier.readout_positions(state.sim_lengths)
        state.hidden[np.arange(state.size), positions, 0] = values
