"""Progressive cluster pruning (§4.1), and the pass selection it drives.

Before each layer, a pass scores the still-active candidates with the
model's classifier and hands the scores here.  The pruner:

1. computes the coefficient of variation CV = |std/mean| of the scores
   and does nothing while CV stays below the dispersion threshold — a
   stable relative ranking has not yet emerged;
2. once the trigger fires, clusters the scores (1-D k-means) and finds
   the **boundary cluster** — the one containing the K-th ranked
   still-needed candidate;
3. routes whole clusters: clusters above the boundary are *selected*
   (their members join the final top-K and stop computing), clusters
   below are *dropped* (no chance of reaching the top-K), the boundary
   cluster itself is *deferred* for further layers;
4. reports a terminal condition when the deferred set exactly fills the
   remaining top-K slots, at which point the forward pass stops.

``exact_rank_mode`` (§7) keeps would-be-selected clusters computing so
the returned winners carry exact final scores; only hopeless clusters
are pruned.

A selection depends on the batch's scores and the config alone
(DESIGN.md §2), so :class:`PassSelection` reads no device: the engine
drives it and charges the costs, :func:`plan_selection` drives it bare.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..model.transformer import CandidateBatch, CrossEncoderModel, ForwardState
from .clustering import Clustering, cluster_scores
from .config import PrismConfig


@dataclass(frozen=True)
class PruneDecision:
    """Outcome of one pruning check over the active candidates.

    Index arrays refer to positions within the *active* score vector
    handed to :meth:`ProgressiveClusterPruner.decide`; the
    :class:`PassSelection` maps them back to pool candidates.
    """

    triggered: bool
    cv: float
    selected: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    deferred: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    dropped: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    terminal: bool = False
    clustering: Clustering | None = None

    @property
    def pruned_count(self) -> int:
        return int(self.selected.size + self.dropped.size)


def coefficient_of_variation(scores: np.ndarray) -> float:
    """CV = |std/mean| of the provisional scores (§4.1).

    Spelled out as ``np.mean``/``np.std`` compute it — one
    ``np.add.reduce`` for the mean and one over the squared deviations,
    each divided by the count — so it is bitwise ``abs(std / mean)``
    without their dispatch overhead.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("scores must be non-empty")
    mean = np.add.reduce(scores, axis=None) / scores.size
    if mean == 0.0:
        return np.inf
    std = np.sqrt(np.add.reduce(np.square(scores - mean), axis=None) / scores.size)
    return float(abs(std / mean))


class ProgressiveClusterPruner:
    """Stateless pruning-decision logic (:class:`PassSelection` owns the
    loop state)."""

    def __init__(
        self,
        dispersion_threshold: float,
        max_clusters: int = 6,
        exact_rank_mode: bool = False,
    ) -> None:
        if not dispersion_threshold >= 0:  # NaN too
            raise ValueError("dispersion_threshold must be non-negative")
        self.dispersion_threshold = dispersion_threshold
        self.max_clusters = max_clusters
        self.exact_rank_mode = exact_rank_mode

    def decide(self, scores: np.ndarray, slots_remaining: int) -> PruneDecision:
        """Evaluate the trigger and, if it fires, route the candidates.

        Parameters
        ----------
        scores:
            Provisional scores of the still-active candidates.
        slots_remaining:
            Top-K slots not yet filled by previously selected candidates.
        """
        scores = np.asarray(scores, dtype=np.float64)
        if slots_remaining <= 0:
            raise ValueError("slots_remaining must be positive while pruning")
        if scores.size <= slots_remaining:
            if self.exact_rank_mode:
                # Every survivor is a contender; in exact mode contenders
                # run to the last layer so their scores are final.
                return PruneDecision(triggered=False, cv=coefficient_of_variation(scores))
            # Everything still active is needed: accept all, terminate.
            order = np.argsort(-scores)
            return PruneDecision(
                triggered=True,
                cv=coefficient_of_variation(scores),
                selected=order.astype(np.int64),
                terminal=True,
            )

        cv = coefficient_of_variation(scores)
        if cv < self.dispersion_threshold:
            return PruneDecision(triggered=False, cv=cv)

        clustering = cluster_scores(scores, max_clusters=self.max_clusters)
        if clustering.num_clusters < 2:
            return PruneDecision(triggered=False, cv=cv, clustering=clustering)

        boundary = self._boundary_cluster(scores, clustering, slots_remaining)
        selected_mask = clustering.labels < boundary
        deferred_mask = clustering.labels == boundary
        dropped_mask = clustering.labels > boundary

        if self.exact_rank_mode:
            # Winners keep computing for exact final scores: fold the
            # would-be-selected clusters into the deferred set.
            deferred_mask |= selected_mask
            selected_mask = np.zeros_like(selected_mask)

        selected = np.flatnonzero(selected_mask).astype(np.int64)
        deferred = np.flatnonzero(deferred_mask).astype(np.int64)
        dropped = np.flatnonzero(dropped_mask).astype(np.int64)
        # Order the selected best-first so the pass can place them.
        selected = selected[np.argsort(-scores[selected])] if selected.size else selected

        # Exact mode never terminates early: contenders must reach the
        # final layer so the returned scores are the model's true output.
        terminal = (not self.exact_rank_mode) and deferred.size == slots_remaining - selected.size
        if terminal:
            deferred = deferred[np.argsort(-scores[deferred])]
        return PruneDecision(
            triggered=True,
            cv=cv,
            selected=selected,
            deferred=deferred,
            dropped=dropped,
            terminal=terminal,
            clustering=clustering,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _boundary_cluster(
        scores: np.ndarray, clustering: Clustering, slots_remaining: int
    ) -> int:
        """Cluster id containing the K-th ranked active candidate."""
        order = np.argsort(-scores)
        kth_candidate = order[slots_remaining - 1]
        return int(clustering.labels[kth_candidate])


@dataclass
class PruneEvent:
    """One pruning action of a pass."""

    layer: int
    cv: float
    num_selected: int
    num_dropped: int
    num_deferred: int
    terminal: bool


def subset_state(state: ForwardState, positions: np.ndarray) -> ForwardState:
    """The rows of ``state`` at ``positions``, as a new state."""
    # Row subsets of the float64 hidden batch keep each survivor's
    # exact semantic channel (DESIGN.md §11), and column subsets of
    # the noise table keep the survivors' draws for later layers.
    sub = ForwardState(batch=state.batch.select(positions), layer_done=state.layer_done)
    if state.noise is not None:
        sub.noise = state.noise[:, positions]
        sub.noise_from = state.noise_from
    if state.hidden is not None:
        assert state.sim_lengths is not None
        sub.hidden = state.hidden[positions]
        sub.sim_lengths = state.sim_lengths[positions]
    return sub


class PassSelection:
    """One pass's selection state (§4.1): its forward state, the pool
    indices still active, the picks and the prune events.  Driven as in
    :func:`plan_selection`; :meth:`finish` sets ``top_indices`` and
    ``top_scores``, best-first per pick."""

    def __init__(
        self, model: CrossEncoderModel, batch: CandidateBatch, k: int, config: PrismConfig
    ) -> None:
        self.model = model
        self.k = min(k, batch.size)
        self.state = model.embed(batch, numerics=config.numerics)
        self.active = np.arange(batch.size)
        #: Whether top-K slots are open and candidates still active.
        self.open = self.k > 0
        #: The first layer checked before; none with pruning off.
        first = max(1, config.min_layers_before_pruning)
        self.check_from = first if config.pruning_enabled else model.config.num_layers
        self._pruner = ProgressiveClusterPruner(
            config.dispersion_threshold, config.max_clusters, config.exact_rank_mode
        )
        self.prune_events: list[PruneEvent] = []
        self._indices: list[int] = []
        self._scores: list[float] = []

    def _pick(self, positions, scores: np.ndarray) -> None:
        for pos in positions:
            self._indices.append(int(self.active[pos]))
            self._scores.append(float(scores[pos]))

    def check(self, layer: int) -> PruneDecision:
        """Score the active rows before ``layer`` and route them."""
        scores = self.model.score(self.state)
        decision = self._pruner.decide(scores, self.k - len(self._indices))
        if decision.triggered:
            self._pick(decision.selected, scores)
            if decision.terminal:
                self._pick(decision.deferred, scores)
                self.active = np.empty(0, dtype=np.int64)
            else:
                keep = np.sort(decision.deferred)
                self.active = self.active[keep]
                self.state = subset_state(self.state, keep)
            self.open = len(self._indices) < self.k and self.active.size > 0
            self.prune_events.append(
                PruneEvent(
                    layer=layer,
                    cv=decision.cv,
                    num_selected=int(decision.selected.size),
                    num_dropped=int(decision.dropped.size),
                    num_deferred=int(self.active.size),
                    terminal=decision.terminal,
                )
            )
        return decision

    def finish(self) -> int:
        """Fill the open slots with the best active rows at the depth
        reached; returns how many rows the classifier scored for it."""
        scored = 0
        if self.open:
            scores = self.model.score(self.state)
            self._pick(np.argsort(-scores)[: self.k - len(self._indices)], scores)
            scored, self.open = int(scores.size), False
        self.top_indices = np.array(self._indices, dtype=np.int64)
        self.top_scores = np.array(self._scores)
        return scored


def plan_selection(
    model: CrossEncoderModel, batch: CandidateBatch, k: int, config: PrismConfig
) -> PassSelection:
    """The selection a PRISM pass makes at ``config``, bit for bit, with
    no device.  With ``pruning_enabled=False`` it is the unpruned ground
    truth (§4.1), which the HF-family baselines also select."""
    if k <= 0 or batch.size == 0:
        raise ValueError("need a positive k and a non-empty batch")
    selection = PassSelection(model, batch, k, config)
    for layer in range(model.config.num_layers):
        if layer >= selection.check_from and selection.open:
            selection.check(layer)
            if not selection.open:
                break
        model.forward_layer(selection.state, layer)
    selection.finish()
    return selection
