"""Progressive cluster pruning (§4.1).

Before each layer, the engine scores the still-active candidates with
the model's classifier and hands the scores here.  The pruner:

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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .clustering import Clustering, cluster_scores


@dataclass(frozen=True)
class PruneDecision:
    """Outcome of one pruning check over the active candidates.

    Index arrays refer to positions within the *active* score vector
    handed to :meth:`ProgressiveClusterPruner.decide`; the engine maps
    them back to pool candidates.
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
    """Stateless pruning-decision logic (the engine owns the loop state)."""

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
        # Order the selected best-first so the engine can place them.
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
