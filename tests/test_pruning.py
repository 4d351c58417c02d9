"""Unit tests for progressive cluster pruning (§4.1)."""

import numpy as np
import pytest

from repro.core.pruning import ProgressiveClusterPruner, coefficient_of_variation


def tiers(rng, centers, spread, per_tier):
    return np.concatenate([rng.normal(c, spread, size=per_tier) for c in centers])


class TestCoefficientOfVariation:
    def test_formula(self):
        scores = np.array([1.0, 2.0, 3.0])
        assert coefficient_of_variation(scores) == pytest.approx(
            np.std(scores) / np.mean(scores)
        )

    def test_absolute_value_for_negative_mean(self):
        scores = np.array([-1.0, -2.0, -3.0])
        assert coefficient_of_variation(scores) > 0

    def test_zero_mean_gives_infinity(self):
        assert coefficient_of_variation(np.array([-1.0, 1.0])) == np.inf

    def test_constant_scores_zero(self):
        assert coefficient_of_variation(np.full(5, 0.7)) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            coefficient_of_variation(np.array([]))


class TestTrigger:
    def test_no_trigger_below_threshold(self):
        pruner = ProgressiveClusterPruner(dispersion_threshold=0.5)
        scores = np.random.default_rng(0).normal(0.5, 0.01, 20)  # CV ≈ 0.02
        decision = pruner.decide(scores, slots_remaining=5)
        assert not decision.triggered
        assert decision.cv < 0.5

    def test_trigger_above_threshold(self):
        pruner = ProgressiveClusterPruner(dispersion_threshold=0.1)
        scores = tiers(np.random.default_rng(1), [0.9, 0.1], 0.02, 10)
        decision = pruner.decide(scores, slots_remaining=5)
        assert decision.triggered

    def test_no_trigger_when_clusters_not_distinct(self):
        """High CV but unimodal: clustering yields one cluster, so
        nothing can be routed."""
        pruner = ProgressiveClusterPruner(dispersion_threshold=0.1)
        scores = np.random.default_rng(2).normal(0.2, 0.15, 20).clip(0.01, 0.99)
        decision = pruner.decide(scores, slots_remaining=5)
        if decision.clustering is not None and decision.clustering.num_clusters < 2:
            assert not decision.triggered

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            ProgressiveClusterPruner(dispersion_threshold=-0.1)

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError):
            ProgressiveClusterPruner(dispersion_threshold=float("nan"))

    def test_nonpositive_slots_rejected(self):
        pruner = ProgressiveClusterPruner(dispersion_threshold=0.1)
        with pytest.raises(ValueError):
            pruner.decide(np.array([0.5, 0.6]), slots_remaining=0)


class TestThreeWayRouting:
    @pytest.fixture
    def decision(self):
        # 5 clear winners, 5 mid (boundary), 10 losers; K = 7 → the
        # boundary cluster holds the 7th-ranked candidate.
        rng = np.random.default_rng(3)
        self.scores = np.concatenate(
            [
                rng.normal(0.9, 0.01, 5),
                rng.normal(0.55, 0.01, 5),
                rng.normal(0.1, 0.01, 10),
            ]
        )
        pruner = ProgressiveClusterPruner(dispersion_threshold=0.1)
        return pruner.decide(self.scores, slots_remaining=7)

    def test_partition_is_complete_and_disjoint(self, decision):
        routed = np.concatenate([decision.selected, decision.deferred, decision.dropped])
        assert sorted(routed.tolist()) == list(range(20))

    def test_winners_selected(self, decision):
        assert set(decision.selected.tolist()) == set(range(5))

    def test_boundary_cluster_deferred(self, decision):
        assert set(decision.deferred.tolist()) == set(range(5, 10))

    def test_losers_dropped(self, decision):
        assert set(decision.dropped.tolist()) == set(range(10, 20))

    def test_selected_ordered_best_first(self, decision):
        selected_scores = self.scores[decision.selected]
        assert (np.diff(selected_scores) <= 0).all()

    def test_pruned_count(self, decision):
        assert decision.pruned_count == 15


class TestTerminalCondition:
    def test_terminal_when_deferred_exactly_fills_slots(self):
        """§4.5's ending: selected + deferred == K stops the pass."""
        rng = np.random.default_rng(4)
        scores = np.concatenate(
            [rng.normal(0.9, 0.01, 2), rng.normal(0.55, 0.01, 3), rng.normal(0.1, 0.01, 15)]
        )
        pruner = ProgressiveClusterPruner(dispersion_threshold=0.1)
        decision = pruner.decide(scores, slots_remaining=5)
        assert decision.triggered
        assert decision.terminal
        assert decision.selected.size + decision.deferred.size == 5

    def test_terminal_deferred_sorted_best_first(self):
        rng = np.random.default_rng(5)
        scores = np.concatenate([rng.normal(0.7, 0.01, 5), rng.normal(0.1, 0.01, 15)])
        pruner = ProgressiveClusterPruner(dispersion_threshold=0.1)
        decision = pruner.decide(scores, slots_remaining=5)
        if decision.terminal:
            deferred_scores = scores[decision.deferred]
            assert (np.diff(deferred_scores) <= 0).all()

    def test_accept_all_when_survivors_fit_slots(self):
        pruner = ProgressiveClusterPruner(dispersion_threshold=0.9)
        scores = np.array([0.3, 0.8, 0.5])
        decision = pruner.decide(scores, slots_remaining=3)
        assert decision.triggered and decision.terminal
        assert decision.selected.tolist() == [1, 2, 0]  # best-first


class TestExactRankMode:
    def test_never_terminal(self):
        rng = np.random.default_rng(6)
        scores = np.concatenate([rng.normal(0.9, 0.01, 2), rng.normal(0.1, 0.01, 18)])
        pruner = ProgressiveClusterPruner(dispersion_threshold=0.1, exact_rank_mode=True)
        decision = pruner.decide(scores, slots_remaining=2)
        assert not decision.terminal

    def test_winners_fold_into_deferred(self):
        rng = np.random.default_rng(7)
        scores = np.concatenate(
            [rng.normal(0.9, 0.01, 3), rng.normal(0.55, 0.01, 4), rng.normal(0.1, 0.01, 13)]
        )
        pruner = ProgressiveClusterPruner(dispersion_threshold=0.1, exact_rank_mode=True)
        decision = pruner.decide(scores, slots_remaining=5)
        assert decision.selected.size == 0
        # Winners and boundary candidates all keep computing.
        assert set(decision.deferred.tolist()) == set(range(7))
        assert set(decision.dropped.tolist()) == set(range(7, 20))

    def test_small_pool_keeps_computing(self):
        """In exact mode, survivors ≤ slots must not early-accept."""
        pruner = ProgressiveClusterPruner(dispersion_threshold=0.1, exact_rank_mode=True)
        decision = pruner.decide(np.array([0.9, 0.5]), slots_remaining=3)
        assert not decision.triggered

    def test_hopeless_still_dropped(self):
        """Exact mode still prunes candidates with no top-K chance —
        that is where its speedup comes from (§7)."""
        rng = np.random.default_rng(8)
        scores = np.concatenate([rng.normal(0.9, 0.01, 5), rng.normal(0.1, 0.01, 15)])
        pruner = ProgressiveClusterPruner(dispersion_threshold=0.1, exact_rank_mode=True)
        decision = pruner.decide(scores, slots_remaining=3)
        assert decision.dropped.size > 0
