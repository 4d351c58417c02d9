"""Unit tests for tiered relevance generation."""

import numpy as np
import pytest

from repro.data.relevance import RelevanceProfile, Tier


class TestTier:
    def test_draws_clipped_to_unit_interval(self):
        tier = Tier(center=0.95, spread=0.5)
        values = tier.draw(np.random.default_rng(0), 500)
        assert (values >= 0.01).all() and (values <= 0.99).all()

    def test_draws_center_on_tier_mean(self):
        tier = Tier(center=0.5, spread=0.05)
        values = tier.draw(np.random.default_rng(1), 2000)
        assert abs(values.mean() - 0.5) < 0.01


class TestValidation:
    def test_separation_bounds(self):
        with pytest.raises(ValueError):
            RelevanceProfile(separation=0.0)
        with pytest.raises(ValueError):
            RelevanceProfile(separation=1.5)

    def test_rates_bounded(self):
        with pytest.raises(ValueError):
            RelevanceProfile(hard_relevant_rate=1.2)
        with pytest.raises(ValueError):
            RelevanceProfile(invisible_relevant_rate=-0.1)
        with pytest.raises(ValueError):
            RelevanceProfile(plausible_distractor_rate=2.0)

    def test_relevant_tier_rates_sum_at_most_one(self):
        with pytest.raises(ValueError):
            RelevanceProfile(hard_relevant_rate=0.6, invisible_relevant_rate=0.6)

    def test_relevant_range_sane(self):
        with pytest.raises(ValueError):
            RelevanceProfile(relevant_range=(5, 2))
        with pytest.raises(ValueError):
            RelevanceProfile(relevant_range=(-1, 2))


class TestDrawPool:
    def test_shapes(self):
        profile = RelevanceProfile()
        labels, relevance = profile.draw_pool(np.random.default_rng(0), 20)
        assert labels.shape == (20,)
        assert relevance.shape == (20,)
        assert labels.dtype == bool

    def test_relevant_count_within_range(self):
        profile = RelevanceProfile(relevant_range=(3, 7))
        for seed in range(20):
            labels, _ = profile.draw_pool(np.random.default_rng(seed), 20)
            assert 3 <= labels.sum() <= 7

    def test_relevant_count_capped_by_pool(self):
        profile = RelevanceProfile(relevant_range=(8, 15))
        labels, _ = profile.draw_pool(np.random.default_rng(0), 10)
        assert labels.sum() <= 10

    def test_invalid_pool_size_rejected(self):
        with pytest.raises(ValueError):
            RelevanceProfile().draw_pool(np.random.default_rng(0), 0)

    def test_pool_smaller_than_the_relevant_floor_rejected_before_any_draw(self):
        """numpy used to raise its bare "low >= high" from the first draw."""
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"num_candidates \(4\).*relevant_range\[0\] \(5\)"):
            RelevanceProfile(relevant_range=(5, 9)).draw_pool(rng, 4)
        assert rng.bit_generator.state == state
        labels, _ = RelevanceProfile(relevant_range=(5, 9)).draw_pool(rng, 5)
        assert labels.all()

    def test_relevant_docs_read_higher_on_average(self):
        profile = RelevanceProfile()
        rng = np.random.default_rng(7)
        rel_scores, dist_scores = [], []
        for _ in range(50):
            labels, relevance = profile.draw_pool(rng, 20)
            rel_scores.extend(relevance[labels])
            dist_scores.extend(relevance[~labels])
        assert np.mean(rel_scores) > np.mean(dist_scores) + 0.2

    def test_invisible_relevant_band_exists(self):
        """Some ground-truth relevant docs read low — the P@K<1 source."""
        profile = RelevanceProfile(invisible_relevant_rate=0.5)
        rng = np.random.default_rng(3)
        low_relevant = 0
        for _ in range(50):
            labels, relevance = profile.draw_pool(rng, 20)
            low_relevant += int(((relevance < 0.45) & labels).sum())
        assert low_relevant > 0


class TestSeparation:
    def test_compression_squeezes_spread(self):
        wide = RelevanceProfile(separation=1.0)
        narrow = RelevanceProfile(separation=0.4)
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        _, rel_wide = wide.draw_pool(rng_a, 200)
        _, rel_narrow = narrow.draw_pool(rng_b, 200)
        assert rel_narrow.std() < rel_wide.std()

    def test_full_separation_is_identity(self):
        profile = RelevanceProfile(separation=1.0)
        values = np.array([0.1, 0.5, 0.9])
        assert np.array_equal(profile._compress(values), values)
