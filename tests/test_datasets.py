"""Unit tests for the 18 dataset generators (§6.1)."""

import numpy as np
import pytest

from repro.data.datasets import (
    ALL_DATASETS,
    BEIR_DATASETS,
    EXTRA_DATASETS,
    get_dataset,
    list_datasets,
)


class TestCatalogue:
    def test_exactly_18_datasets(self):
        assert len(ALL_DATASETS) == 18

    def test_15_beir_plus_3_extra(self):
        assert len(BEIR_DATASETS) == 15
        assert set(EXTRA_DATASETS) == {"lotte", "wikipedia", "coderag"}

    def test_all_retrievable(self):
        for name in ALL_DATASETS:
            assert get_dataset(name).name == name

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError, match="wikipedia"):
            get_dataset("imagenet")

    def test_list_matches_catalogue(self):
        assert tuple(list_datasets()) == ALL_DATASETS

    def test_seeds_unique(self):
        seeds = {get_dataset(name).seed for name in ALL_DATASETS}
        assert len(seeds) == 18


class TestProfiles:
    def test_arguana_single_relevant(self):
        """ArguAna queries have exactly one counter-argument."""
        assert get_dataset("arguana").profile.relevant_range == (1, 1)

    def test_pool_below_a_datasets_relevant_floor_rejected_by_name(self):
        """trec-covid needs at least 6 candidates; numpy used to raise
        its bare "low >= high"."""
        with pytest.raises(ValueError, match=r"num_candidates \(4\).*relevant_range\[0\] \(6\)"):
            get_dataset("trec-covid").queries(2, 4)

    def test_quora_short_documents(self):
        """Quora candidates are duplicate questions — short texts."""
        assert get_dataset("quora").doc_length_mean < 200

    def test_coderag_long_documents(self):
        assert get_dataset("coderag").doc_length_mean > 450

    def test_separation_varies_across_datasets(self):
        """Per-dataset separation spread drives Table 3's reduction range."""
        separations = {get_dataset(n).profile.separation for n in ALL_DATASETS}
        assert max(separations) - min(separations) > 0.3


class TestQueryGeneration:
    def test_deterministic(self):
        a = get_dataset("wikipedia").queries(3, num_candidates=20)
        b = get_dataset("wikipedia").queries(3, num_candidates=20)
        assert len(a) == len(b) == 3
        for qa, qb in zip(a, b):
            assert qa.seed == qb.seed
            assert np.array_equal(qa.relevance(), qb.relevance())

    def test_requested_pool_size(self):
        queries = get_dataset("msmarco").queries(2, num_candidates=30)
        assert all(q.num_candidates == 30 for q in queries)

    def test_different_datasets_differ(self):
        a = get_dataset("nq").queries(1)[0]
        b = get_dataset("fever").queries(1)[0]
        assert not np.array_equal(a.relevance(), b.relevance())

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            get_dataset("nq").queries(0)

    def test_labels_respect_profile_range(self):
        spec = get_dataset("arguana")
        for query in spec.queries(5):
            assert query.num_relevant == 1
