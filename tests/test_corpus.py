"""Unit tests for the synthetic topical corpus."""

import numpy as np
import pytest

from repro.retrieval.corpus import SyntheticCorpus


@pytest.fixture(scope="module")
def corpus():
    return SyntheticCorpus(num_docs=100, num_topics=10, words_per_doc=80)


class TestConstruction:
    def test_document_count(self, corpus):
        assert len(corpus) == 100

    def test_topics_round_robin(self, corpus):
        assert corpus.document(0).topic_id == 0
        assert corpus.document(13).topic_id == 3

    def test_deterministic(self):
        a = SyntheticCorpus(num_docs=30, num_topics=3, words_per_doc=40, seed=1)
        b = SyntheticCorpus(num_docs=30, num_topics=3, words_per_doc=40, seed=1)
        assert a.document(7).words == b.document(7).words

    def test_seeds_vary_content(self):
        a = SyntheticCorpus(num_docs=30, num_topics=3, words_per_doc=40, seed=1)
        b = SyntheticCorpus(num_docs=30, num_topics=3, words_per_doc=40, seed=2)
        assert a.document(7).words != b.document(7).words

    def test_purity_bounds(self, corpus):
        for doc in corpus.documents:
            assert 0.10 <= doc.purity <= 0.80

    def test_documents_contain_topic_words(self, corpus):
        doc = corpus.document(0)
        topical = [w for w in doc.words if w.startswith("t000")]
        assert len(topical) / len(doc.words) == pytest.approx(doc.purity, abs=0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticCorpus(num_docs=0)
        with pytest.raises(ValueError):
            SyntheticCorpus(num_docs=5, num_topics=10)

    @pytest.mark.parametrize("knob", ["common_vocab_size", "topic_vocab_size"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_empty_vocabularies_rejected_by_name(self, knob, value):
        """numpy used to fail mid-build with "a must be a positive
        integer" or "high <= 0"."""
        with pytest.raises(ValueError, match=knob):
            SyntheticCorpus(num_docs=4, num_topics=2, **{knob: value})
        SyntheticCorpus(num_docs=4, num_topics=2, **{knob: 1})

    def test_doc_id_bounds(self, corpus):
        with pytest.raises(IndexError):
            corpus.document(100)
        with pytest.raises(IndexError):
            corpus.document(-1)


class TestTopicRelations:
    def test_same(self, corpus):
        assert corpus.topic_relation(3, 3) == "same"

    def test_adjacent_on_ring(self, corpus):
        assert corpus.topic_relation(3, 4) == "adjacent"
        assert corpus.topic_relation(0, 9) == "adjacent"  # ring wrap

    def test_unrelated(self, corpus):
        assert corpus.topic_relation(0, 5) == "unrelated"


class TestQueries:
    def test_ground_truth_shapes(self, corpus):
        query = corpus.make_query(0, topic_id=2)
        assert query.relevance.shape == (100,)
        assert query.labels.shape == (100,)

    def test_labels_are_same_topic_docs(self, corpus):
        query = corpus.make_query(0, topic_id=2)
        for doc in corpus.documents:
            assert query.labels[doc.doc_id] == (doc.topic_id == 2)

    def test_relevance_tiers_by_relation(self, corpus):
        query = corpus.make_query(1, topic_id=4)
        same = [query.relevance[d.doc_id] for d in corpus.documents if d.topic_id == 4]
        adjacent = [
            query.relevance[d.doc_id]
            for d in corpus.documents
            if corpus.topic_relation(4, d.topic_id) == "adjacent"
        ]
        unrelated = [
            query.relevance[d.doc_id]
            for d in corpus.documents
            if corpus.topic_relation(4, d.topic_id) == "unrelated"
        ]
        assert np.mean(same) > np.mean(adjacent) > np.mean(unrelated)

    def test_purity_modulates_perceived_relevance(self, corpus):
        query = corpus.make_query(2, topic_id=0)
        same_topic = [d for d in corpus.documents if d.topic_id == 0]
        high = [d for d in same_topic if d.purity > 0.5]
        low = [d for d in same_topic if d.purity < 0.3]
        if high and low:
            assert np.mean([query.relevance[d.doc_id] for d in high]) > np.mean(
                [query.relevance[d.doc_id] for d in low]
            )

    def test_needed_docs_are_high_purity_same_topic(self, corpus):
        query = corpus.make_query(3, topic_id=5)
        assert len(query.needed) == 2
        purities = sorted(d.purity for d in corpus.documents if d.topic_id == 5)
        for doc_id in query.needed:
            doc = corpus.document(doc_id)
            assert doc.topic_id == 5
            assert doc.purity >= purities[-3]

    def test_query_words_topical(self, corpus):
        query = corpus.make_query(4, topic_id=7)
        assert all(w.startswith("t007") for w in query.words)

    def test_deterministic(self, corpus):
        a = corpus.make_query(5, topic_id=1)
        b = corpus.make_query(5, topic_id=1)
        assert np.array_equal(a.relevance, b.relevance)
        assert a.words == b.words

    def test_make_queries_cycles_topics(self, corpus):
        queries = corpus.make_queries(12)
        assert [q.topic_id for q in queries[:3]] == [0, 1, 2]
        assert queries[10].topic_id == 0

    def test_invalid_topic_rejected(self, corpus):
        with pytest.raises(ValueError):
            corpus.make_query(0, topic_id=10)

    def test_invalid_query_count_rejected(self, corpus):
        with pytest.raises(ValueError):
            corpus.make_queries(0)

    def test_relevant_ids_helper(self, corpus):
        query = corpus.make_query(6, topic_id=3)
        assert set(query.relevant_ids().tolist()) == {
            d.doc_id for d in corpus.documents if d.topic_id == 3
        }
