"""Unit tests for workload representation and batch packing."""

import dataclasses
import itertools
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data.workloads import (
    CandidateSpec,
    RerankQuery,
    build_batch,
    build_batches,
    make_query,
)
from repro.model.shared import shared_tokenizer
from repro.model.zoo import QWEN3_0_6B
from repro.text.tokenizer import Tokenizer
from repro.text.vocab import Vocabulary

# The rows a request may share with its siblings, and the arrays that are its own.
SHARED_FIELDS = ("tokens", "lengths")
OWN_FIELDS = ("relevance", "uids")
BATCH_FIELDS = SHARED_FIELDS + OWN_FIELDS


@pytest.fixture
def query():
    rng = np.random.default_rng(0)
    labels = np.array([True, False, True, False])
    relevance = np.array([0.9, 0.2, 0.8, 0.3])
    return make_query(
        rng, query_id=7, labels=labels, relevance=relevance, query_length=12, doc_length_mean=100
    )


class TestMakeQuery:
    def test_candidate_count(self, query):
        assert query.num_candidates == 4
        assert query.num_relevant == 2

    def test_fields_preserved(self, query):
        assert np.array_equal(query.labels(), [True, False, True, False])
        assert np.allclose(query.relevance(), [0.9, 0.2, 0.8, 0.3])

    def test_uids_unique(self, query):
        assert len(set(query.uids().tolist())) == 4

    def test_lengths_positive_and_bounded(self, query):
        for candidate in query.candidates:
            assert 32 <= candidate.length <= 400

    def test_misaligned_inputs_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            make_query(
                rng,
                query_id=0,
                labels=np.array([True]),
                relevance=np.array([0.5, 0.6]),
                query_length=8,
                doc_length_mean=50,
            )


class TestBuildBatch:
    def test_batch_shape(self, query):
        tokenizer = Tokenizer(Vocabulary(QWEN3_0_6B.vocab_size))
        batch = build_batch(query, tokenizer, QWEN3_0_6B.max_seq_len)
        assert batch.tokens.shape == (4, QWEN3_0_6B.max_seq_len)
        assert batch.size == 4

    def test_relevance_and_uids_carried_through(self, query):
        tokenizer = Tokenizer(Vocabulary(QWEN3_0_6B.vocab_size))
        batch = build_batch(query, tokenizer, QWEN3_0_6B.max_seq_len)
        assert np.allclose(batch.relevance, query.relevance())
        assert np.array_equal(batch.uids, query.uids())

    def test_lengths_reflect_documents(self, query):
        tokenizer = Tokenizer(Vocabulary(QWEN3_0_6B.vocab_size))
        batch = build_batch(query, tokenizer, QWEN3_0_6B.max_seq_len)
        template = tokenizer.template_ids().size
        expected = [min(3 + template + 12 + c.length, 512) for c in query.candidates]
        assert batch.lengths.tolist() == expected

    def test_same_query_same_batch(self, query):
        tokenizer = Tokenizer(Vocabulary(QWEN3_0_6B.vocab_size))
        a = build_batch(query, tokenizer, 512)
        b = build_batch(query, tokenizer, 512)
        assert np.array_equal(a.tokens, b.tokens)


candidates = st.builds(
    CandidateSpec,
    uid=st.integers(0, 2**31 - 1),
    seed=st.integers(0, 2**31 - 1),
    length=st.integers(1, 600),
    relevance=st.floats(0.0, 1.0),
    is_relevant=st.booleans(),
)


@st.composite
def request_lists(draw):
    """Request lists over a few (seed, query_length) keys and candidate heads.

    The heads share a prefix and then diverge; each request takes a
    prefix of one head under one key, so a list mixes exact repeats,
    truncations in either order, diverging candidates under one key and
    different query lengths.  Some requests carry equal copies of the
    candidates instead of the same objects.
    """
    shared = draw(st.lists(candidates, max_size=4))
    tails = draw(st.lists(st.lists(candidates, min_size=1, max_size=3), min_size=1, max_size=3))
    heads = [tuple(shared + tail) for tail in tails]
    keys = draw(
        st.lists(
            st.tuples(st.sampled_from([7, 8]), st.sampled_from([4, 16, 40])),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    picks = st.tuples(
        st.sampled_from(keys), st.sampled_from(heads), st.integers(1, 7), st.booleans()
    )
    queries = []
    for index, ((seed, query_length), head, cut, copied) in enumerate(
        draw(st.lists(picks, min_size=1, max_size=12))
    ):
        chosen = head[:cut]
        if copied:
            chosen = tuple(dataclasses.replace(c) for c in chosen)
        queries.append(
            RerankQuery(
                query_id=index, seed=seed, query_length=query_length, candidates=chosen
            )
        )
    return queries


def _candidate(uid, relevance):
    return CandidateSpec(uid=uid, seed=uid + 11, length=300, relevance=relevance, is_relevant=True)


def _query(query_id, *candidates, seed=7, query_length=16):
    return RerankQuery(
        query_id=query_id, seed=seed, query_length=query_length, candidates=candidates
    )


_HEAD = (_candidate(1, 1.0), _candidate(2, 0.5), _candidate(3, 0.0))


class TestBuildBatches:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(queries=request_lists(), max_len=st.sampled_from([128, 512]))
    # Short before long and long before short.
    @example(
        queries=[_query(0, *_HEAD[:1]), _query(1, *_HEAD), _query(2, *_HEAD[:2])], max_len=512
    )
    def test_each_batch_is_its_own_build_batch(self, queries, max_len):
        tokenizer = shared_tokenizer(QWEN3_0_6B)
        packed = build_batches(queries, tokenizer, max_len)
        assert len(packed) == len(queries)
        for query, batch in zip(queries, packed):
            want = build_batch(query, tokenizer, max_len)
            for field in BATCH_FIELDS:
                got, expected = getattr(batch, field), getattr(want, field)
                assert got.dtype == expected.dtype
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()
            for field in SHARED_FIELDS:
                got = getattr(batch, field)
                assert not got.flags.writeable
                with pytest.raises(ValueError):
                    got[0] = got[0]
        for i, j in itertools.combinations(range(len(queries)), 2):
            for field in OWN_FIELDS:
                assert not np.shares_memory(getattr(packed[i], field), getattr(packed[j], field))
            # Repeats of the same candidate objects under one key share one build.
            a, b = queries[i], queries[j]
            if (
                (a.seed, a.query_length) == (b.seed, b.query_length)
                and len(a.candidates) == len(b.candidates)
                and all(map(operator.is_, a.candidates, b.candidates))
            ):
                assert np.shares_memory(packed[i].tokens, packed[j].tokens)

    def test_empty_list(self):
        assert build_batches([], shared_tokenizer(QWEN3_0_6B), 512) == []

    def test_query_without_candidates_raises_as_build_batch_does(self):
        tokenizer = shared_tokenizer(QWEN3_0_6B)
        empty = _query(1)
        with pytest.raises(ValueError) as direct:
            build_batch(empty, tokenizer, 512)
        # It is a prefix of every head under its key, and still raises.
        with pytest.raises(ValueError) as packed:
            build_batches([_query(0, *_HEAD), empty], tokenizer, 512)
        assert str(packed.value) == str(direct.value)


class TestZipfRequestStream:
    @pytest.fixture
    def base_queries(self):
        rng = np.random.default_rng(42)
        queries = []
        for qid in range(8):
            relevance = rng.uniform(0.05, 0.95, size=6)
            queries.append(
                make_query(
                    rng,
                    query_id=qid,
                    labels=relevance >= 0.5,
                    relevance=relevance,
                    query_length=8,
                    doc_length_mean=40,
                )
            )
        return queries

    def _stream(self, base_queries, seed=0, **kwargs):
        from repro.data.workloads import zipf_request_stream

        return zipf_request_stream(
            np.random.default_rng(seed), base_queries, 64, **kwargs
        )

    @pytest.mark.parametrize("num_requests", [0, 4])
    def test_nan_exponent_rejected_before_any_draw(self, base_queries, num_requests):
        """NaN used to pass the ``zipf_s < 0`` check and fail at the first
        draw, in numpy's "Probabilities contain NaN", or not at all with
        no draw."""
        from repro.data.workloads import zipf_request_stream

        with pytest.raises(ValueError, match="zipf_s must be >= 0"):
            zipf_request_stream(
                np.random.default_rng(0), base_queries, num_requests, zipf_s=float("nan")
            )

    def test_infinite_exponent_repeats_the_first_query(self, base_queries):
        stream = self._stream(base_queries, zipf_s=float("inf"))
        assert stream == [base_queries[0]] * len(stream)

    def test_untagged_stream_deterministic_and_untenanted(self, base_queries):
        a = self._stream(base_queries, partial_overlap_rate=0.4)
        b = self._stream(base_queries, partial_overlap_rate=0.4)
        assert a == b
        assert all(query.tenant is None for query in a)

    def test_tagged_stream_deterministic(self, base_queries):
        tenant_of = lambda i: f"t{i % 3}"  # noqa: E731
        a = self._stream(base_queries, partial_overlap_rate=0.4, tenant_of=tenant_of)
        b = self._stream(base_queries, partial_overlap_rate=0.4, tenant_of=tenant_of)
        assert a == b
        assert all(query.tenant == f"t{i % 3}" for i, query in enumerate(a))

    def test_tenant_substreams_independent(self, base_queries):
        # Swapping one tenant's identity (b -> c) must not perturb the
        # other tenant's variants: each tenant mutates from its own
        # sha256-derived substream, not from the shared draw RNG.
        ab = self._stream(
            base_queries,
            partial_overlap_rate=0.6,
            tenant_of=lambda i: "a" if i % 2 == 0 else "b",
        )
        ac = self._stream(
            base_queries,
            partial_overlap_rate=0.6,
            tenant_of=lambda i: "a" if i % 2 == 0 else "c",
        )
        a_variants = [q for q in ab if q.tenant == "a"]
        assert a_variants == [q for q in ac if q.tenant == "a"]
        b_variants = [q for q in ab if q.tenant == "b"]
        c_variants = [q for q in ac if q.tenant == "c"]
        assert [q.query_id for q in b_variants] == [q.query_id for q in c_variants]

    def test_mutation_cache_keyed_per_tenant(self, base_queries):
        # Two tenants mutating the same hot base query must get
        # *different* variants (cache key is (base index, tenant)), and
        # a repeat within one tenant must reuse its cached variant.
        stream = self._stream(
            base_queries,
            partial_overlap_rate=1.0,
            tenant_of=lambda i: "a" if i % 2 == 0 else "b",
        )
        by_tenant = {}
        for query in stream:
            by_tenant.setdefault((query.tenant, query.query_id), []).append(query)
        for (tenant, qid), variants in by_tenant.items():
            assert all(v == variants[0] for v in variants)  # cached repeat
            other = "b" if tenant == "a" else "a"
            twin = by_tenant.get((other, qid))
            if twin is not None:
                assert twin[0].candidates != variants[0].candidates
