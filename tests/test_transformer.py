"""Unit tests for CrossEncoderModel: the per-layer forward API."""

import numpy as np
import pytest

from repro.model.transformer import CandidateBatch, CrossEncoderModel
from repro.model.zoo import BGE_M3, PAPER_MODELS, QWEN3_0_6B, QWEN3_4B_INSTRUCT_AS_RERANKER
from repro.text.tokenizer import Tokenizer
from repro.text.vocab import Vocabulary


@pytest.fixture(scope="module")
def model():
    return CrossEncoderModel(QWEN3_0_6B)


def make_batch(config, n=4, seed=0):
    tokenizer = Tokenizer(Vocabulary(config.vocab_size))
    rng = np.random.default_rng(seed)
    query = tokenizer.encode_synthetic(seed + 1, 12)
    docs = [tokenizer.encode_synthetic(seed + 10 + i, 200) for i in range(n)]
    tokens = tokenizer.batch_pairs(query, docs, config.max_seq_len)
    return CandidateBatch(
        tokens=tokens,
        lengths=tokenizer.attention_lengths(tokens),
        relevance=rng.uniform(0.05, 0.95, size=n),
        uids=rng.integers(0, 2**31, size=n),
    )


class TestCandidateBatch:
    def test_size(self, model):
        batch = make_batch(QWEN3_0_6B, n=5)
        assert batch.size == 5

    def test_misaligned_fields_rejected(self):
        with pytest.raises(ValueError):
            CandidateBatch(
                tokens=np.zeros((3, 8), dtype=np.int64),
                lengths=np.array([8, 8]),
                relevance=np.zeros(3),
                uids=np.zeros(3, dtype=np.int64),
            )

    def test_select_subsets_all_fields(self):
        batch = make_batch(QWEN3_0_6B, n=5)
        sub = batch.select(np.array([1, 3]))
        assert sub.size == 2
        assert sub.relevance[0] == batch.relevance[1]
        assert sub.uids[1] == batch.uids[3]


class TestForwardOrdering:
    def test_layers_must_run_in_order(self, model):
        state = model.embed(make_batch(QWEN3_0_6B), numerics=False)
        with pytest.raises(ValueError):
            model.forward_layer(state, 1)  # expected 0 first

    def test_layer_done_advances(self, model):
        state = model.embed(make_batch(QWEN3_0_6B), numerics=False)
        assert state.layer_done == -1
        model.forward_layer(state, 0)
        assert state.layer_done == 0

    def test_cannot_score_before_any_layer(self, model):
        state = model.embed(make_batch(QWEN3_0_6B), numerics=False)
        with pytest.raises(ValueError):
            model.score(state)


#: Every zoo config: the five paper models plus the generality extension.
ZOO_CONFIGS = (*PAPER_MODELS, QWEN3_4B_INSTRUCT_AS_RERANKER)


def assert_numerics_bitwise(config):
    """Full-depth scores with numerics on equal the direct semantic
    path bit for bit (the injection construction guarantees it)."""
    model = CrossEncoderModel(config)
    batch = make_batch(config, n=3)
    fast = model.full_forward(batch, numerics=False)
    slow = model.full_forward(batch, numerics=True)
    assert fast.tobytes() == slow.tobytes()


class TestNumericsEquivalence:
    def test_numerics_and_fast_path_scores_match(self):
        assert_numerics_bitwise(QWEN3_0_6B)

    def test_numerics_equivalence_encoder(self):
        assert_numerics_bitwise(BGE_M3)

    @pytest.mark.parametrize(
        "config",
        [c for c in ZOO_CONFIGS if c not in (QWEN3_0_6B, BGE_M3)],
        ids=lambda c: c.name,
    )
    def test_rest_of_zoo_matches(self, config):
        """The other four zoo configs; with the two above, all six."""
        assert_numerics_bitwise(config)

    def test_intermediate_scores_also_match(self):
        model = CrossEncoderModel(QWEN3_0_6B)
        batch = make_batch(QWEN3_0_6B, n=3)
        state_fast = model.embed(batch, numerics=False)
        state_slow = model.embed(batch, numerics=True)
        for layer in range(4):
            model.forward_layer(state_fast, layer)
            model.forward_layer(state_slow, layer)
            assert model.score(state_fast).tobytes() == model.score(state_slow).tobytes()


class TestFullForward:
    def test_scores_track_relevance(self, model):
        batch = make_batch(QWEN3_0_6B, n=8, seed=3)
        scores = model.full_forward(batch, numerics=False)
        # Rank correlation with true relevance should be strong at the
        # final layer (small residual noise only).
        rank_scores = np.argsort(np.argsort(scores))
        rank_rel = np.argsort(np.argsort(batch.relevance))
        agreement = np.corrcoef(rank_scores, rank_rel)[0, 1]
        assert agreement > 0.8

    def test_deterministic(self, model):
        batch = make_batch(QWEN3_0_6B, n=4, seed=9)
        a = model.full_forward(batch, numerics=False)
        b = model.full_forward(batch, numerics=False)
        assert np.array_equal(a, b)


class TestSimTokens:
    def test_strided_shape(self, model):
        batch = make_batch(QWEN3_0_6B, n=2)
        tokens, sim_lengths = model.sim_tokens(batch)
        assert tokens.shape == (2, QWEN3_0_6B.sim_seq_len)
        assert (sim_lengths >= 1).all()
        assert (sim_lengths <= QWEN3_0_6B.sim_seq_len).all()
