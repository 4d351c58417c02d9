"""The simulator's fast paths are exact rewrites.

Each production routine must reproduce its reference in
``tests/reference_impls.py`` bit for bit: cluster labels, centre and
inertia bytes, the CV trigger, the score noise, every observable of the
two LRU row caches and of the memory tracker after every operation (a
replayed run of chunk charges included), and every packed token id.
The end-to-end tests run the five offline systems, and PRISM with its
hidden-state ring, with the references patched in and require
identical results, so no prune decision, latency or memory staircase
can drift.  A batch packs its tokens on first read: the packing tests
also check that it packs nothing that is never read, and once what is.
The seeded input generators (traffic, request streams, dataset queries
and corpora) must give the same bytes and leave their generator in the
same state as the references, which draw through ``Generator.choice``
and ``np.clip``.
"""

import copy
import math
import struct
from collections import Counter
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import clustering, pruning
from repro.core.chunking import HiddenStateRing
from repro.core.config import PrismConfig
from repro.core.data_plane import SharedEmbeddingCache
from repro.core.embedding_cache import EmbeddingCache
from repro.core.engine import EngineBase
from repro.data.datasets import ALL_DATASETS, get_dataset
from repro.data.relevance import RelevanceProfile
from repro.data.traffic import (
    ARRIVAL_PROCESSES,
    TRAFFIC_SLO_CLASSES,
    TrafficConfig,
    generate_traffic,
    render_traffic,
)
from repro.data.workloads import (
    CandidateSpec,
    RerankQuery,
    build_batch,
    build_batches,
    make_query,
    weighted_draws,
    zipf_request_stream,
)
from repro.device.clock import VirtualClock
from repro.device.executor import DeviceExecutor
from repro.device.memory import MemoryTracker, OutOfMemoryError
from repro.device.platforms import NVIDIA_5070
from repro.harness.runner import SYSTEMS, run_system, shared_model, shared_tokenizer
from repro.model import semantics
from repro.model.transformer import CandidateBatch
from repro.model.zoo import get_model_config
from repro.retrieval.corpus import SyntheticCorpus
from repro.text.tokenizer import Tokenizer
from repro.text.vocab import Vocabulary
from tests import reference_impls as ref

EXACT = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)

#: Three copies of this score sum to a double whose third is the next
#: double up, so one Lloyd update can tie two clusters' means.
X_TIE = 0.35578104737391236


@st.composite
def score_vectors(draw) -> np.ndarray:
    """Score vectors with the shapes that stress 1-D k-means: free values,
    heavy duplicates, values a few ulps apart, constants, tight tiers and
    Gaussian blobs (the shape of most pruning checks, which the scan
    settles without Lloyd)."""
    n = draw(st.integers(min_value=1, max_value=64))
    kind = draw(st.sampled_from(["free", "duplicates", "ulps", "constant", "tiers", "blob"]))
    if kind == "free":
        values = draw(st.lists(finite, min_size=n, max_size=n))
    elif kind == "duplicates":
        pool = draw(st.lists(finite, min_size=1, max_size=4))
        values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    elif kind == "ulps":
        base = draw(finite)
        steps = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n))
        values = [base + step * np.spacing(base) for step in steps]
    elif kind == "constant":
        values = [draw(finite)] * n
    elif kind == "blob":
        centre = draw(finite)
        spread = draw(st.sampled_from([1e-3, 1e-2, 0.1]))
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
        values = centre + spread * rng.standard_normal(n)
    else:
        centres = draw(st.lists(finite, min_size=1, max_size=5))
        picks = draw(st.lists(st.integers(0, len(centres) - 1), min_size=n, max_size=n))
        jitter = draw(st.lists(st.floats(-1e-3, 1e-3), min_size=n, max_size=n))
        values = [centres[p] + j for p, j in zip(picks, jitter)]
    return np.array(values, dtype=np.float64)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_clustering(got, want) -> None:
    assert same_bits(got.labels, want.labels)
    assert same_bits(got.centers, want.centers)
    assert type(got.inertia) is type(want.inertia)
    assert same_bits(np.float64(got.inertia), np.float64(want.inertia))


class TestClustering:
    @EXACT
    @given(scores=score_vectors(), max_clusters=st.integers(min_value=1, max_value=8))
    @example(scores=np.array([0.1, 0.1, 0.1]), max_clusters=3)
    @example(scores=np.array([0.5, np.nextafter(0.5, 1.0), 0.9, 0.9]), max_clusters=4)
    @example(scores=np.array([-0.0, 0.0, 0.3, 0.3, 0.9]), max_clusters=5)
    # The widest step is exactly MIN_SEPARATION times the median of the
    # others, and the test is strict: the scan must run, and it splits.
    @example(scores=np.array([0.0, 1.0, 2.0, 3.0, 10.0]), max_clusters=2)
    # n == max_clusters: the all-singleton k passes the separation test.
    @example(scores=np.array([0.0, 1.0, 2.0, 3.0]), max_clusters=4)
    # A blob with one tie, which rules the early exit out.
    @example(scores=np.array([0.5, 0.52, 0.47, 0.52, 0.49, 0.51, 0.53, 0.48]), max_clusters=6)
    # A centre that cancels to 0.0, and two centres one ulp apart.
    @example(scores=np.array([-0.5, 0.5, -0.25, 0.25, 3.0, 3.0, 3.0]), max_clusters=3)
    @example(scores=np.array([0.7, np.nextafter(0.7, 1.0)] * 2), max_clusters=2)
    def test_cluster_scores_bitwise(self, scores, max_clusters):
        got = clustering.cluster_scores(scores, max_clusters=max_clusters)
        assert_same_clustering(got, ref.cluster_scores(scores, max_clusters=max_clusters))

    @EXACT
    @given(
        scores=score_vectors(),
        k=st.integers(min_value=0, max_value=8),
        max_iter=st.sampled_from([0, 1, 2, 50]),
    )
    @example(scores=np.array([-0.0, 0.0, -0.0, 0.0, 1.0, 1.0]), k=2, max_iter=50)
    @example(scores=np.repeat([0.5, np.nextafter(0.5, 1.0)], 2), k=2, max_iter=50)
    # One update leaves both occupied means on the same double: ranked as
    # numpy's argsort ranks ties.
    @example(scores=np.array([X_TIE] * 3 + [np.nextafter(X_TIE, 1.0)] * 2), k=2, max_iter=1)
    def test_kmeans_1d_bitwise(self, scores, k, max_iter):
        got = clustering.kmeans_1d(scores, k, max_iter=max_iter)
        assert_same_clustering(got, ref.kmeans_1d(scores, k, max_iter=max_iter))

    @EXACT
    @given(
        scores=score_vectors(),
        labels=st.lists(st.integers(0, 5), min_size=64, max_size=64),
        min_separation=st.sampled_from([0.0, 1.0, clustering.MIN_SEPARATION, 50.0]),
    )
    def test_separation_test_matches_on_any_clustering(self, scores, labels, min_separation):
        """Including clusters that interleave in sorted order, which
        take the cluster-by-cluster path."""
        labels = np.array(labels[: scores.size])
        occupied = np.unique(labels)
        means = np.array([scores[labels == c].mean() for c in occupied])
        rank = np.empty(labels.max() + 1, dtype=np.int64)
        rank[occupied[np.argsort(-means, kind="stable")]] = np.arange(occupied.size)
        candidate = clustering.Clustering(
            labels=rank[labels], centers=np.sort(means)[::-1], inertia=0.0
        )
        got = clustering._well_separated(
            scores, np.argsort(scores), candidate, min_separation
        )
        assert got == ref._well_separated(scores, candidate, min_separation)

    def test_blobs_skip_lloyd_and_tiers_do_not(self, monkeypatch):
        """The early exit stays live: Gaussian blobs of 8 and 20 scores
        are settled without a Lloyd run, two tiers still run it."""
        runs = Counter()
        lloyd = clustering._lloyd

        def counted(*args, **kwargs):
            runs["lloyd"] += 1
            return lloyd(*args, **kwargs)

        monkeypatch.setattr(clustering, "_lloyd", counted)
        rng = np.random.default_rng(4)
        for n in (8, 20):
            blob = rng.normal(0.5, 0.02, n)
            result = clustering.cluster_scores(blob)
            assert runs["lloyd"] == 0
            assert_same_clustering(result, ref.cluster_scores(blob))
        tiers = np.concatenate([rng.normal(0.9, 0.005, 5), rng.normal(0.2, 0.02, 15)])
        result = clustering.cluster_scores(tiers)
        assert runs["lloyd"] > 0
        assert result.num_clusters == 2
        assert_same_clustering(result, ref.cluster_scores(tiers))

    @pytest.mark.parametrize(
        "scores",
        [
            np.array([-np.inf, 0.117, 0.916, -np.inf, 0.494, 0.901]),
            np.array([np.nan, 0.5, 0.9]),
            np.array([0.1, np.inf]),
        ],
    )
    def test_non_finite_scores_rejected(self, scores):
        """On every path, the one-cluster returns included."""
        for max_clusters in (1, 4):
            with pytest.raises(ValueError, match="finite"):
                clustering.cluster_scores(scores, max_clusters=max_clusters)
        for k in (1, 2):
            with pytest.raises(ValueError, match="finite"):
                clustering.kmeans_1d(scores, k)


class TestPruningTrigger:
    @EXACT
    @given(scores=score_vectors())
    @example(scores=np.array([0.0, 0.0]))
    @example(scores=np.array([-0.25, 0.25]))
    def test_coefficient_of_variation_bitwise(self, scores):
        got = pruning.coefficient_of_variation(scores)
        want = ref.coefficient_of_variation(scores)
        assert type(got) is type(want)
        assert same_bits(np.float64(got), np.float64(want))


MODELS = st.sampled_from(["qwen3-reranker-0.6b", "qwen3-reranker-8b", "bge-reranker-v2-m3"])


class TestScoreNoise:
    @EXACT
    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        uids=st.lists(st.integers(min_value=-(2**40), max_value=2**63 - 1), max_size=40),
        layer=st.integers(min_value=0, max_value=80),
    )
    def test_unit_normals_bitwise(self, seed, uids, layer):
        uids = np.array(uids, dtype=np.int64)
        assert same_bits(
            semantics._unit_normals(seed, uids, layer), ref._unit_normals(seed, uids, layer)
        )

    def test_scalar_uid_bitwise(self):
        got = semantics._unit_normals(7, 2**63 + 5, 3)
        want = ref._unit_normals(7, 2**63 + 5, 3)
        assert type(got) is type(want) and same_bits(got, want)

    @EXACT
    @given(model=MODELS, data=st.data())
    def test_scores_at_bitwise(self, model, data):
        config = get_model_config(model)
        dynamics = semantics.ScoreDynamics(config.semantics, config.num_layers, config.model_seed)
        for _ in range(4):  # repeated layers hit the per-layer terms
            layer = data.draw(st.integers(0, config.num_layers - 1))
            n = data.draw(st.integers(0, 24))
            relevance = np.array(data.draw(st.lists(st.floats(0, 1), min_size=n, max_size=n)))
            uids = np.array(data.draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n)))
            assert same_bits(
                dynamics.scores_at(layer, relevance, uids),
                ref.scores_at(dynamics, layer, relevance, uids),
            )

    @EXACT
    @given(model=MODELS, data=st.data())
    def test_noise_table_entries_are_the_per_layer_draws(self, model, data):
        """Each entry is the reference draw of that one candidate at that
        one layer, whichever uids share the table and in whatever order."""
        dynamics = shared_model(get_model_config(model)).dynamics
        last = dynamics.num_layers - 1
        pool = data.draw(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=12, unique=True))
        uids = np.array(data.draw(st.permutations(pool))[: data.draw(st.integers(1, len(pool)))])
        first = data.draw(st.one_of(st.sampled_from([0, last]), st.integers(0, last)))
        table = dynamics.noise(uids, first)
        assert table.shape == (dynamics.num_layers - first, uids.size)
        assert same_bits(table, ref.noise(dynamics, uids, first))
        for row, layer in enumerate(range(first, dynamics.num_layers)):
            for column, uid in enumerate(uids):
                solo = ref._unit_normals(dynamics.model_seed, np.array([uid]), layer)
                assert same_bits(table[row, column], solo[0])

    @EXACT
    @given(model=MODELS, data=st.data())
    def test_pruned_sub_state_scores_match_the_reference(self, model, data):
        """A pass's scores from its first read on, before and after a
        prune keeps some columns of its noise table, in any order."""
        cross_encoder = shared_model(get_model_config(model))
        dynamics = cross_encoder.dynamics
        n = data.draw(st.integers(1, 24))
        uids = data.draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n, unique=True))
        relevance = data.draw(st.lists(st.floats(0, 1), min_size=n, max_size=n))
        batch = CandidateBatch(
            tokens=np.zeros((n, 4), dtype=np.int64),
            lengths=np.full(n, 4),
            relevance=np.array(relevance),
            uids=np.array(uids, dtype=np.int64),
        )
        first = data.draw(st.integers(0, dynamics.num_layers - 1))
        prune_at = data.draw(st.integers(first, dynamics.num_layers - 1))
        state = cross_encoder.embed(batch, numerics=False)
        for layer in range(dynamics.num_layers):
            cross_encoder.forward_layer(state, layer)
            if layer < first:
                continue
            want = ref.scores_at(dynamics, layer, state.batch.relevance, state.batch.uids)
            assert same_bits(cross_encoder.score(state), want)
            if layer == prune_at:
                order = data.draw(st.permutations(range(state.size)))
                keep = np.array(order[: data.draw(st.integers(1, state.size))])
                state = pruning.subset_state(state, keep)
                assert same_bits(state.batch.uids, batch.uids[keep])
                want = ref.scores_at(dynamics, layer, state.batch.relevance, state.batch.uids)
                assert same_bits(cross_encoder.score(state), want)

    @pytest.mark.parametrize("model", ["qwen3-reranker-0.6b", "bge-reranker-v2-m3"])
    def test_injected_channel_matches_the_reference_at_every_crossing(self, model):
        """With numerics on, the readout channel after every crossing, and
        the head's score of it, is the reference score, also after a prune."""
        config = get_model_config(model)
        cross_encoder = shared_model(config)
        dynamics = cross_encoder.dynamics
        query = get_dataset(ALL_DATASETS[0]).queries(1, 12)[0]
        batch = build_batch(query, tokenizer_of(config.vocab_size), config.max_seq_len)
        state = cross_encoder.embed(batch, numerics=True)
        for layer in range(config.num_layers):
            cross_encoder.forward_layer(state, layer)
            if layer == config.num_layers // 2:
                state = pruning.subset_state(state, np.array([7, 1, 2, 10]))
            want = ref.scores_at(dynamics, layer, state.batch.relevance, state.batch.uids)
            readout = cross_encoder.classifier.readout_positions(state.sim_lengths)
            assert same_bits(state.hidden[np.arange(state.size), readout, 0], want)
            assert same_bits(cross_encoder.score(state), want)


# ---------------------------------------------------------------------------
# a pass's selection
# ---------------------------------------------------------------------------
def assert_same_selection(got, want) -> None:
    """``got`` carries the reference loop's top-K indices, score bytes
    and prune events, ``want``."""
    indices, scores, events = want
    assert same_bits(got.top_indices, indices)
    assert same_bits(got.top_scores, scores)
    assert got.prune_events == events


class TestPassSelection:
    @EXACT
    @given(
        model=MODELS,
        name=st.sampled_from(ALL_DATASETS),
        query=st.integers(0, 2),
        k=st.integers(1, 24),
        threshold=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        exact_rank_mode=st.booleans(),
        max_clusters=st.integers(2, 8),
        pruning_enabled=st.booleans(),
        data=st.data(),
    )
    def test_plan_is_the_engine_loop(
        self, model, name, query, k, threshold, exact_rank_mode, max_clusters, pruning_enabled, data
    ):
        """``plan_selection`` against the decision loop PRISM's pass used to
        run inline, with every knob the loop reads drawn."""
        config = get_model_config(model)
        cross_encoder = shared_model(config)
        batch = build_batch(
            get_dataset(name).queries(3, 20)[query], shared_tokenizer(config), config.max_seq_len
        )
        prism_config = PrismConfig(
            numerics=False,
            dispersion_threshold=threshold,
            exact_rank_mode=exact_rank_mode,
            min_layers_before_pruning=data.draw(st.integers(0, config.num_layers)),
            max_clusters=max_clusters,
            pruning_enabled=pruning_enabled,
        )
        assert_same_selection(
            pruning.plan_selection(cross_encoder, batch, k, prism_config),
            ref.select(cross_encoder, batch, k, prism_config),
        )

    def test_bad_requests_rejected(self):
        config = get_model_config("qwen3-reranker-0.6b")
        batch = build_batch(scifact_query(), shared_tokenizer(config), config.max_seq_len)
        with pytest.raises(ValueError, match="positive k"):
            pruning.plan_selection(shared_model(config), batch, 0, PrismConfig(numerics=False))
        with pytest.raises(ValueError, match="non-empty batch"):
            empty = batch.select(np.arange(0))
            pruning.plan_selection(shared_model(config), empty, 3, PrismConfig(numerics=False))


# ---------------------------------------------------------------------------
# the LRU row caches
# ---------------------------------------------------------------------------
VOCAB = 40

token_batches = st.one_of(
    st.lists(st.integers(0, VOCAB - 1), max_size=24).map(lambda xs: np.array(xs, dtype=np.int64)),
    st.lists(st.integers(0, VOCAB - 1), min_size=6, max_size=6).map(
        lambda xs: np.array(xs, dtype=np.int64).reshape(2, 3)
    ),
)


def executor() -> DeviceExecutor:
    return DeviceExecutor(NVIDIA_5070.create())


class TestPrivateCache:
    @EXACT
    @given(
        capacity=st.integers(min_value=1, max_value=8),
        lookups=st.lists(token_batches, min_size=1, max_size=30),
    )
    def test_every_lookup_matches_the_ordered_dict(self, capacity, lookups):
        cache = EmbeddingCache(capacity, 512, executor())
        reference = ref.EmbeddingCache(capacity, 512, executor())
        cache.allocate()
        reference.allocate()
        for tokens in lookups:
            assert cache.lookup(tokens) == reference.lookup(tokens)
            assert cache.total_evictions == reference.total_evictions
            assert cache.resident_rows == reference.resident_rows
            assert [cache.is_resident(t) for t in range(VOCAB + 2)] == [
                reference.is_resident(t) for t in range(VOCAB + 2)
            ]
        assert cache.hit_rate == reference.hit_rate

    def test_long_run_compacts_the_log(self):
        """Thousands of touches on a small cache force log compaction."""
        cache = EmbeddingCache(64, 512, executor())
        reference = ref.EmbeddingCache(64, 512, executor())
        cache.allocate()
        reference.allocate()
        rng = np.random.default_rng(11)
        for _ in range(300):
            tokens = rng.zipf(1.3, size=rng.integers(1, 90)) % 500
            assert cache.lookup(tokens) == reference.lookup(tokens)
        assert cache.total_evictions == reference.total_evictions
        assert [cache.is_resident(t) for t in range(500)] == [
            reference.is_resident(t) for t in range(500)
        ]


shared_ops = st.lists(
    st.one_of(
        token_batches.map(lambda tokens: ("lookup", tokens)),
        st.integers(0, 7).map(lambda i: ("release", i)),
    ),
    min_size=1,
    max_size=40,
)


class TestSharedCache:
    @EXACT
    @given(capacity=st.integers(min_value=1, max_value=6), ops=shared_ops)
    @example(  # every row pinned: admissions overflow, then catch up
        capacity=2,
        ops=[
            ("lookup", np.array([1, 2])),
            ("lookup", np.array([3, 4, 5])),
            ("release", 0),
            ("release", 0),
            ("lookup", np.array([6])),
            ("lookup", np.array([7, 8, 1])),
        ],
    )
    def test_every_operation_matches_the_ordered_dict(self, capacity, ops):
        cache = SharedEmbeddingCache(capacity_rows=capacity)
        reference = ref.SharedEmbeddingCache(capacity_rows=capacity)
        ours, theirs = executor(), executor()
        cache.attach(ours, VOCAB, 512)
        reference.attach(theirs, VOCAB, 512)
        pins = []
        for op, arg in ops:
            if op == "lookup":
                got, pin = cache.lookup(arg, ours)
                want, reference_pin = reference.lookup(arg, theirs)
                assert got == want
                pins.append((pin, reference_pin))
            elif pins:
                pin, reference_pin = pins[arg % len(pins)]  # may release twice
                pin.release()
                reference_pin.release()
            assert cache.total_evictions == reference.total_evictions
            assert cache.pinned_overflow == reference.pinned_overflow
            assert cache.resident_rows == reference.resident_rows
            assert cache.pinned_rows == reference.pinned_rows
            assert [cache.is_resident(t) for t in range(VOCAB + 2)] == [
                reference.is_resident(t) for t in range(VOCAB + 2)
            ]


# ---------------------------------------------------------------------------
# the memory tracker
# ---------------------------------------------------------------------------
NAMES = ("a", "b", "c", "d")
CATEGORIES = ("weights", "hidden", "other")
#: A category no generated operation uses before a chunk run.
FRESH = "intermediate"
BUDGET = 100

tracker_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("alloc"),
            st.sampled_from(NAMES),
            st.sampled_from([0, 1, 7, 50, 99, 100, 101, -1]),
            st.sampled_from(CATEGORIES),
        ),
        # Allocate exactly up to the budget, or one byte past it.
        st.tuples(
            st.just("fill"),
            st.sampled_from(NAMES),
            st.sampled_from([0, 1]),
            st.sampled_from(CATEGORIES),
        ),
        st.tuples(st.sampled_from(["free", "free_if_live"]), st.sampled_from(NAMES + ("ghost",))),
        st.tuples(st.just("advance"), st.sampled_from([0.0, 1e-9, 0.1, 0.25, 1 / 3])),
    ),
    min_size=1,
    max_size=40,
)


def _apply(tracker, op: tuple):
    """Run one op; return its result, or the type and message of what it raised."""
    kind, *args = op
    try:
        if kind == "alloc":
            tracker.alloc(args[0], args[1], args[2])
        elif kind == "fill":
            budget = tracker.budget_bytes if tracker.budget_bytes is not None else BUDGET
            tracker.alloc(args[0], budget - tracker.in_use + args[1], args[2])
        elif kind == "free":
            tracker.free(args[0])
        elif kind == "free_if_live":
            return tracker.free_if_live(args[0])
    except Exception as exc:
        return type(exc), str(exc)
    return None


def _points(timeline) -> list:
    return [(type(p).__name__, p.time, type(p.in_use), p.in_use) for p in timeline]


def _float_bits(value: float) -> bytes:
    return struct.pack("<d", value)


def chunk_run(**changes):
    """An ``@example`` for the chunk-run test: a run of three 7-byte
    chunks of a fresh category, named ``a``, after one live allocation,
    with ``changes`` applied."""
    case = dict(
        budget=None,
        start=0.0,
        ops=[("alloc", "b", 7, "hidden")],
        name="a",
        nbytes=7,
        category=FRESH,
        duration=0.1,
        count=3,
        headroom=None,
    )
    return example(**{**case, **changes})


def _rounds(tracker, name: str, nbytes: int, category: str, duration: float, count: int):
    """What ``MemoryTracker.transients`` replays, one call at a time."""
    for _ in range(count):
        tracker.alloc(name, nbytes, category)
        tracker.clock.advance(duration)
        tracker.free(name)


def assert_same_tracker(got: MemoryTracker, want: "ref.MemoryTracker") -> None:
    assert got.in_use == want.in_use and got.peak == want.peak
    for name in NAMES + ("ghost",):
        assert got.is_live(name) == want.is_live(name)
        assert got.live_bytes(name) == want.live_bytes(name)
    assert _points(got.timeline()) == _points(want.timeline())
    assert len(got._timeline) == len(want._timeline)  # the staircase-point count
    for category in CATEGORIES + (FRESH, "never"):
        assert got.in_use_by_category(category) == want.in_use_by_category(category)
        assert _points(got.category_timeline(category)) == _points(
            want.category_timeline(category)
        )
    got_stats, want_stats = got.stats(), want.stats()
    assert got_stats.peak_bytes == want_stats.peak_bytes
    assert got_stats.final_bytes == want_stats.final_bytes
    assert got_stats.peak_by_category == want_stats.peak_by_category
    assert list(got_stats.peak_by_category) == list(want_stats.peak_by_category)
    assert type(got_stats.avg_bytes) is type(want_stats.avg_bytes)
    assert _float_bits(got_stats.avg_bytes) == _float_bits(want_stats.avg_bytes)


class TestMemoryTracker:
    @EXACT
    @given(
        budget=st.sampled_from([None, BUDGET]),
        start=st.sampled_from([0.0, 2.5]),
        ops=tracker_ops,
    )
    @example(  # same-instant events collapse; OOM exactly at the boundary
        budget=BUDGET,
        start=0.0,
        ops=[
            ("alloc", "a", 0, "weights"),
            ("fill", "b", 0, "hidden"),
            ("fill", "c", 1, "hidden"),
            ("free", "b"),
            ("free", "b"),
            ("advance", 0.1),
            ("alloc", "b", 0, "other"),
            ("free_if_live", "a"),
            ("free_if_live", "a"),
        ],
    )
    def test_every_operation_matches_the_reference(self, budget, start, ops):
        clock = VirtualClock(start)
        tracker = MemoryTracker(clock, budget_bytes=budget)
        reference = ref.MemoryTracker(clock, budget_bytes=budget)
        assert_same_tracker(tracker, reference)
        for op in ops:
            if op[0] == "advance":
                clock.advance(op[1])
                continue
            assert _apply(tracker, op) == _apply(reference, op)
            assert_same_tracker(tracker, reference)

    @EXACT
    @given(
        budget=st.sampled_from([None, BUDGET]),
        start=st.sampled_from([0.0, 2.5, 2.0**53 - 2, 2.0**53]),
        ops=tracker_ops,
        name=st.sampled_from(NAMES),
        nbytes=st.sampled_from([0, 1, 7, 50, -1]),
        category=st.sampled_from(CATEGORIES + (FRESH,)),
        duration=st.sampled_from([0.0, 1e-9, 0.1, 0.25, 1 / 3, 0.75, -1.0]),
        count=st.sampled_from([0, 1, 2, 3, 7]),
        headroom=st.sampled_from([None, -1, 0, 1]),
    )
    @chunk_run(ops=[("alloc", "a", 1, "weights")])  # a live name raises first
    @chunk_run(nbytes=50, headroom=-1)  # one byte short of the first chunk
    @chunk_run(nbytes=50, headroom=0)  # exactly at the budget
    @chunk_run(start=2.0**53, duration=0.25)  # t + duration == t: one instant
    @chunk_run(start=2.0**53 - 2, duration=0.75, count=7)  # advances twice, then sticks
    @chunk_run(budget=BUDGET, name="b", nbytes=-1, count=0)  # no round: nothing happens
    def test_transients_are_the_alloc_advance_free_rounds(
        self, budget, start, ops, name, nbytes, category, duration, count, headroom
    ):
        """``transients`` against ``count`` reference rounds of alloc,
        ``clock.advance`` and free, each tracker on its own clock."""
        runs = []
        for make in (MemoryTracker, ref.MemoryTracker):
            clock = VirtualClock(start)
            tracker = make(clock, budget_bytes=budget)
            for op in ops:
                if op[0] == "advance":
                    clock.advance(op[1])
                else:
                    _apply(tracker, op)
            if headroom is not None:
                # One byte under, at or over what the first chunk needs.
                tracker.budget_bytes = tracker.in_use + nbytes + headroom
            if make is MemoryTracker:
                state = copy.deepcopy({k: v for k, v in vars(tracker).items() if k != "clock"})
                run = tracker.transients
            else:
                run = partial(_rounds, tracker)
            try:
                run(name, nbytes, category, duration, count)
                outcome = None
            except Exception as exc:
                outcome = type(exc), str(exc)
            if make is MemoryTracker and count == 0:
                assert {k: v for k, v in vars(tracker).items() if k != "clock"} == state
            runs.append((tracker, clock, outcome))
        (got, got_clock, got_outcome), (want, want_clock, want_outcome) = runs
        assert got_outcome == want_outcome
        assert _float_bits(got_clock.now) == _float_bits(want_clock.now)
        assert_same_tracker(got, want)

    def test_long_staircase_average_is_bitwise(self):
        """Thousands of points with uneven steps: a pairwise or compensated
        sum in the time-weighted average would change its bits."""
        rng = np.random.default_rng(5)
        clock = VirtualClock()
        trackers = (MemoryTracker(clock), ref.MemoryTracker(clock))
        live: list[str] = []
        for step in range(3000):
            if live and rng.random() < 0.45:
                name = live.pop(int(rng.integers(len(live))))
                for tracker in trackers:
                    tracker.free(name)
            else:
                name, nbytes = f"t{step}", int(rng.integers(0, 7 << 20))
                category = CATEGORIES[int(rng.integers(len(CATEGORIES)))]
                for tracker in trackers:
                    tracker.alloc(name, nbytes, category)
                live.append(name)
            if rng.random() < 0.8:
                clock.advance(float(rng.exponential(1e-3)))
        assert len(trackers[0].timeline()) > 2000
        assert_same_tracker(*trackers)

    def test_oom_message_and_fields_match(self):
        clock = VirtualClock()
        errors = []
        for tracker in (MemoryTracker(clock, 3 << 20), ref.MemoryTracker(clock, 3 << 20)):
            tracker.alloc("held", 2 << 20)
            with pytest.raises(OutOfMemoryError) as excinfo:
                tracker.alloc("big", (1 << 20) + 1)
            err = excinfo.value
            errors.append((type(err), str(err), err.requested, err.in_use, err.budget, err.name))
        assert errors[0] == errors[1]


# ---------------------------------------------------------------------------
# request packing
# ---------------------------------------------------------------------------
_TOKENIZERS: dict[int, Tokenizer] = {}


def tokenizer_of(size: int) -> Tokenizer:
    if size not in _TOKENIZERS:
        _TOKENIZERS[size] = Tokenizer(Vocabulary(size))
    return _TOKENIZERS[size]


#: Tiny vocabularies (one regular token and up), and the paper-scale one.
vocab_sizes = st.sampled_from([5, 6, 50, 30_522, 151_669])
seeds = st.integers(min_value=0, max_value=2**63 - 1)
lengths = st.sampled_from([0, 1, 2, 7, 64, 300, 700])
max_lens = st.sampled_from([4, 5, 8, 40, 91, 92, 120, 512])
token_lists = st.lists(st.integers(4, 200), max_size=40).map(
    lambda xs: np.array(xs, dtype=np.int64)
)


class FixedUniforms:
    """A generator stand-in whose ``random`` returns chosen keys."""

    def __init__(self, keys: np.ndarray) -> None:
        self.keys = keys

    def random(self, count: int) -> np.ndarray:
        assert count == self.keys.size
        return self.keys.copy()


class TestPacking:
    @EXACT
    @given(size=vocab_sizes, seed=seeds, length=lengths)
    def test_encode_synthetic_bitwise(self, size, seed, length):
        tokenizer = tokenizer_of(size)
        assert same_bits(
            tokenizer.encode_synthetic(seed, length), ref.encode_synthetic(tokenizer, seed, length)
        )

    @EXACT
    @given(size=vocab_sizes, pairs=st.lists(st.tuples(seeds, lengths), min_size=1, max_size=24))
    def test_batched_draw_matches_per_seed_sampling(self, size, pairs):
        tokenizer = tokenizer_of(size)
        got = tokenizer.encode_synthetic_many([s for s, _ in pairs], [n for _, n in pairs])
        assert len(got) == len(pairs)
        for ids, (seed, length) in zip(got, pairs):
            assert same_bits(ids, ref.encode_synthetic(tokenizer, seed, length))

    @EXACT
    @given(seed=seeds, full=lengths, data=st.data())
    def test_prefix_draw_is_the_prefix_of_the_full_draw(self, seed, full, data):
        kept = data.draw(st.integers(0, full))
        tokenizer = tokenizer_of(151_669)
        assert same_bits(
            tokenizer.encode_synthetic(seed, kept),
            ref.encode_synthetic(tokenizer, seed, full)[:kept],
        )

    @pytest.mark.parametrize("zipf_s", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("size", [5, 6, 151_669, 250_002])  # 4 specials + 1, + 2
    def test_guide_table_edge_keys(self, size, zipf_s):
        """Keys at 0, on and one ulp either side of every CDF entry, on
        every bucket edge, and the largest double below 1."""
        vocab = Vocabulary(size, zipf_s=zipf_s)
        cdf, buckets = vocab._cdf, vocab._buckets
        keys = np.concatenate(
            [
                [0.0, np.nextafter(1.0, 0.0)],
                cdf,
                np.nextafter(cdf, 0.0),
                np.nextafter(cdf, 2.0),
                np.arange(buckets) / buckets,
            ]
        )
        keys = keys[keys < 1.0]
        got = vocab.sample(FixedUniforms(keys), keys.size)
        assert same_bits(got, ref.sample(vocab, FixedUniforms(keys), keys.size))
        if size == 250_002 and zipf_s == 2.0:
            assert np.diff(vocab._guide).max() > 1000  # tail buckets span thousands of ranks

    def test_vocabulary_sample_bitwise(self):
        vocab = tokenizer_of(151_669).vocab
        for seed in range(20):
            assert same_bits(
                vocab.sample(np.random.default_rng(seed), 257),
                ref.sample(vocab, np.random.default_rng(seed), 257),
            )
        with pytest.raises(ValueError):
            vocab.sample(np.random.default_rng(0), -1)

    @EXACT
    @given(
        size=vocab_sizes,
        query=token_lists,
        docs=st.lists(token_lists, min_size=1, max_size=8),
        max_len=max_lens,
        with_template=st.booleans(),
    )
    @example(  # max_len below template + query + 3; an empty document
        size=151_669,
        query=np.arange(4, 30, dtype=np.int64),
        docs=[np.empty(0, dtype=np.int64), np.arange(4, 90, dtype=np.int64)],
        max_len=40,
        with_template=True,
    )
    def test_batch_pairs_matches_stacked_rows(self, size, query, docs, max_len, with_template):
        tokenizer = tokenizer_of(size)
        got = tokenizer.batch_pairs(query, docs, max_len, with_template)
        assert same_bits(got, ref.batch_pairs(tokenizer, query, docs, max_len, with_template))
        for row, doc in zip(got, docs):
            assert same_bits(
                tokenizer.build_pair(query, doc, max_len, with_template),
                ref.build_pair(tokenizer, query, doc, max_len, with_template),
            )
            assert same_bits(row, ref.build_pair(tokenizer, query, doc, max_len, with_template))

    @EXACT
    @given(
        size=vocab_sizes,
        query_length=lengths,
        doc_lengths=st.lists(lengths, min_size=1, max_size=12),
        max_len=max_lens,
        seed=seeds,
        data=st.data(),
    )
    def test_build_batch_matches_the_reference(
        self, size, query_length, doc_lengths, max_len, seed, data
    ):
        """Every field of ``build_batch``, and of each ``build_batches``
        view over the query, its repeats and its prefixes in any order.
        ``lengths`` is read before the tokens are packed, and equals the
        packed rows' attention lengths."""
        candidates = tuple(
            CandidateSpec(uid=i, seed=seed ^ (i + 1), length=n, relevance=0.5, is_relevant=i == 0)
            for i, n in enumerate(doc_lengths)
        )
        query = RerankQuery(
            query_id=0, seed=seed, query_length=query_length, candidates=candidates
        )
        rows = data.draw(st.lists(st.integers(1, len(candidates)), max_size=4))
        queries = data.draw(
            st.permutations([query] + [replace(query, candidates=candidates[:n]) for n in rows])
        )
        tokenizer = tokenizer_of(size)
        for got, request in [(build_batch(query, tokenizer, max_len), query)] + list(
            zip(build_batches(queries, tokenizer, max_len), queries)
        ):
            want = ref.build_batch(request, tokenizer, max_len)
            for field in ("lengths", "tokens", "relevance", "uids"):
                assert same_bits(getattr(got, field), getattr(want, field))
            assert same_bits(got.lengths, tokenizer.attention_lengths(got.tokens))

    def test_bad_arguments_rejected(self):
        tokenizer = tokenizer_of(50)
        with pytest.raises(ValueError):
            tokenizer.batch_pairs(np.array([5]), [np.array([6])], 3)
        with pytest.raises(ValueError):
            tokenizer.batch_pairs(np.array([5]), [], 16)
        with pytest.raises(ValueError):
            tokenizer.encode_synthetic_many([1, 2], [3, -1])
        with pytest.raises(ValueError):
            tokenizer.encode_synthetic_many([1, 2], [5, 5, 5])
        with pytest.raises(ValueError):
            tokenizer.encode_synthetic_many([1, 2, 3], [5, 5])
        assert tokenizer.vocab.sample_many([], []) == []


# ---------------------------------------------------------------------------
# first-read packing
# ---------------------------------------------------------------------------
class Packs:
    """Counts ``Tokenizer.batch_pairs`` calls: one per packed batch."""

    def __init__(self) -> None:
        self.count = 0


@pytest.fixture
def packs(monkeypatch) -> Packs:
    counter = Packs()
    batch_pairs = Tokenizer.batch_pairs

    def counted(tokenizer, *args, **kwargs):
        counter.count += 1
        return batch_pairs(tokenizer, *args, **kwargs)

    monkeypatch.setattr(Tokenizer, "batch_pairs", counted)
    return counter


QWEN = get_model_config("qwen3-reranker-0.6b")


def scifact_query(num_candidates: int = 20) -> RerankQuery:
    return get_dataset("scifact").queries(1, num_candidates)[0]


class TestFirstReadPacking:
    @pytest.mark.parametrize(
        "system, prism_config, expected",
        [
            ("hf", None, 0),
            ("hf_offload", None, 0),
            ("hf_quant", None, 0),
            ("prism", PrismConfig(embedding_cache=False), 0),
            ("prism", None, 1),  # the embedding-cache lookup reads the tokens
        ],
    )
    def test_engines_pack_only_what_they_read(self, packs, system, prism_config, expected):
        stats = run_system(
            system, QWEN, "nvidia_5070", [scifact_query()], k=10, prism_config=prism_config
        )
        assert len(stats.latencies) == 1
        assert packs.count == expected

    def test_a_head_packs_once_for_all_its_views(self, packs):
        query = scifact_query(8)
        queries = [replace(query, candidates=query.candidates[:n]) for n in (3, 8, 5, 8, 1)]
        batches = build_batches(queries, shared_tokenizer(QWEN), QWEN.max_seq_len)
        assert packs.count == 0
        for batch in batches + batches:
            assert batch.tokens.shape == (batch.size, QWEN.max_seq_len)
        assert packs.count == 1

    def test_select_of_an_unpacked_batch_stays_unpacked(self, packs):
        query = scifact_query(6)
        tokenizer = shared_tokenizer(QWEN)
        batch = build_batch(query, tokenizer, QWEN.max_seq_len)
        index = np.array([4, 0, 2])
        sub = batch.select(index)
        index[:] = 5  # the rows were chosen at select
        assert sub.size == 3 and same_bits(sub.lengths, batch.lengths[[4, 0, 2]])
        assert packs.count == 0
        want = ref.build_batch(query, tokenizer, QWEN.max_seq_len).tokens[[4, 0, 2]]
        assert same_bits(sub.tokens, want)
        assert packs.count == 1
        assert same_bits(batch.tokens[[4, 0, 2]], want)  # the pack the sub-batch read
        assert packs.count == 1

    def test_select_of_shared_rows_is_a_writable_copy(self):
        query = scifact_query(6)
        views = build_batches([query, query], shared_tokenizer(QWEN), QWEN.max_seq_len)
        shared = views[0].tokens
        sub = views[1].select(np.arange(2))
        assert sub.tokens.flags.writeable
        assert not np.shares_memory(sub.tokens, shared)
        sub.tokens[0, 0] = -1
        assert shared[0, 0] != -1

    def test_writes_through_shared_views_raise(self):
        query = scifact_query(6)
        prefix = replace(query, candidates=query.candidates[:2])
        for view in build_batches([query, prefix], shared_tokenizer(QWEN), QWEN.max_seq_len):
            with pytest.raises(ValueError):
                view.tokens[0, 0] = 0
            with pytest.raises(ValueError):
                view.lengths[0] = 0

    def test_bad_queries_raise_at_build(self, packs):
        query = scifact_query(3)
        first, second, third = query.candidates
        tokenizer = shared_tokenizer(QWEN)
        cases = [
            (replace(query, candidates=()), 512),
            (query, 3),
            (replace(query, query_length=-1), 512),
            (replace(query, candidates=(first, replace(second, length=-1))), 512),
            (replace(query, seed=-1), 512),
            (replace(query, candidates=(replace(third, seed=-2),)), 512),
        ]
        for bad, max_len in cases:
            for build in (
                partial(build_batch, bad),
                lambda *args: build_batches([bad], *args),
                partial(ref.build_batch, bad),  # the eager reference raises too
            ):
                with pytest.raises(ValueError):
                    build(tokenizer, max_len)
        assert packs.count == 0


# ---------------------------------------------------------------------------
# seeded input generators
# ---------------------------------------------------------------------------
#: Flat, mild, the default and every draw on rank 1.
zipf_exponents = st.sampled_from([0.0, 0.5, 1.1, math.inf])


def zipf_p(n: int, s: float) -> np.ndarray:
    """Rank weights as the generators build them."""
    weights = np.arange(1, n + 1, dtype=np.float64) ** -s
    return weights / weights.sum()


@st.composite
def distributions(draw) -> np.ndarray:
    """Weights ``choice`` accepts: Zipf ranks, small integer weights with
    zero entries anywhere, and sums up to 1e-9 off 1, whose CDF the
    division by its last entry moves."""
    kind = draw(st.sampled_from(["zipf", "integers", "off_one"]))
    if kind == "zipf":
        return zipf_p(draw(st.integers(min_value=1, max_value=1000)), draw(zipf_exponents))
    counts = draw(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=40))
    counts[draw(st.integers(min_value=0, max_value=len(counts) - 1))] += 1
    p = np.array(counts, dtype=np.float64) / sum(counts)
    if kind == "off_one":
        p = p * (1.0 + draw(st.floats(min_value=-1e-9, max_value=1e-9)))
    return p


#: Probability vectors, good and bad: NaN, infinities, negatives, sums off
#: 1 by more and less than choice's tolerance, float32 and 2-D arrays, and
#: the empty list.
probability_entries = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.5, -0.0, 1e-9]),
)
raw_probabilities = st.one_of(
    st.lists(probability_entries, max_size=6),
    distributions().map(list),
    # float32 widens choice's tolerance to about 3.5e-4.
    st.tuples(distributions(), st.sampled_from([1e-7, -1e-5, 1e-3])).map(
        lambda pair: (pair[0] * (1.0 + pair[1])).astype(np.float32)
    ),
    st.tuples(distributions(), st.sampled_from([2e-8, -2e-8])).map(
        lambda pair: pair[0] * (1.0 + pair[1])
    ),
    distributions().map(lambda p: p.reshape(1, -1)),
)


def outcome(call):
    """What ``call()`` returns, or the message of the ``ValueError`` it raises."""
    try:
        return call()
    except ValueError as error:
        return f"ValueError: {error}"


class Uniforms:
    """A generator stand-in whose ``random()`` returns chosen values in turn."""

    def __init__(self, values) -> None:
        self._values = iter(values)

    def random(self) -> float:
        return next(self._values)


OTHER_DRAWS = {
    "random": lambda rng: rng.random(),
    "integers": lambda rng: int(rng.integers(0, 7)),
    "normal": lambda rng: rng.normal(0.5, 2.0),
    "uniform_array": lambda rng: rng.uniform(0.05, 0.95, size=3).tobytes(),
}


def query_pool(size: int) -> list[RerankQuery]:
    rng = np.random.default_rng(0x9001)
    pool = []
    for qid in range(size):
        relevance = rng.uniform(0.05, 0.95, size=1 + qid % 6)
        pool.append(
            make_query(
                rng,
                query_id=qid,
                labels=relevance >= 0.5,
                relevance=relevance,
                query_length=8,
                doc_length_mean=40,
            )
        )
    return pool


BASE_POOL = query_pool(512)


@st.composite
def class_mixes(draw) -> tuple:
    """Three SLO classes in any order, with zero shares first, in the
    middle, last, twice, or not at all."""
    names = draw(st.permutations(TRAFFIC_SLO_CLASSES))
    zeros = draw(st.sampled_from([(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), ()]))
    counts = [0 if i in zeros else draw(st.integers(min_value=1, max_value=9)) for i in range(3)]
    return tuple((name, count / sum(counts)) for name, count in zip(names, counts))


def captured_generators(generate, config):
    """``generate(config)`` rendered, and the state of every generator it made."""
    made = []
    real = np.random.default_rng

    def capture(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    with mock.patch.object(np.random, "default_rng", capture):
        trace = generate(config)
    return render_traffic(trace), [rng.bit_generator.state for rng in made]


#: Three corpora: the RAG experiments' shape, the unit tests' shape, and
#: a small one with one common word and topic-per-document.
CORPORA = (
    dict(num_docs=60, num_topics=6),
    dict(num_docs=100, num_topics=10, words_per_doc=80),
    dict(
        num_docs=24, num_topics=24, words_per_doc=30, topic_vocab_size=3, common_vocab_size=1, seed=5
    ),
)


class TestInputDraws:
    @EXACT
    @given(
        p=distributions(),
        seed=seeds,
        ops=st.lists(st.sampled_from(["pick", *OTHER_DRAWS]), max_size=24),
    )
    def test_weighted_draws_are_choice_interleaved_with_other_draws(self, p, seed, ops):
        got, want = np.random.default_rng(seed), np.random.default_rng(seed)
        draw = weighted_draws(got, p)
        for op in ["pick", *ops]:
            if op == "pick":
                assert draw() == int(want.choice(len(p), p=p))
            else:
                assert OTHER_DRAWS[op](got) == OTHER_DRAWS[op](want)
            assert got.bit_generator.state == want.bit_generator.state

    @EXACT
    @given(p=distributions())
    def test_cdf_entries_and_their_neighbours(self, p):
        """At a uniform equal to a CDF entry the search side decides the
        pick, and a CDF left unnormalised misplaces entries by ulps."""
        cdf = ref.choice_cdf(p)
        keys = [0.0, np.nextafter(1.0, 0.0)]
        for entry in cdf[:-1]:
            keys += [np.nextafter(entry, 0.0), entry, np.nextafter(entry, 1.0)]
        keys = [float(key) for key in keys if 0.0 <= key < 1.0]
        draw = weighted_draws(Uniforms(keys), p)
        for key in keys:
            assert draw() == int(cdf.searchsorted(key, side="right")), key

    @EXACT
    @given(p=raw_probabilities)
    def test_bad_weights_raise_choices_errors(self, p):
        got, want = np.random.default_rng(1), np.random.default_rng(1)
        assert outcome(lambda: weighted_draws(got, p)()) == outcome(
            lambda: int(want.choice(len(p), p=p))
        )
        assert got.bit_generator.state == want.bit_generator.state

    @EXACT
    @given(
        seed=seeds,
        size=st.integers(min_value=1, max_value=24),
        doc_length_mean=st.sampled_from([1, 7, 8, 9, 64, 460]),
        doc_length_jitter=st.sampled_from([0, 1, 40, 400]),
    )
    def test_make_query(self, seed, size, doc_length_mean, doc_length_jitter):
        """Means below 8 put the upper clip bound below the lower one."""
        got, want = np.random.default_rng(seed), np.random.default_rng(seed)
        relevance = np.random.default_rng(seed + 1).uniform(0.0, 1.0, size=size)
        args = dict(
            query_id=3,
            labels=relevance >= 0.5,
            relevance=relevance,
            query_length=16,
            doc_length_mean=doc_length_mean,
            doc_length_jitter=doc_length_jitter,
        )
        assert make_query(got, **args) == ref.make_query(want, **args)
        assert got.bit_generator.state == want.bit_generator.state

    @EXACT
    @given(
        name=st.sampled_from(ALL_DATASETS + ("base",)),
        seed=seeds,
        extra=st.integers(min_value=0, max_value=30),
    )
    def test_draw_pool(self, name, seed, extra):
        profile = RelevanceProfile() if name == "base" else get_dataset(name).profile
        # No fewer candidates than relevant ones.
        size = max(1, profile.relevant_range[0]) + extra
        got, want = np.random.default_rng(seed), np.random.default_rng(seed)
        labels, relevance = profile.draw_pool(got, size)
        want_labels, want_relevance = ref.draw_pool(profile, want, size)
        assert labels.tobytes() == want_labels.tobytes()
        assert relevance.tobytes() == want_relevance.tobytes()
        assert got.bit_generator.state == want.bit_generator.state

    def test_every_dataset_queries(self):
        for name in ALL_DATASETS:
            spec = get_dataset(name)
            assert spec.queries(8, 20) == ref.dataset_queries(spec, 8, 20), name

    @EXACT
    @given(
        seed=seeds,
        pool=st.integers(min_value=1, max_value=512),
        requests=st.integers(min_value=0, max_value=200),
        zipf_s=zipf_exponents,
        overlap=st.sampled_from([0.0, 0.25, 1.0]),
        resample=st.sampled_from([0.5, 1.0]),
        tenants=st.sampled_from([None, 1, 3, 50]),
    )
    def test_zipf_request_stream(self, seed, pool, requests, zipf_s, overlap, resample, tenants):
        tenant_of = None if tenants is None else (lambda i: f"t{(i * 7) % tenants}")
        got, want = np.random.default_rng(seed), np.random.default_rng(seed)
        args = dict(
            num_requests=requests,
            zipf_s=zipf_s,
            partial_overlap_rate=overlap,
            resample_fraction=resample,
            tenant_of=tenant_of,
        )
        stream = zipf_request_stream(got, BASE_POOL[:pool], **args)
        assert stream == ref.zipf_request_stream(want, BASE_POOL[:pool], **args)
        assert [query.tenant for query in stream] == [
            None if tenant_of is None else tenant_of(i) for i in range(requests)
        ]
        assert got.bit_generator.state == want.bit_generator.state

    @settings(EXACT, max_examples=40)
    @given(
        process=st.sampled_from(ARRIVAL_PROCESSES),
        tenants=st.integers(min_value=1, max_value=1000),
        base_queries=st.integers(min_value=1, max_value=512),
        class_mix=class_mixes(),
        tenant_zipf_s=zipf_exponents,
        query_zipf_s=zipf_exponents,
        max_candidates=st.sampled_from([4, 9, 16]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_generate_traffic(
        self, process, tenants, base_queries, class_mix, tenant_zipf_s, query_zipf_s,
        max_candidates, seed,
    ):
        config = TrafficConfig(
            num_tenants=tenants,
            duration_s=2.0,
            rate_rps=60.0,
            process=process,
            seed=seed,
            class_mix=class_mix,
            tenant_zipf_s=tenant_zipf_s,
            query_zipf_s=query_zipf_s,
            num_base_queries=base_queries,
            max_candidates=max_candidates,
            doc_length_mean=24,
        )
        got_text, got_states = captured_generators(generate_traffic, config)
        want_text, want_states = captured_generators(ref.generate_traffic, config)
        assert got_text == want_text
        assert len(got_states) == 1 and got_states == want_states

    @pytest.mark.parametrize("kwargs", CORPORA)
    def test_corpus(self, kwargs):
        got, want = SyntheticCorpus(**kwargs), ref.SyntheticCorpus(**kwargs)
        assert got.documents == want.documents
        assert [struct.pack("<d", d.purity) for d in got.documents] == [
            struct.pack("<d", d.purity) for d in want.documents
        ]
        assert got._rng.bit_generator.state == want._rng.bit_generator.state
        for query, reference in zip(got.make_queries(12), want.make_queries(12)):
            assert query.words == reference.words
            assert query.relevance.tobytes() == reference.relevance.tobytes()
            assert query.labels.tobytes() == reference.labels.tobytes()
            assert query.needed == reference.needed


# ---------------------------------------------------------------------------
# end to end: the offline sweep
# ---------------------------------------------------------------------------
OFFLINE_MODELS = ("qwen3-reranker-0.6b", "qwen3-reranker-4b", "bge-reranker-v2-m3")


def _sweep_queries() -> list[RerankQuery]:
    return [q for name in ALL_DATASETS for q in get_dataset(name).queries(1, 20)]


def _offline_runs() -> dict:
    runs = {}
    for model in OFFLINE_MODELS:
        config = get_model_config(model)
        queries = _sweep_queries()
        for system in SYSTEMS:
            runs[system, model] = run_system(
                system,
                config,
                "nvidia_5070",
                queries,
                k=10,
                keep_results=True,
                keep_timeline=True,
            )
    return runs


def assert_same_run(got, want) -> None:
    """Two ``RunStats`` agree on results, latencies and memory bits."""
    assert got.oom == want.oom
    assert got.latencies == want.latencies
    assert got.io_stall_seconds == want.io_stall_seconds
    assert got.precisions == want.precisions
    assert _float_bits(got.peak_mib) == _float_bits(want.peak_mib)
    assert _float_bits(got.avg_mib) == _float_bits(want.avg_mib)
    assert _points(got.timeline) == _points(want.timeline)
    assert len(got.results) == len(want.results)
    for result, expected in zip(got.results, want.results):
        assert same_bits(result.top_indices, expected.top_indices)
        assert same_bits(result.top_scores, expected.top_scores)
        assert result.latency_seconds == expected.latency_seconds
        assert result.io_stall_seconds == expected.io_stall_seconds
        assert result.prune_events == expected.prune_events


def test_prune_decisions_unchanged_across_the_dataset_sweep(monkeypatch):
    """All five systems over all 18 datasets and three models give the
    same results, latencies and memory staircases with every reference
    implementation patched in.  Each patch counts its calls, so one that
    a later re-route no longer reaches fails here instead of checking
    nothing.  PRISM's served selections are the reference decision
    loop's, and the HF-family selections are the unpruned plan."""
    fast = _offline_runs()
    queries = _sweep_queries()
    unpruned = PrismConfig(numerics=False, pruning_enabled=False)
    loop_configs = {
        "prism": PrismConfig(numerics=False),
        "prism_quant": PrismConfig.quant(numerics=False),
    }
    for (system, model), run in fast.items():
        config = get_model_config(model)
        cross_encoder = shared_model(config)
        tokenizer = shared_tokenizer(config)
        for query, result in zip(queries, run.results):
            batch = build_batch(query, tokenizer, config.max_seq_len)
            if system in loop_configs:
                want = ref.select(cross_encoder, batch, 10, loop_configs[system])
            else:
                plan = pruning.plan_selection(cross_encoder, batch, 10, unpruned)
                want = (plan.top_indices, plan.top_scores, [])
            assert_same_selection(result, want)
    calls: Counter = Counter()

    def counted(name, reference):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return reference(*args, **kwargs)

        return wrapper

    patches = {
        "repro.core.pruning.cluster_scores": ref.cluster_scores,
        "repro.core.pruning.coefficient_of_variation": ref.coefficient_of_variation,
        "repro.model.semantics.ScoreDynamics.noise": ref.noise,  # where engines draw
        "repro.core.engine.EmbeddingCache": ref.EmbeddingCache,
        "repro.device.platforms.MemoryTracker": ref.MemoryTracker,
        "repro.core.engine.EngineBase._run_layer_chunks": ref.run_layer_chunks,
        "repro.harness.runner.build_batch": ref.build_batch,
    }
    for target, oracle in patches.items():
        monkeypatch.setattr(target, counted(target, oracle))
    reference = _offline_runs()
    never_ran = set(patches) - set(calls)
    assert not never_ran, f"patched references never called: {sorted(never_ran)}"
    assert fast.keys() == reference.keys()
    for key, got in fast.items():
        assert_same_run(got, reference[key])
    assert fast["hf", "qwen3-reranker-4b"].oom  # the OOM path ran
    assert all(
        len(fast[system, model].results) == len(ALL_DATASETS)
        for system, model in fast
        if (system, model) != ("hf", "qwen3-reranker-4b")
    )
    assert any(event for run in fast.values() for r in run.results for event in r.prune_events)


def _ring_runs() -> dict:
    """PRISM and PRISM-Quant with every pass's hidden states offloaded,
    over 23-candidate queries: chunks of 2 or 3 and a shorter last one."""
    datasets = ("msmarco", "nfcorpus", "fiqa", "scifact")
    queries = [q for name in datasets for q in get_dataset(name).queries(1, 23)]
    configs = {
        "prism": PrismConfig(hidden_offload="on"),
        "prism_quant": PrismConfig.quant(hidden_offload="on"),
    }
    return {
        (system, model): run_system(
            system,
            get_model_config(model),
            "nvidia_5070",
            queries,
            k=10,
            prism_config=config,
            keep_results=True,
            keep_timeline=True,
        )
        for model in ("qwen3-reranker-0.6b", "bge-reranker-v2-m3")
        for system, config in configs.items()
    }


def test_hidden_state_ring_path_unchanged_against_the_per_chunk_loop(monkeypatch):
    """The one path where a layer's chunks interleave hidden-state SSD
    transfers: PRISM charges each chunk between ``ring.acquire`` and
    ``ring.release``.  Against one reference alloc, kernel and free per
    chunk, latencies, stalls, selections and the staircase are
    identical."""
    acquires: Counter = Counter()
    acquire = HiddenStateRing.acquire

    def counted_acquire(ring, layer, chunk):
        acquires[ring.num_chunks > 1] += 1
        return acquire(ring, layer, chunk)

    monkeypatch.setattr(HiddenStateRing, "acquire", counted_acquire)
    fast = _ring_runs()
    assert acquires[True] > 0  # multi-chunk layers ran through the ring
    chunks: Counter = Counter()

    def reference(engine, tag, num_active, chunk_size, chunk_costs):
        chunks[num_active] += 1
        ref.run_layer_chunks(engine, tag, num_active, chunk_size, chunk_costs)

    monkeypatch.setattr(EngineBase, "_run_layer_chunks", reference)
    reference_runs = _ring_runs()
    assert len(chunks) > 1  # full chunks and shorter last ones
    assert fast.keys() == reference_runs.keys()
    for key, got in fast.items():
        assert got.io_stall_seconds > 0
        assert_same_run(got, reference_runs[key])


@pytest.mark.parametrize("tokens", [np.array([-1, 2]), np.array([[0, -3]])])
def test_negative_token_ids_rejected(tokens):
    cache = EmbeddingCache(4, 512, executor())
    cache.allocate()
    with pytest.raises(ValueError):
        cache.lookup(tokens)
