"""The pruning-check and embedding-row fast paths are exact rewrites.

Each production routine must reproduce its reference in
``tests/reference_impls.py`` bit for bit: cluster labels, centre and
inertia bytes, the CV trigger, the score noise, and every observable of
the two LRU row caches after every operation.  The last test runs the
offline PRISM systems end to end with the references patched in and
requires identical results, so no prune decision can drift.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import clustering, pruning
from repro.core.data_plane import SharedEmbeddingCache
from repro.core.embedding_cache import EmbeddingCache
from repro.data.datasets import ALL_DATASETS, get_dataset
from repro.device.executor import DeviceExecutor
from repro.device.platforms import NVIDIA_5070
from repro.harness.runner import run_system
from repro.model import semantics
from repro.model.zoo import get_model_config
from tests import reference_impls as ref

EXACT = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)


@st.composite
def score_vectors(draw) -> np.ndarray:
    """Score vectors with the shapes that stress 1-D k-means: free values,
    heavy duplicates, values a few ulps apart, constants and tight tiers."""
    n = draw(st.integers(min_value=1, max_value=64))
    kind = draw(st.sampled_from(["free", "duplicates", "ulps", "constant", "tiers"]))
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
    def test_cluster_scores_bitwise(self, scores, max_clusters):
        got = clustering.cluster_scores(scores, max_clusters=max_clusters)
        assert_same_clustering(got, ref.cluster_scores(scores, max_clusters=max_clusters))

    @EXACT
    @given(
        scores=score_vectors(),
        k=st.integers(min_value=0, max_value=8),
        max_iter=st.sampled_from([0, 1, 2, 50]),
    )
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
    @given(
        model=st.sampled_from(["qwen3-reranker-0.6b", "qwen3-reranker-8b", "bge-reranker-v2-m3"]),
        data=st.data(),
    )
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
# end to end: prune decisions over the offline sweep
# ---------------------------------------------------------------------------
OFFLINE_MODELS = ("qwen3-reranker-0.6b", "qwen3-reranker-4b", "bge-reranker-v2-m3")


def _offline_results() -> dict:
    results = {}
    for model in OFFLINE_MODELS:
        config = get_model_config(model)
        queries = [q for name in ALL_DATASETS for q in get_dataset(name).queries(1, 20)]
        for system in ("prism", "prism_quant"):
            stats = run_system(system, config, "nvidia_5070", queries, k=10, keep_results=True)
            results[system, model] = stats.results
    return results


def _reference_scores_at(self, layer, relevance, candidate_uids):
    return ref.scores_at(self, layer, relevance, candidate_uids)


def test_prune_decisions_unchanged_across_the_dataset_sweep(monkeypatch):
    """PRISM and PRISM-quant over all 18 datasets and three models give
    the same results with the reference implementations patched in."""
    fast = _offline_results()
    monkeypatch.setattr(pruning, "cluster_scores", ref.cluster_scores)
    monkeypatch.setattr(pruning, "coefficient_of_variation", ref.coefficient_of_variation)
    monkeypatch.setattr(semantics.ScoreDynamics, "scores_at", _reference_scores_at)
    monkeypatch.setattr("repro.core.engine.EmbeddingCache", ref.EmbeddingCache)
    reference = _offline_results()
    assert fast.keys() == reference.keys()
    for key, results in fast.items():
        assert len(results) == len(reference[key]) == len(ALL_DATASETS)
        for got, want in zip(results, reference[key]):
            assert same_bits(got.top_indices, want.top_indices)
            assert same_bits(got.top_scores, want.top_scores)
            assert got.latency_seconds == want.latency_seconds
            assert got.io_stall_seconds == want.io_stall_seconds
            assert got.prune_events == want.prune_events
    assert any(event for results in fast.values() for r in results for event in r.prune_events)


@pytest.mark.parametrize("tokens", [np.array([-1, 2]), np.array([[0, -3]])])
def test_negative_token_ids_rejected(tokens):
    cache = EmbeddingCache(4, 512, executor())
    cache.allocate()
    with pytest.raises(ValueError):
        cache.lookup(tokens)
