"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.clustering import cluster_scores, kmeans_1d
from repro.core.metrics import goodman_kruskal_gamma, precision_at_k, top_k_overlap
from repro.core.pruning import ProgressiveClusterPruner, coefficient_of_variation
from repro.device.clock import VirtualClock
from repro.device.memory import MemoryTracker
from repro.device.ssd import SSDDevice, SSDModel
from repro.model.semantics import ScoreDynamics, SemanticsConfig, _unit_normals
from repro.text.vocab import Vocabulary

scores_arrays = arrays(
    np.float64,
    st.integers(min_value=2, max_value=40),
    elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


class TestClusteringProperties:
    @given(scores=scores_arrays, k=st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_kmeans_labels_partition(self, scores, k):
        clustering = kmeans_1d(scores, k)
        assert clustering.labels.shape == scores.shape
        assert clustering.labels.min() >= 0
        assert clustering.labels.max() < clustering.num_clusters
        assert (clustering.sizes() > 0).all()

    @given(scores=scores_arrays, k=st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_kmeans_centers_strictly_descending(self, scores, k):
        clustering = kmeans_1d(scores, k)
        if clustering.num_clusters > 1:
            assert (np.diff(clustering.centers) < 0).all()

    @given(scores=scores_arrays)
    @settings(max_examples=60, deadline=None)
    def test_cluster_assignment_respects_order(self, scores):
        """A higher score never lands in a lower-ranked (higher-id)
        cluster than a lower score."""
        clustering = cluster_scores(scores)
        order = np.argsort(-scores)
        labels_by_rank = clustering.labels[order]
        assert (np.diff(labels_by_rank) >= 0).all()

    @given(scores=scores_arrays)
    @settings(max_examples=40, deadline=None)
    def test_inertia_nonnegative(self, scores):
        assert cluster_scores(scores).inertia >= 0.0


class TestPrunerProperties:
    @given(
        scores=scores_arrays,
        slots=st.integers(min_value=1, max_value=10),
        threshold=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_routing_is_a_partition(self, scores, slots, threshold):
        assume(slots <= scores.size)
        pruner = ProgressiveClusterPruner(dispersion_threshold=threshold)
        decision = pruner.decide(scores, slots)
        if decision.triggered:
            routed = np.concatenate(
                [decision.selected, decision.deferred, decision.dropped]
            )
            assert sorted(routed.tolist()) == list(range(scores.size))

    @given(scores=scores_arrays, slots=st.integers(min_value=1, max_value=10))
    @settings(max_examples=80, deadline=None)
    def test_selected_scores_dominate_dropped(self, scores, slots):
        """No dropped candidate may outscore a selected one."""
        assume(slots <= scores.size)
        pruner = ProgressiveClusterPruner(dispersion_threshold=0.0)
        decision = pruner.decide(scores, slots)
        if decision.selected.size and decision.dropped.size:
            assert scores[decision.selected].min() >= scores[decision.dropped].max()

    @given(scores=scores_arrays, slots=st.integers(min_value=1, max_value=10))
    @settings(max_examples=80, deadline=None)
    def test_never_selects_more_than_slots(self, scores, slots):
        assume(slots <= scores.size)
        pruner = ProgressiveClusterPruner(dispersion_threshold=0.0)
        decision = pruner.decide(scores, slots)
        assert decision.selected.size <= slots

    @given(scores=scores_arrays)
    @settings(max_examples=40, deadline=None)
    def test_cv_nonnegative(self, scores):
        assert coefficient_of_variation(scores) >= 0.0


class TestMetricProperties:
    @given(
        labels=arrays(np.bool_, st.integers(min_value=1, max_value=30)),
        k=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=80, deadline=None)
    def test_precision_bounded(self, labels, k):
        selected = np.arange(min(k, labels.size))
        assert 0.0 <= precision_at_k(selected, labels, k) <= 1.0

    @given(
        a=arrays(np.float64, 8, elements=st.floats(0, 1, allow_nan=False)),
        b=arrays(np.float64, 8, elements=st.floats(0, 1, allow_nan=False)),
    )
    @settings(max_examples=80, deadline=None)
    def test_gamma_bounded_and_symmetric(self, a, b):
        gamma = goodman_kruskal_gamma(a, b)
        assert -1.0 <= gamma <= 1.0
        assert gamma == pytest.approx(goodman_kruskal_gamma(b, a))

    @given(a=arrays(np.float64, 8, elements=st.floats(0, 1, allow_nan=False)))
    @settings(max_examples=40, deadline=None)
    def test_gamma_self_agreement(self, a):
        assert goodman_kruskal_gamma(a, a) == 1.0

    @given(
        xs=st.lists(st.integers(0, 100), min_size=1, max_size=10, unique=True),
        k=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_overlap_reflexive(self, xs, k):
        arr = np.array(xs)
        assert top_k_overlap(arr, arr, k) == 1.0


class TestMemoryTrackerProperties:
    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=20)
    )
    @settings(max_examples=60, deadline=None)
    def test_alloc_free_conservation(self, sizes):
        tracker = MemoryTracker(VirtualClock())
        for i, size in enumerate(sizes):
            tracker.alloc(f"a{i}", size)
        assert tracker.in_use == sum(sizes)
        assert tracker.peak == sum(sizes)
        for i in range(len(sizes)):
            tracker.free(f"a{i}")
        assert tracker.in_use == 0
        assert tracker.peak == sum(sizes)

    @given(
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=10**6)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_peak_is_max_of_in_use(self, ops):
        """Replaying any alloc/free sequence, peak == max(in_use)."""
        tracker = MemoryTracker(VirtualClock())
        live: list[str] = []
        observed_max = 0
        for i, (is_alloc, size) in enumerate(ops):
            if is_alloc or not live:
                name = f"b{i}"
                tracker.alloc(name, size)
                live.append(name)
            else:
                tracker.free(live.pop())
            observed_max = max(observed_max, tracker.in_use)
        assert tracker.peak == observed_max


class TestSSDProperties:
    @given(
        sizes=st.lists(
            st.integers(min_value=1, max_value=10**8), min_size=1, max_size=12
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_async_requests_serialize_without_gaps(self, sizes):
        """Back-to-back async reads leave no idle gaps on the stream."""
        clock = VirtualClock()
        ssd = SSDDevice(clock, SSDModel(read_bandwidth=1e9, write_bandwidth=1e9, latency=1e-4))
        requests = [ssd.read_async(f"r{i}", size) for i, size in enumerate(sizes)]
        for prev, nxt in zip(requests, requests[1:]):
            assert nxt.start_time == pytest.approx(prev.complete_time)
        total = sum(ssd.model.read_time(size) for size in sizes)
        assert requests[-1].complete_time == pytest.approx(total)

    @given(nbytes=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=40, deadline=None)
    def test_read_time_monotone(self, nbytes):
        model = SSDModel(read_bandwidth=3e9, write_bandwidth=2e9)
        assert model.read_time(nbytes + 1024) > model.read_time(nbytes) - 1e-12


class TestVocabularyProperties:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_samples_always_regular_tokens(self, seed):
        vocab = Vocabulary(5000)
        ids = vocab.sample(np.random.default_rng(seed), 200)
        assert (ids >= vocab.num_special).all()
        assert (ids < vocab.size).all()


class TestSemanticsProperties:
    @given(
        uids=st.lists(st.integers(min_value=0, max_value=2**31 - 1), min_size=1, max_size=20, unique=True),
        layer=st.integers(min_value=0, max_value=60),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_unit_normals_batch_invariant(self, uids, layer, seed):
        """Each candidate's draw is independent of its batch context,
        including its row and column in a pass's noise table."""
        arr = np.array(uids, dtype=np.uint64)
        batched = _unit_normals(seed, arr, layer)
        solo = np.array([_unit_normals(seed, np.array([u], dtype=np.uint64), layer)[0] for u in uids])
        assert np.array_equal(batched, solo)
        first = layer // 2
        dynamics = ScoreDynamics(SemanticsConfig(), num_layers=layer + 2, model_seed=seed)
        table = dynamics.noise(arr, first)
        assert table.shape == (layer + 2 - first, arr.size)
        assert table[layer - first].tobytes() == solo.tobytes()
        for row, at in enumerate(range(first, layer + 2)):
            assert table[row].tobytes() == _unit_normals(seed, arr, at).tobytes()
