"""Unit tests for the LRU embedding-row cache (§4.4)."""

import numpy as np
import pytest

from repro.core.embedding_cache import EmbeddingCache
from repro.device.executor import DeviceExecutor
from repro.device.platforms import NVIDIA_5070


@pytest.fixture
def executor():
    return DeviceExecutor(NVIDIA_5070.create())


def make_cache(executor, capacity=4, row_nbytes=2048):
    cache = EmbeddingCache(capacity_rows=capacity, row_nbytes=row_nbytes, executor=executor)
    cache.allocate()
    return cache


class TestLifecycle:
    def test_allocate_charges_fixed_slab(self, executor):
        cache = make_cache(executor, capacity=10, row_nbytes=1000)
        assert executor.device.memory.live_bytes("embedding-cache") == 10_000

    def test_allocate_idempotent(self, executor):
        cache = make_cache(executor)
        cache.allocate()
        assert executor.device.memory.in_use == cache.capacity_rows * cache.row_nbytes

    def test_release_frees_and_clears(self, executor):
        cache = make_cache(executor)
        cache.lookup(np.array([1, 2]))
        cache.release()
        assert executor.device.memory.in_use == 0
        assert cache.resident_rows == 0

    def test_lookup_before_allocate_rejected(self, executor):
        cache = EmbeddingCache(capacity_rows=4, row_nbytes=100, executor=executor)
        with pytest.raises(RuntimeError):
            cache.lookup(np.array([1]))

    def test_invalid_construction_rejected(self, executor):
        with pytest.raises(ValueError):
            EmbeddingCache(capacity_rows=0, row_nbytes=100, executor=executor)
        with pytest.raises(ValueError):
            EmbeddingCache(capacity_rows=4, row_nbytes=0, executor=executor)


class TestLookups:
    def test_cold_lookup_all_misses(self, executor):
        cache = make_cache(executor)
        result = cache.lookup(np.array([1, 2, 3]))
        assert result.misses == 3 and result.hits == 0
        assert result.miss_bytes == 3 * cache.row_nbytes

    def test_warm_lookup_all_hits(self, executor):
        cache = make_cache(executor)
        cache.lookup(np.array([1, 2, 3]))
        result = cache.lookup(np.array([1, 2, 3]))
        assert result.hits == 3 and result.misses == 0
        assert result.io_seconds == 0.0

    def test_duplicate_tokens_counted_once(self, executor):
        cache = make_cache(executor)
        result = cache.lookup(np.array([5, 5, 5, 6]))
        assert result.unique_tokens == 2

    def test_misses_trigger_synchronous_io(self, executor):
        cache = make_cache(executor)
        before = executor.now
        result = cache.lookup(np.array([1, 2]))
        assert executor.now > before
        assert result.io_seconds == pytest.approx(executor.now - before)
        assert executor.io_stall_seconds > 0

    def test_hit_rate_property(self, executor):
        cache = make_cache(executor)
        cache.lookup(np.array([1, 2]))  # 2 misses
        cache.lookup(np.array([1, 2]))  # 2 hits
        assert cache.hit_rate == pytest.approx(0.5)

    def test_empty_lookup(self, executor):
        cache = make_cache(executor)
        result = cache.lookup(np.array([], dtype=np.int64))
        assert result.unique_tokens == 0
        # Resolving nothing is "no samples", not a perfect hit rate.
        assert result.hit_rate is None

    def test_never_used_cache_reports_no_hit_rate(self, executor):
        """A cache nobody consulted must report None (rendered "-"),
        never a fake 100%."""
        cache = make_cache(executor)
        assert cache.hit_rate is None
        cache.lookup(np.array([1]))
        assert cache.hit_rate == 0.0

    def test_vectorised_lookup_matches_reference_loop(self, executor):
        """The array-backed LRU is a pure speedup: every lookup's
        accounting, the eviction count and the resident set (hence every
        future eviction) are what the ordered-dict cache produced."""
        from tests.reference_impls import EmbeddingCache as ReferenceCache

        cache = make_cache(executor, capacity=8)
        reference = ReferenceCache(8, cache.row_nbytes, DeviceExecutor(NVIDIA_5070.create()))
        reference.allocate()
        rng = np.random.default_rng(3)
        for _ in range(40):
            tokens = rng.integers(0, 24, size=rng.integers(0, 12))
            assert cache.lookup(tokens) == reference.lookup(tokens)
            assert cache.total_evictions == reference.total_evictions
            assert [cache.is_resident(t) for t in range(24)] == [
                reference.is_resident(t) for t in range(24)
            ]

    def test_2d_token_batch_flattened(self, executor):
        cache = make_cache(executor)
        result = cache.lookup(np.array([[1, 2], [2, 3]]))
        assert result.unique_tokens == 3


class TestLRUEviction:
    def test_capacity_never_exceeded(self, executor):
        cache = make_cache(executor, capacity=4)
        cache.lookup(np.arange(10))
        assert cache.resident_rows == 4

    def test_least_recently_used_evicted_first(self, executor):
        cache = make_cache(executor, capacity=3)
        cache.lookup(np.array([1]))
        cache.lookup(np.array([2]))
        cache.lookup(np.array([3]))
        cache.lookup(np.array([1]))  # touch 1 → 2 becomes LRU
        cache.lookup(np.array([4]))  # evicts 2
        assert cache.is_resident(1)
        assert not cache.is_resident(2)
        assert cache.is_resident(3) and cache.is_resident(4)

    def test_eviction_counter(self, executor):
        cache = make_cache(executor, capacity=2)
        cache.lookup(np.array([1, 2]))
        cache.lookup(np.array([3]))
        assert cache.total_evictions == 1

    def test_zipf_skew_drives_the_hit_rate(self, executor):
        """§4.4's premise: the cache works *because* token usage is
        Zipf-skewed.  A 10 %-of-vocab cache under skewed traffic beats
        the same cache under uniform traffic by a wide margin."""
        from repro.text.vocab import Vocabulary

        def steady_hit_rate(zipf_s):
            vocab = Vocabulary(10_000, zipf_s=zipf_s)
            ex = DeviceExecutor(NVIDIA_5070.create())
            cache = make_cache(ex, capacity=1000)
            rng = np.random.default_rng(0)
            for _ in range(6):
                cache.lookup(vocab.sample(rng, 1500))
            return cache.hit_rate

        skewed = steady_hit_rate(1.3)
        near_uniform = steady_hit_rate(0.2)
        assert skewed > 0.35
        assert skewed > 2.5 * near_uniform
