"""Zipfian vocabulary model.

Embedding table caching (§4.4) works because natural-language token
usage is highly skewed (the paper cites Zipf's law): a 20-document
reranking batch touches at most ~6.75 % of a 151 k vocabulary, and an
LRU cache sized at 10 % of the vocabulary sustains a high hit rate.

``Vocabulary`` provides a rank-frequency model over token ids:
token id *r* (0-based rank) has probability ∝ 1/(r+1)^s.  Sampling is
done via the inverse-CDF over the precomputed cumulative weights, which
keeps draws deterministic under a seeded generator.  A guide table over
the unit interval narrows each uniform to the few CDF entries its
bucket spans, so a draw needs no search over the whole CDF.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

#: Most guide-table buckets per vocabulary: a power of two, so that
#: ``u * buckets`` and ``j / buckets`` are exact in float64.
MAX_GUIDE_BUCKETS = 1 << 16


class Vocabulary:
    """A vocabulary whose token frequencies follow a Zipf distribution.

    Parameters
    ----------
    size:
        Number of tokens in the vocabulary.
    zipf_s:
        Zipf exponent; ``1.0`` matches classic natural-language skew.
    num_special:
        Number of reserved special tokens at the front of the id space
        (PAD, BOS, EOS, SEP and any more); these are never produced by
        sampling.
    """

    PAD, BOS, EOS, SEP = 0, 1, 2, 3

    def __init__(self, size: int, zipf_s: float = 1.0, num_special: int = 4) -> None:
        if num_special < 4:
            raise ValueError("num_special must reserve PAD, BOS, EOS and SEP")
        if size <= num_special:
            raise ValueError(f"vocab size {size} must exceed num_special {num_special}")
        if zipf_s <= 0:
            raise ValueError("zipf_s must be positive")
        self.size = int(size)
        self.zipf_s = float(zipf_s)
        self.num_special = int(num_special)
        n_regular = self.size - self.num_special
        ranks = np.arange(1, n_regular + 1, dtype=np.float64)
        weights = ranks ** (-self.zipf_s)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        # guide[j] = searchsorted(cdf, j / buckets): the first rank a
        # uniform in bucket j can draw; guide[j + 1] bounds the last.
        self._buckets = min(MAX_GUIDE_BUCKETS, 1 << (n_regular - 1).bit_length())
        edges = np.arange(self._buckets + 1) / self._buckets
        self._guide = np.searchsorted(self._cdf, edges, side="left").astype(np.int32)

    @property
    def num_regular(self) -> int:
        return self.size - self.num_special

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` token ids (int64) from the Zipf distribution."""
        return self.sample_many([rng], [count])[0]

    def sample_many(
        self, rngs: Sequence[np.random.Generator], counts: Sequence[int]
    ) -> list[np.ndarray]:
        """Draw ``counts[i]`` token ids from ``rngs[i]`` for every ``i``.

        Each sequence takes its uniforms from its own generator, so it
        is the sequence :meth:`sample` would draw alone; the inverse-CDF
        lookup then runs once over all of them.
        """
        if len(rngs) != len(counts):
            raise ValueError(f"{len(rngs)} generators for {len(counts)} counts")
        if any(count < 0 for count in counts):
            raise ValueError("count must be non-negative")
        if len(counts) == 0:
            return []
        u = np.concatenate([rng.random(count) for rng, count in zip(rngs, counts)])
        ids = self._ranks(u) + np.int64(self.num_special)
        ends = itertools.accumulate(counts)
        return [ids[end - count : end] for count, end in zip(counts, ends)]

    def _ranks(self, u: np.ndarray) -> np.ndarray:
        """``np.searchsorted(self._cdf, u, side="left")`` for ``u`` in [0, 1).

        Bit for bit: ``u * buckets`` is exact (a power of two), so its
        floor ``j`` has ``j / buckets <= u < (j + 1) / buckets``, and the
        answer lies in ``[guide[j], guide[j + 1]]``.  Keys whose bounds
        are equal are done; the rest take a binary search (by descending
        powers of two) bounded to their bucket.  A probe past the bucket
        reads a CDF entry ``>= u`` and never moves the key.
        """
        j = (u * self._buckets).astype(np.intp)
        ranks = self._guide[j]
        span = self._guide[j + 1] - ranks
        wide = np.flatnonzero(span)
        if wide.size:
            keys, found = u[wide], ranks[wide]
            for bit in reversed(range(int(span[wide].max()).bit_length())):
                step = 1 << bit
                below = np.take(self._cdf, found + (step - 1), mode="clip") < keys
                np.add(found, step, out=found, where=below)
            ranks[wide] = found
        return ranks

    def token_probability(self, token_id: int) -> float:
        """Stationary probability of a regular token id (0 for specials)."""
        if token_id < self.num_special or token_id >= self.size:
            return 0.0
        rank = token_id - self.num_special
        lo = self._cdf[rank - 1] if rank > 0 else 0.0
        return float(self._cdf[rank] - lo)

    def expected_unique_fraction(self, num_draws: int) -> float:
        """Expected fraction of the vocabulary touched by ``num_draws`` draws.

        Used by tests to confirm the sparsity premise of §4.4: even tens
        of thousands of draws touch a small slice of a Zipfian vocab.
        """
        if num_draws < 0:
            raise ValueError("num_draws must be non-negative")
        probs = np.diff(self._cdf, prepend=0.0)
        touched = 1.0 - (1.0 - probs) ** num_draws
        return float(touched.sum() / self.size)
