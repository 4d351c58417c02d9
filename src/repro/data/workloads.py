"""Workload representation: reranking requests and packing.

A :class:`RerankQuery` is model-agnostic — candidates are described by
(seed, length, relevance, label) rather than concrete token ids, so the
same workload can be packed for models with different vocabularies and
sequence limits.  :func:`build_batch` turns one query into the
:class:`~repro.model.transformer.CandidateBatch` an engine consumes;
:func:`build_batches` packs a request list, each distinct query once.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from ..model.transformer import CandidateBatch
from ..text.tokenizer import Tokenizer


@dataclass(frozen=True)
class CandidateSpec:
    """One candidate document of one query."""

    uid: int
    seed: int
    length: int
    relevance: float
    is_relevant: bool


@dataclass(frozen=True)
class RerankQuery:
    """One reranking request: a query against a candidate pool.

    ``tenant`` tags the query with its submitting tenant for the
    multi-tenant workload plane (DESIGN.md §13); ``None`` (the
    default) keeps single-tenant workloads byte-identical.
    """

    query_id: int
    seed: int
    query_length: int
    candidates: tuple[CandidateSpec, ...]
    tenant: str | None = None

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)

    @property
    def num_relevant(self) -> int:
        return sum(1 for c in self.candidates if c.is_relevant)

    def relevance(self) -> np.ndarray:
        return np.array([c.relevance for c in self.candidates])

    def labels(self) -> np.ndarray:
        return np.array([c.is_relevant for c in self.candidates], dtype=bool)

    def uids(self) -> np.ndarray:
        return np.array([c.uid for c in self.candidates], dtype=np.int64)


def build_batch(query: RerankQuery, tokenizer: Tokenizer, max_len: int) -> CandidateBatch:
    """Pack a query's candidates into a monolithic model batch.

    The token matrix is packed when it is first read; every argument
    check runs here.  Only the ids that survive truncation to
    ``max_len`` are drawn: a synthetic sequence's prefix does not depend
    on its full length.  A row's attention length is its layout, the
    kept template, query and document ids plus BOS, SEP and EOS, since
    no template or drawn id is PAD.
    """
    template, query_len, room = tokenizer.pair_layout(query.query_length, max_len)
    if not query.candidates:
        raise ValueError("a query needs at least one candidate")
    seeds = [query.seed]
    counts = [query_len]
    for candidate in query.candidates:
        seeds.append(candidate.seed)
        counts.append(min(candidate.length, room))
    if min(seeds) < 0 or min(counts) < 0:
        raise ValueError("seeds and lengths must be non-negative")

    def pack() -> np.ndarray:
        query_ids, *docs = tokenizer.encode_synthetic_many(seeds, counts)
        return tokenizer.batch_pairs(query_ids, docs, max_len)

    return CandidateBatch.deferred(
        pack,
        lengths=np.array(counts[1:], dtype=np.int64) + (template + query_len + 3),
        relevance=query.relevance(),
        uids=query.uids(),
    )


def build_batches(
    queries: Sequence[RerankQuery], tokenizer: Tokenizer, max_len: int
) -> list[CandidateBatch]:
    """Pack a request list as :func:`build_batch` does, each distinct query once.

    Queries with the same ``(seed, query_length)`` whose candidate
    tuples are prefixes of one *head* (exact repeats included) share a
    single :func:`build_batch` of that head: each gets its own
    :class:`CandidateBatch` of the head's first ``n`` token and length
    rows, as views, and its own relevance and uids.  The result is
    bitwise the list comprehension.  ``pair_layout`` depends only on
    ``query_length`` and ``max_len``, so every row of the group carries
    the same query ids (drawn from ``seed``), and ``build_batch`` packs
    each candidate row from that candidate alone: its ids from its own
    seeded generator, truncated to the same room, and its attention
    length from that row.  Candidates that compare equal therefore
    pack to equal rows.

    The head is packed when the first of its views reads its tokens,
    and only once.  Its token and length arrays are made read-only, so
    a write through one request raises instead of changing its
    siblings.  :meth:`CandidateBatch.select` copies, so a pruned subset
    stays private and writable.  Nothing outlives the call: the
    returned batches hold the only references to the shared rows.
    """
    groups: dict[tuple, list[tuple[tuple[CandidateSpec, ...], CandidateBatch]]] = {}
    batches: dict[int, CandidateBatch] = {}
    # Longest first, so every head is built before its prefixes look for it.
    for index in sorted(range(len(queries)), key=lambda i: -len(queries[i].candidates)):
        query = queries[index]
        rows = len(query.candidates)
        # A head's prefixes start with its first candidate.  A query
        # without candidates finds no head (none is ever built under its
        # key), so it raises here as build_batch does.
        group = groups.setdefault((query.seed, query.query_length, query.candidates[:1]), [])
        for candidates, head in group:
            if candidates[:rows] == query.candidates:
                break
        else:
            head = build_batch(query, tokenizer, max_len)
            head.lengths.flags.writeable = False
            group.append((query.candidates, head))
        batches[index] = CandidateBatch.deferred(
            partial(_shared_rows, head, rows),
            lengths=head.lengths[:rows],
            relevance=query.relevance(),
            uids=query.uids(),
        )
    return [batches[index] for index in range(len(queries))]


def _shared_rows(head: CandidateBatch, rows: int) -> np.ndarray:
    """The first ``rows`` of ``head``'s tokens, as a read-only view."""
    tokens = head.tokens
    tokens.flags.writeable = False
    return tokens[:rows]


def make_query(
    rng: np.random.Generator,
    query_id: int,
    labels: np.ndarray,
    relevance: np.ndarray,
    query_length: int,
    doc_length_mean: int,
    doc_length_jitter: int = 40,
) -> RerankQuery:
    """Assemble a :class:`RerankQuery` from a drawn relevance pool."""
    if labels.shape != relevance.shape:
        raise ValueError("labels and relevance must align")
    candidates = []
    for label, rel in zip(labels, relevance):
        length = int(
            min(max(rng.normal(doc_length_mean, doc_length_jitter), 32), 4 * doc_length_mean)
        )
        candidates.append(
            CandidateSpec(
                uid=int(rng.integers(0, 2**31 - 1)),
                seed=int(rng.integers(0, 2**31 - 1)),
                length=length,
                relevance=float(rel),
                is_relevant=bool(label),
            )
        )
    return RerankQuery(
        query_id=query_id,
        seed=int(rng.integers(0, 2**31 - 1)),
        query_length=query_length,
        candidates=tuple(candidates),
    )


def weighted_draws(rng: np.random.Generator, p) -> Callable[[], int]:
    """A draw function that picks what ``rng.choice`` picks with weights ``p``.

    ``Generator.choice`` checks ``p`` and rebuilds its CDF on every
    call; this does both once.  A bad ``p`` raises here the
    ``ValueError`` that choice raises for it, after the same checks in
    the same order (choice sums ``p`` with a Kahan sum and widens the
    tolerance for a low-precision float ``p``).  The CDF is built as
    choice builds it: ``cumsum``, then division by its last entry.
    Each call of the returned function takes one uniform from ``rng``,
    as choice does, and finds it with choice's ``side="right"`` search.
    So the picks, and the generator's state after each one, are
    choice's, interleaved with any other draws.
    """
    atol = np.sqrt(np.finfo(np.float64).eps)
    if isinstance(p, np.ndarray) and np.issubdtype(p.dtype, np.floating):
        atol = max(atol, np.sqrt(np.finfo(p.dtype).eps))
    if len(p) == 0:
        raise ValueError("a must be a positive integer unless no samples are taken")
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("p must be 1-dimensional")
    weights = p.tolist()
    total, carry = weights[0], 0.0
    for weight in weights[1:]:
        step = weight - carry
        summed = total + step
        carry = (summed - total) - step
        total = summed
    if math.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > atol:
        raise ValueError(
            "Probabilities do not sum to 1. See Notes section of docstring for more information."
        )
    cdf = p.cumsum()
    cdf /= cdf[-1]
    edges = cdf.tolist()
    uniform = rng.random
    return lambda: bisect_right(edges, uniform())


def zipf_request_stream(
    rng: np.random.Generator,
    base_queries: "list[RerankQuery]",
    num_requests: int,
    zipf_s: float = 1.1,
    partial_overlap_rate: float = 0.0,
    resample_fraction: float = 0.5,
    tenant_of: "Callable[[int], str] | None" = None,
) -> "list[RerankQuery]":
    """Draw a Zipf-skewed stream of repeated reranking requests.

    Retrieval traffic is head-heavy: a few hot queries dominate.  The
    stream draws ``num_requests`` queries from ``base_queries`` with
    truncated-Zipf rank weights (rank ``r`` drawn with probability
    proportional to ``r ** -zipf_s``), so popular queries repeat —
    the request-overlap regime the data plane (DESIGN.md §12) caches.

    With probability ``partial_overlap_rate`` a draw is *mutated*
    instead of repeated verbatim: it keeps the first
    ``1 - resample_fraction`` of the base query's candidates (the
    shared prefix the plane's layer 2 can reuse) and replaces the rest
    with freshly drawn candidates (the residue a reduced pass must
    score).  Mutations are cached per base query, so the same mutated
    variant can itself repeat and memo-hit.

    ``tenant_of`` tags the stream for the multi-tenant workload plane
    (DESIGN.md §13): draw ``i``'s query carries
    ``tenant=tenant_of(i)``, and each tenant's mutations are drawn
    from its own deterministic RNG substream (derived from one base
    seed plus a stable digest of the tenant id), so adding or removing
    one tenant never perturbs another tenant's variants.  Mutation
    caching is then keyed ``(base index, tenant)``.  With
    ``tenant_of=None`` (the default) the untagged code path runs
    unchanged and the stream is byte-identical to one drawn before the
    hook existed.
    """
    if not base_queries:
        raise ValueError("base_queries must be non-empty")
    if num_requests < 0:
        raise ValueError("num_requests must be >= 0")
    if not zipf_s >= 0:
        raise ValueError("zipf_s must be >= 0")
    if not 0.0 <= partial_overlap_rate <= 1.0:
        raise ValueError("partial_overlap_rate must lie in [0, 1]")
    if not 0.0 < resample_fraction <= 1.0:
        raise ValueError("resample_fraction must lie in (0, 1]")

    ranks = np.arange(1, len(base_queries) + 1, dtype=np.float64)
    weights = ranks**-zipf_s
    weights /= weights.sum()
    draw_index = weighted_draws(rng, weights)

    def mutate(query: RerankQuery, source: np.random.Generator) -> RerankQuery:
        keep = max(1, int(round(len(query.candidates) * (1.0 - resample_fraction))))
        fresh = []
        for _ in range(len(query.candidates) - keep):
            relevance = float(source.uniform(0.05, 0.95))
            fresh.append(
                CandidateSpec(
                    uid=int(source.integers(0, 2**31 - 1)),
                    seed=int(source.integers(0, 2**31 - 1)),
                    length=int(query.candidates[0].length),
                    relevance=relevance,
                    is_relevant=relevance >= 0.5,
                )
            )
        return RerankQuery(
            query_id=query.query_id,
            seed=query.seed,
            query_length=query.query_length,
            candidates=query.candidates[:keep] + tuple(fresh),
            tenant=query.tenant,
        )

    if tenant_of is None:
        # The untagged path: byte-identical to the pre-§13 generator
        # (every draw comes from ``rng``, in the original order).
        mutated: dict[int, RerankQuery] = {}
        stream: list[RerankQuery] = []
        for _ in range(num_requests):
            index = draw_index()
            if partial_overlap_rate > 0.0 and rng.random() < partial_overlap_rate:
                if index not in mutated:
                    mutated[index] = mutate(base_queries[index], rng)
                stream.append(mutated[index])
            else:
                stream.append(base_queries[index])
        return stream

    # Tagged path: per-tenant deterministic RNG substreams.  The base
    # entropy is drawn from ``rng`` once; each tenant's substream seeds
    # from (base, sha256(tenant id)) — stable across runs and across
    # tenant-set changes, unlike Python's salted hash().
    base_entropy = int(rng.integers(0, 2**31 - 1))
    substreams: dict[str, np.random.Generator] = {}

    def substream(tenant: str) -> np.random.Generator:
        if tenant not in substreams:
            digest = hashlib.sha256(tenant.encode("utf-8")).digest()
            substreams[tenant] = np.random.default_rng(
                [base_entropy, int.from_bytes(digest[:8], "big")]
            )
        return substreams[tenant]

    tenant_mutated: dict[tuple[int, str], RerankQuery] = {}
    stream = []
    for draw in range(num_requests):
        index = draw_index()
        tenant = tenant_of(draw)
        if partial_overlap_rate > 0.0 and rng.random() < partial_overlap_rate:
            key = (index, tenant)
            if key not in tenant_mutated:
                tenant_mutated[key] = mutate(
                    replace(base_queries[index], tenant=tenant), substream(tenant)
                )
            stream.append(tenant_mutated[key])
        else:
            stream.append(replace(base_queries[index], tenant=tenant))
    return stream
