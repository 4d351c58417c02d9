"""Synthetic document corpus with topical structure.

The RAG evaluation (§6.3, Figure 11) retrieves from a personal-data
corpus with both keyword search and vector search before reranking.
Offline, we mint a corpus whose documents carry *topical structure*:

* every document belongs to one topic and draws a configurable share of
  its words from that topic's private vocabulary, the rest from a
  shared Zipfian background;
* queries target a topic, using topic words, so term overlap (BM25) and
  embedding similarity (bi-encoder) both carry genuine signal;
* each (query, document) pair has a **true semantic relevance** derived
  from the topic relation (same topic > adjacent topic > unrelated),
  which is what the cross-encoder's score process converges to and what
  Precision@K is measured against.

The structure deliberately mirrors the tiered pools of
:mod:`repro.data.relevance`, so the reranker sees the same cluster
geometry whether candidates come from dataset generators or from this
retrieval stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..data.workloads import weighted_draws

#: Relevance tiers by topic relation (same / adjacent / unrelated).
SAME_TOPIC_RELEVANCE = (0.82, 0.07)
ADJACENT_TOPIC_RELEVANCE = (0.58, 0.09)
UNRELATED_RELEVANCE = (0.18, 0.07)

#: Perceived relevance above which a reranker score reads as a
#: confident match (used by applications' accept decisions).
RELEVANT_THRESHOLD = 0.7


@dataclass(frozen=True)
class Document:
    """One corpus document."""

    doc_id: int
    topic_id: int
    words: tuple[str, ...]
    #: Fraction of words drawn from the topic vocabulary (readability of
    #: the topical signal; low-purity documents are hard for retrieval).
    purity: float

    @property
    def text(self) -> str:
        return " ".join(self.words)

    def __len__(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class CorpusQuery:
    """A query against the corpus, with per-document ground truth."""

    query_id: int
    topic_id: int
    words: tuple[str, ...]
    #: True semantic relevance per doc_id (what the reranker converges to).
    relevance: np.ndarray
    #: Boolean ground-truth labels per doc_id.
    labels: np.ndarray
    #: Documents the answer actually requires (drives RAG answer accuracy).
    needed: tuple[int, ...] = ()

    @property
    def text(self) -> str:
        return " ".join(self.words)

    def relevant_ids(self) -> np.ndarray:
        return np.flatnonzero(self.labels)


@dataclass
class SyntheticCorpus:
    """A topical document collection plus query generator.

    Parameters
    ----------
    num_docs:
        Corpus size.
    num_topics:
        Number of topics; documents are assigned round-robin with
        jittered purity.  Topics are arranged on a ring: topic *t* is
        "adjacent" to *t±1*, giving mid-tier semantic relevance.
        Keep docs-per-topic near the retriever's per-arm budget
        (≈10) so hybrid retrieval can cover a topic — the regime the
        paper's RAG pipeline operates in.
    words_per_doc:
        Mean document length in words.
    seed:
        Generator seed; everything downstream is deterministic in it.
    """

    num_docs: int = 400
    num_topics: int = 20
    words_per_doc: int = 460
    topic_vocab_size: int = 160
    common_vocab_size: int = 2400
    seed: int = 0xC0B9
    documents: list[Document] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        if self.num_docs <= 0 or self.num_topics <= 0:
            raise ValueError("num_docs and num_topics must be positive")
        if self.num_topics > self.num_docs:
            raise ValueError("cannot have more topics than documents")
        if self.topic_vocab_size < 1 or self.common_vocab_size < 1:
            raise ValueError("topic_vocab_size and common_vocab_size must be >= 1")
        self._rng = np.random.default_rng(np.random.SeedSequence([0x0C0, self.seed]))
        self._build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _topic_word(self, topic_id: int, index: int) -> str:
        return f"t{topic_id:03d}w{index:03d}"

    def _common_word(self, index: int) -> str:
        return f"c{index:04d}"

    def _draw_words(
        self, topic_id: int, count: int, purity: float, draw_common: Callable[[], int]
    ) -> tuple[str, ...]:
        rng = self._rng
        words = []
        for _ in range(count):
            if rng.random() < purity:
                words.append(self._topic_word(topic_id, int(rng.integers(self.topic_vocab_size))))
            else:
                words.append(self._common_word(draw_common()))
        return tuple(words)

    def _build(self) -> None:
        rng = self._rng
        # Zipf-skewed background draw keeps the common band realistic.
        zipf_weights = 1.0 / np.arange(1, self.common_vocab_size + 1)
        zipf_weights /= zipf_weights.sum()
        draw_common = weighted_draws(rng, zipf_weights)
        for doc_id in range(self.num_docs):
            topic_id = doc_id % self.num_topics
            purity = min(max(rng.normal(0.42, 0.10), 0.10), 0.80)
            length = int(min(max(rng.normal(self.words_per_doc, 10), 16), 4 * self.words_per_doc))
            self.documents.append(
                Document(
                    doc_id=doc_id,
                    topic_id=topic_id,
                    words=self._draw_words(topic_id, length, purity, draw_common),
                    purity=purity,
                )
            )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def topic_relation(self, query_topic: int, doc_topic: int) -> str:
        """Relation class between a query topic and a document topic."""
        if query_topic == doc_topic:
            return "same"
        ring_distance = min(
            abs(query_topic - doc_topic),
            self.num_topics - abs(query_topic - doc_topic),
        )
        return "adjacent" if ring_distance == 1 else "unrelated"

    def make_query(self, query_id: int, topic_id: int | None = None, length: int = 8) -> CorpusQuery:
        """Mint one query targeting a topic, with full ground truth."""
        rng = np.random.default_rng(np.random.SeedSequence([0x9E4, self.seed, query_id]))
        if topic_id is None:
            topic_id = int(rng.integers(self.num_topics))
        if not 0 <= topic_id < self.num_topics:
            raise ValueError(f"topic_id {topic_id} outside [0, {self.num_topics})")
        words = tuple(
            self._topic_word(topic_id, int(rng.integers(self.topic_vocab_size)))
            for _ in range(length)
        )
        relevance = np.empty(self.num_docs)
        labels = np.zeros(self.num_docs, dtype=bool)
        for doc in self.documents:
            relation = self.topic_relation(topic_id, doc.topic_id)
            if relation == "same":
                center, spread = SAME_TOPIC_RELEVANCE
                # Low-purity same-topic docs read as weaker matches —
                # they stay ground-truth relevant but the model may not
                # perceive them (the "invisible relevant" band that
                # keeps Precision@K below 1.0, cf. repro.data.relevance).
                # The modulation is bounded so same-topic docs remain a
                # coherent tier rather than a continuum.
                center = center * (0.90 + 0.18 * doc.purity)
                labels[doc.doc_id] = True
            elif relation == "adjacent":
                center, spread = ADJACENT_TOPIC_RELEVANCE
            else:
                center, spread = UNRELATED_RELEVANCE
            relevance[doc.doc_id] = min(max(rng.normal(center, spread), 0.01), 0.99)

        # The answer hinges on a couple of specific documents; pick them
        # among the retrievable (high-purity) same-topic docs so coverage
        # measures selection quality rather than retrieval luck.
        same_topic = [d for d in self.documents if d.topic_id == topic_id]
        same_topic.sort(key=lambda d: -d.purity)
        needed = tuple(d.doc_id for d in same_topic[: min(2, len(same_topic))])
        return CorpusQuery(
            query_id=query_id,
            topic_id=topic_id,
            words=words,
            relevance=relevance,
            labels=labels,
            needed=needed,
        )

    def make_queries(self, num_queries: int, length: int = 8) -> list[CorpusQuery]:
        """A deterministic batch of queries cycling over topics."""
        if num_queries <= 0:
            raise ValueError("num_queries must be positive")
        return [
            self.make_query(qid, topic_id=qid % self.num_topics, length=length)
            for qid in range(num_queries)
        ]

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.documents)

    def document(self, doc_id: int) -> Document:
        if not 0 <= doc_id < self.num_docs:
            raise IndexError(f"doc_id {doc_id} outside corpus")
        return self.documents[doc_id]
