"""Deterministic tokenizer over the Zipfian vocabulary.

The reproduction does not need linguistic tokenization — it needs
token-id sequences whose *statistics* (length, skew, query/document
structure) match what the cross-encoders see.  ``Tokenizer`` maps text
to ids two ways:

* real strings are hashed word-by-word onto vocabulary ranks, so the
  same word always produces the same id (important for the embedding
  cache: repeated words across candidates hit the cache);
* synthetic documents are drawn directly from the Zipf model via a
  seed, which is how the dataset generators mint corpora at scale
  without storing text.

The cross-encoder input convention follows the paper's models:
``[BOS] query [SEP] document [EOS]`` truncated/padded to ``max_len``.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from .vocab import Vocabulary


def _stable_hash(text: str) -> int:
    """A platform-stable 64-bit hash (Python's ``hash`` is salted)."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


#: The fixed relevance-judgement instruction wrapped around every
#: query-document pair.  Qwen3-Reranker-style models are prompted with
#: a system instruction plus a yes/no judgement template; the ~80
#: boilerplate tokens it adds to every pair are part of the workload
#: (they lengthen the compute window of §3.2 and, being identical
#: across candidates, they are the embedding cache's hottest rows).
INSTRUCTION_TEMPLATE = (
    "judge whether the document meets the requirements of the query "
    "and answer only yes or no . you are a helpful relevance grader . "
    "given a web search query and a retrieved document , your task is "
    "to decide if the document contains the information the query asks "
    "for . consider partial matches , paraphrases and implied answers "
    "when grading . respond strictly with a single token . query and "
    "document follow after this instruction in that order . note that "
    "documents may be truncated and formatting may have been removed ."
)


class Tokenizer:
    """Maps text or synthetic seeds to token-id arrays."""

    def __init__(self, vocab: Vocabulary) -> None:
        self.vocab = vocab
        self._template_ids: np.ndarray | None = None

    def template_ids(self) -> np.ndarray:
        """Token ids of the fixed instruction template (cached)."""
        if self._template_ids is None:
            self._template_ids = self.encode_text(INSTRUCTION_TEMPLATE)
            self._template_ids.flags.writeable = False
        return self._template_ids

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    def encode_text(self, text: str) -> np.ndarray:
        """Encode a real string; same word → same token id."""
        words = text.split()
        if not words:
            return np.empty(0, dtype=np.int64)
        ids = np.empty(len(words), dtype=np.int64)
        n = self.vocab.num_regular
        for i, word in enumerate(words):
            # Map the word hash onto a Zipf rank so that common words in
            # synthetic corpora overlap with hashed words statistically.
            ids[i] = self.vocab.num_special + (_stable_hash(word) % n)
        return ids

    def encode_synthetic(self, seed: int, length: int) -> np.ndarray:
        """Mint a deterministic synthetic token sequence from a seed."""
        return self.encode_synthetic_many([seed], [length])[0]

    def encode_synthetic_many(
        self, seeds: Sequence[int], lengths: Sequence[int]
    ) -> list[np.ndarray]:
        """:meth:`encode_synthetic` for every ``(seed, length)`` pair at once.

        A seed's first ``d`` ids are the prefix of its first ``n`` for
        any ``d <= n``, so a caller that keeps only a prefix can ask for
        just that.
        """
        rngs = [np.random.default_rng(seed) for seed in seeds]
        return self.vocab.sample_many(rngs, lengths)

    # ------------------------------------------------------------------
    # cross-encoder packing
    # ------------------------------------------------------------------
    def pair_layout(
        self, query_len: int, max_len: int, with_template: bool = True
    ) -> tuple[int, int, int]:
        """How ``[BOS] template query [SEP] doc [EOS]`` fits ``max_len``.

        Returns the template and query ids kept and the room left for
        the document.  The document is truncated first (instructions
        and queries are short and fully informative), then the query,
        then the template.
        """
        if max_len < 4:
            raise ValueError("max_len must leave room for special tokens")
        budget = max_len - 3  # BOS, SEP, EOS
        template = min(self.template_ids().size, budget) if with_template else 0
        query = min(query_len, budget - template)
        return template, query, budget - template - query

    def build_pair(
        self,
        query_ids: np.ndarray,
        doc_ids: np.ndarray,
        max_len: int,
        with_template: bool = True,
    ) -> np.ndarray:
        """Pack ``[BOS] template query [SEP] doc [EOS]`` to ``max_len`` ids.

        The instruction template (see :data:`INSTRUCTION_TEMPLATE`)
        precedes the query, as in the Qwen3-Reranker prompt format.
        Truncation follows :meth:`pair_layout`; the sequence is padded
        with PAD at the tail, matching right-padding in HF reranker
        stacks.
        """
        return self.batch_pairs(query_ids, [doc_ids], max_len, with_template)[0]

    def batch_pairs(
        self,
        query_ids: np.ndarray,
        docs: Sequence[np.ndarray],
        max_len: int,
        with_template: bool = True,
    ) -> np.ndarray:
        """Pack one query against many documents → (N, max_len) int64.

        Row ``i`` is :meth:`build_pair` of ``docs[i]``: the shared head
        is written once for all rows, then each document's slice.
        """
        template, query, room = self.pair_layout(len(query_ids), max_len, with_template)
        if len(docs) == 0:
            raise ValueError("batch_pairs needs at least one document")
        vocab = self.vocab
        tokens = np.full((len(docs), max_len), vocab.PAD, dtype=np.int64)
        tokens[:, 0] = vocab.BOS
        tokens[:, 1 : 1 + template] = self.template_ids()[:template]
        sep = 1 + template + query
        tokens[:, 1 + template : sep] = query_ids[:query]
        tokens[:, sep] = vocab.SEP
        ends = np.empty(len(docs), dtype=np.int64)
        for row, doc in enumerate(docs):
            kept = min(len(doc), room)
            tokens[row, sep + 1 : sep + 1 + kept] = doc[:kept]
            ends[row] = sep + 1 + kept
        tokens[np.arange(len(docs)), ends] = vocab.EOS
        return tokens

    def attention_lengths(self, batch: np.ndarray) -> np.ndarray:
        """Non-PAD length of every row in a packed batch."""
        return (batch != self.vocab.PAD).sum(axis=1).astype(np.int64)
