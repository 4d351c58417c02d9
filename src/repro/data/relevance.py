"""Tiered relevance generation.

The clustering premise of progressive cluster pruning (§3.1) is that
candidate pools contain *tiers*: a few clearly relevant documents, a
band of partially-related ones, and bulk distractors.  Real retrieval
pipelines produce exactly this structure (the candidates arrive from
keyword + embedding retrieval, Figure 1), and the paper's Figure 2
shows scores separating into these tiers layer by layer.

``RelevanceProfile`` describes a dataset's tier geometry; drawing a
query's candidate pool yields, per candidate:

* a **label** (ground-truth relevant or not) — used by Precision@K;
* a **perceived relevance** in [0, 1] — the value the model's score
  process converges to.

The two are deliberately imperfectly aligned (a fraction of relevant
documents read as merely mid-tier, and some distractors read as
plausible): this is what keeps Precision@K below 1.0 even for the
unpruned baseline, as in the paper's Figure 8 (e.g. P@10 ≈ 0.73 on
Wikipedia).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Tier:
    """One relevance tier: a Gaussian band of perceived relevance."""

    center: float
    spread: float

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        values = rng.normal(self.center, self.spread, size=count)
        return np.clip(values, 0.01, 0.99)


@dataclass(frozen=True)
class RelevanceProfile:
    """Tier geometry for one dataset.

    Parameters
    ----------
    top_tier / mid_tier / low_tiers:
        Perceived-relevance bands.  Relevant documents mostly land in
        the top tier, sometimes in the mid tier (``hard_relevant_rate``)
        and occasionally read as distractors entirely
        (``invisible_relevant_rate`` — labelled relevant but beyond what
        the model can perceive, the main source of P@K < 1 at larger K);
        distractors land in the low tiers, occasionally in the mid tier
        (``plausible_distractor_rate``).
    separation:
        Global tier-compression factor in (0, 1]: 1.0 keeps the profile
        as-is; smaller values squeeze all tiers toward their mean,
        making clusters harder to separate (rankings stabilise later,
        so PRISM prunes later — this drives the per-dataset spread of
        latency reductions in Table 3).
    relevant_range:
        Inclusive (min, max) of ground-truth relevant documents per query.
    """

    top_tier: Tier = Tier(0.86, 0.035)
    mid_tier: Tier = Tier(0.58, 0.045)
    low_tiers: tuple[Tier, ...] = (Tier(0.30, 0.04), Tier(0.12, 0.035))
    hard_relevant_rate: float = 0.22
    invisible_relevant_rate: float = 0.18
    plausible_distractor_rate: float = 0.10
    separation: float = 1.0
    relevant_range: tuple[int, int] = (2, 12)

    def __post_init__(self) -> None:
        if not 0 < self.separation <= 1:
            raise ValueError("separation must lie in (0, 1]")
        if not 0 <= self.hard_relevant_rate <= 1:
            raise ValueError("hard_relevant_rate must lie in [0, 1]")
        if not 0 <= self.invisible_relevant_rate <= 1:
            raise ValueError("invisible_relevant_rate must lie in [0, 1]")
        if self.hard_relevant_rate + self.invisible_relevant_rate > 1:
            raise ValueError("relevant-tier rates must sum to at most 1")
        if not 0 <= self.plausible_distractor_rate <= 1:
            raise ValueError("plausible_distractor_rate must lie in [0, 1]")
        lo, hi = self.relevant_range
        if lo < 0 or hi < lo:
            raise ValueError(f"bad relevant_range {self.relevant_range}")
        # The tier mean ``_compress`` squeezes toward, once per profile.
        centers = [self.top_tier.center, self.mid_tier.center]
        centers += [tier.center for tier in self.low_tiers]
        object.__setattr__(self, "_mean", float(np.mean(centers)))

    # ------------------------------------------------------------------
    def draw_pool(
        self, rng: np.random.Generator, num_candidates: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw one query's candidate pool.

        Returns ``(labels, relevance)`` — bool ground truth and the
        perceived relevance values the model converges to.
        """
        lo, hi = self.relevant_range
        if num_candidates < max(lo, 1):
            raise ValueError(
                f"num_candidates ({num_candidates}) must be positive and at least "
                f"relevant_range[0] ({lo})"
            )
        num_relevant = int(rng.integers(lo, min(hi, num_candidates) + 1))
        labels = np.zeros(num_candidates, dtype=bool)
        labels[:num_relevant] = True
        rng.shuffle(labels)

        relevance = np.empty(num_candidates, dtype=np.float64)
        for i, is_relevant in enumerate(labels):
            relevance[i] = self._draw_one(rng, bool(is_relevant))
        return labels, self._compress(relevance)

    def _draw_one(self, rng: np.random.Generator, is_relevant: bool) -> float:
        if is_relevant:
            draw = rng.random()
            if draw < self.invisible_relevant_rate:
                tier = self.low_tiers[int(rng.integers(len(self.low_tiers)))]
            elif draw < self.invisible_relevant_rate + self.hard_relevant_rate:
                tier = self.mid_tier
            else:
                tier = self.top_tier
        elif rng.random() < self.plausible_distractor_rate:
            tier = self.mid_tier
        else:
            tier = self.low_tiers[int(rng.integers(len(self.low_tiers)))]
        # Must equal ``float(tier.draw(rng, 1)[0])``: the same normal draw,
        # clipped to the same bounds, without numpy's per-call overhead.
        return min(max(rng.normal(tier.center, tier.spread), 0.01), 0.99)

    def _compress(self, relevance: np.ndarray) -> np.ndarray:
        """Squeeze tiers toward the profile mean by ``separation``."""
        if self.separation >= 1.0:
            return relevance
        mean = self._mean
        return np.clip(mean + (relevance - mean) * self.separation, 0.01, 0.99)
