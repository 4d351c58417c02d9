"""Layerwise score dynamics: the generative form of sequence-level sparsity.

Figure 2 of the paper is an *empirical observation* about real reranker
checkpoints: provisional candidate scores, read off with the model's own
classifier at intermediate layers, (a) fan out from an undifferentiated
blob into statistically distinct clusters as depth increases, and
(b) stabilise their **inter-cluster** relative order early, while the
order *within* a cluster keeps fluctuating until late layers.  The paper
attributes this to the coarse-to-fine refinement of transformer
representations.

Real checkpoints are unavailable offline, so this module encodes the
measured phenomenon as a deterministic generative process (DESIGN.md §2):

    score_ℓ(c) = anchor + (relevance(c) − anchor) · fanout(ℓ/L)
                 + noise_scale(ℓ/L) · ε(c, ℓ)

* ``fanout`` is a logistic ramp: scores start compressed around the
  anchor (low dispersion → the CV trigger of §4.1 stays quiet) and fan
  out toward each candidate's true relevance in intermediate layers —
  exactly the divergence Figure 2(a) shows.
* ``noise_scale`` decays with depth: early provisional scores are noisy
  (within-cluster flux) and the final layer retains a small residual
  (so even the unpruned baseline makes occasional top-K mistakes, as
  real rerankers do).
* ``ε`` is a deterministic unit-normal draw keyed by (model seed,
  candidate uid, layer) — a candidate's trajectory is independent of
  which other candidates share its batch, as cross-encoder scores must
  be, and identical across engines, so PRISM and the baselines disagree
  only through pruning.

Because dataset relevance is generated in *tiers* (``repro.data``), the
fanned-out scores form genuine clusters, and cluster-γ ≈ 1 emerges
rather than being asserted (validated in ``benchmarks/test_fig2``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFT_11, _SHIFT_27, _SHIFT_30, _SHIFT_31 = (np.uint64(s) for s in (11, 27, 30, 31))
_UID_PRIME = np.uint64(0x100000001B3)
_SEED_PRIME = np.uint64(0x1000193)
#: 53-bit mantissas to u1 in [0, 1), and to the angle 2π·u2.  Scaling by
#: 2^-53 is exact, so folding it into 2π rounds once, as 2π·u2 did.
_TO_UNIT = 2.0**-53
_TO_ANGLE = 2.0 * np.pi * 2.0**-53


def _noise_offset(model_seed: int, layer: int | np.ndarray) -> np.uint64 | np.ndarray:
    """The per-(seed, layer) part of the noise counter, plus SplitMix64's
    first increment (all arithmetic mod 2^64); ``layer`` may be an array."""
    with np.errstate(over="ignore"):
        return (
            np.uint64(model_seed & 0xFFFFFFFF) * _SEED_PRIME
            + np.asarray(layer, dtype=np.uint64)
            + _SPLITMIX_GAMMA
        )


def _splitmix64_finalise(z: np.ndarray) -> np.ndarray:
    """SplitMix64's mixing steps (the increment is the caller's)."""
    z = (z ^ (z >> _SHIFT_30)) * _SPLITMIX_MIX1
    z = (z ^ (z >> _SHIFT_27)) * _SPLITMIX_MIX2
    return z ^ (z >> _SHIFT_31)


def _normals(uids: np.ndarray, offset: np.uint64 | np.ndarray) -> np.ndarray:
    """Box–Muller over two chained SplitMix64 draws of ``uids * prime + offset``.

    Elementwise, so ``offset`` may be a column of per-layer offsets that
    broadcasts against ``uids`` into a (layers, candidates) table: every
    entry is the draw that candidate gets at that layer alone.
    """
    with np.errstate(over="ignore"):  # 0-d inputs take the scalar path
        base = _splitmix64_finalise(uids * _UID_PRIME + offset)
        other = _splitmix64_finalise(base + _SPLITMIX_GAMMA)
    # Map to (0, 1]; guard the log against exactly-zero mantissas.
    u1 = np.maximum((base >> _SHIFT_11) * _TO_UNIT, 1e-12)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos((other >> _SHIFT_11) * _TO_ANGLE)


def _unit_normals(model_seed: int, candidate_uids: np.ndarray, layer: int) -> np.ndarray:
    """Deterministic standard-normal draws keyed by (seed, candidate, layer).

    Counter-based (SplitMix64 → Box–Muller) so a candidate's draw is
    independent of batch composition and identical across engines.
    """
    uids = np.asarray(candidate_uids, dtype=np.uint64)
    return _normals(uids, _noise_offset(model_seed, layer))


def _unit_normal(model_seed: int, candidate_uid: int, layer: int) -> float:
    """Scalar convenience wrapper over :func:`_unit_normals`."""
    return float(_unit_normals(model_seed, np.array([candidate_uid]), layer)[0])


@dataclass(frozen=True)
class SemanticsConfig:
    """Shape parameters of the layerwise convergence process.

    Tuned per model family (see :mod:`repro.model.zoo`): e.g. the paper's
    Figure 10 sweeps dispersion thresholds over 0.1–0.9 for the Qwen
    family but only 0.1–0.4 for the BGE family, reflecting different
    score scales; and Qwen3-8B is flagged as over-fit (late layers can
    *hurt* ranking), which ``late_overfit_noise`` reproduces.
    """

    anchor: float = 0.5
    fanout_midpoint: float = 0.40
    fanout_sharpness: float = 9.0
    noise_initial: float = 0.16
    noise_final: float = 0.012
    noise_decay: float = 2.5
    #: Extra final-layers noise modelling the Qwen3-8B over-fitting the
    #: paper reports (its official benchmark shows the same anomaly);
    #: zero for well-behaved models.
    late_overfit_noise: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.fanout_midpoint < 1.0:
            raise ValueError("fanout_midpoint must lie in (0, 1)")
        if self.fanout_sharpness <= 0:
            raise ValueError("fanout_sharpness must be positive")
        if self.noise_initial < self.noise_final or self.noise_final < 0:
            raise ValueError("need noise_initial >= noise_final >= 0")
        if self.noise_decay <= 0:
            raise ValueError("noise_decay must be positive")

    # ------------------------------------------------------------------
    def fanout(self, progress: float) -> float:
        """Fraction of the relevance gap expressed at depth ``progress``.

        A logistic ramp rescaled so fanout(0) = 0 and fanout(1) = 1.
        """
        if not 0.0 <= progress <= 1.0:
            raise ValueError(f"progress {progress!r} outside [0, 1]")

        def raw(p: float) -> float:
            return 1.0 / (1.0 + np.exp(-self.fanout_sharpness * (p - self.fanout_midpoint)))

        lo, hi = raw(0.0), raw(1.0)
        return float((raw(progress) - lo) / (hi - lo))

    def noise_scale(self, progress: float) -> float:
        """Provisional-score noise at depth ``progress`` (decays with depth)."""
        base = self.noise_final + (self.noise_initial - self.noise_final) * (
            (1.0 - progress) ** self.noise_decay
        )
        if self.late_overfit_noise > 0 and progress > 0.75:
            base += self.late_overfit_noise * (progress - 0.75) / 0.25
        return float(base)


class ScoreDynamics:
    """Evaluates provisional scores for candidates at any layer depth.

    A pass draws its noise once: :meth:`noise` fills a (layers ×
    candidates) table in one call, and :meth:`scores_from_noise` turns a
    row of it into that layer's scores.  :meth:`scores_at` is the same
    draw and formula for one layer.
    """

    def __init__(self, config: SemanticsConfig, num_layers: int, model_seed: int) -> None:
        if num_layers <= 0:
            raise ValueError("num_layers must be positive")
        self.config = config
        self.num_layers = num_layers
        self.model_seed = model_seed
        #: Per layer: (fanout, noise scale), and the noise counter offset.
        self._terms = [
            (config.fanout(p), config.noise_scale(p))
            for p in map(self.progress, range(num_layers))
        ]
        self._offsets = _noise_offset(model_seed, np.arange(num_layers))

    def progress(self, layer: int) -> float:
        """Depth fraction after executing layer ``layer`` (0-based)."""
        if not 0 <= layer < self.num_layers:
            raise ValueError(f"layer {layer} outside [0, {self.num_layers})")
        return (layer + 1) / self.num_layers

    def score_at(self, layer: int, relevance: float, candidate_uid: int) -> float:
        """Provisional classifier score for one candidate after ``layer``."""
        return float(
            self.scores_at(layer, np.array([relevance]), np.array([candidate_uid]))[0]
        )

    def scores_at(
        self, layer: int, relevance: np.ndarray, candidate_uids: np.ndarray
    ) -> np.ndarray:
        """Provisional classifier scores for a candidate batch after ``layer``."""
        relevance = np.asarray(relevance, dtype=np.float64)
        candidate_uids = np.asarray(candidate_uids)
        if relevance.shape != candidate_uids.shape:
            raise ValueError("relevance and candidate_uids must align")
        self.progress(layer)
        eps = _normals(np.asarray(candidate_uids, dtype=np.uint64), self._offsets[layer])
        return self.scores_from_noise(layer, relevance, eps)

    def noise(self, candidate_uids: np.ndarray, first_layer: int = 0) -> np.ndarray:
        """The noise ε of every layer from ``first_layer`` on (rows) for
        every candidate (columns), in one SplitMix64/Box–Muller call.

        Entry ``[ℓ - first_layer, c]`` is the draw :meth:`scores_at`
        makes for candidate ``c`` after layer ``ℓ``, whatever else shares
        the table.
        """
        self.progress(first_layer)
        uids = np.asarray(candidate_uids, dtype=np.uint64)
        return _normals(uids, self._offsets[first_layer:, None])

    def scores_from_noise(
        self, layer: int, relevance: np.ndarray, eps: np.ndarray
    ) -> np.ndarray:
        """Scores after ``layer`` from that layer's noise ``eps``."""
        relevance = np.asarray(relevance, dtype=np.float64)
        fanout, noise_scale = self._terms[layer]
        anchor = self.config.anchor
        return anchor + (relevance - anchor) * fanout + noise_scale * eps

    def final_scores(self, relevance: np.ndarray, candidate_uids: np.ndarray) -> np.ndarray:
        """Scores after the last layer — what an unpruned engine reports."""
        return self.scores_at(self.num_layers - 1, relevance, candidate_uids)

    def trajectory(self, relevance: float, candidate_uid: int) -> np.ndarray:
        """Full per-layer score trajectory for one candidate (Figure 2a)."""
        return np.array(
            [self.score_at(layer, relevance, candidate_uid) for layer in range(self.num_layers)]
        )
