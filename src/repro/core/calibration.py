"""Dispersion-threshold auto-calibration (§4.1).

The dispersion threshold trades precision for latency.  Instead of
hand-tuning it, PRISM lets the user specify a minimum precision target;
the system then (a) samples live requests and logs their pruned top-K
results, (b) re-executes the sampled requests *without pruning* while
the device is idle to obtain ground truth, (c) compares, and (d) walks
the threshold: raise it when sampled precision falls below the target,
lower it when there is headroom — converging to the lowest (fastest)
threshold that meets the constraint.

``ThresholdCalibrator`` implements that feedback loop over the
simulator.  The sampled selections and the "idle-time ground-truth
re-execution" are device-free plans, so nothing is charged to request
latency, mirroring the paper's background execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..model.transformer import CandidateBatch, CrossEncoderModel
from .config import PrismConfig
from .metrics import top_k_overlap
from .pruning import plan_selection


@dataclass
class CalibrationStep:
    """One round of the feedback loop."""

    threshold: float
    sampled_precision: float
    met_target: bool


@dataclass
class CalibrationResult:
    """Outcome of a calibration run."""

    threshold: float
    history: list[CalibrationStep] = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return len(self.history)


class ThresholdCalibrator:
    """Feedback controller for the dispersion threshold.

    Parameters
    ----------
    model:
        The reranker whose selections are sampled.
    precision_target:
        Minimum acceptable agreement between pruned and unpruned top-K
        sets (the paper's "minimum precision target" mode measures
        sampled requests against ground truth; with full re-execution
        available in simulation, agreement *is* that precision).
    """

    def __init__(
        self,
        model: CrossEncoderModel,
        precision_target: float = 0.95,
        step: float = 0.05,
        max_rounds: int = 12,
    ) -> None:
        if not 0 < precision_target <= 1:
            raise ValueError("precision_target must lie in (0, 1]")
        if step <= 0:
            raise ValueError("step must be positive")
        self.model = model
        self.precision_target = precision_target
        self.step = step
        self.max_rounds = max_rounds

    # ------------------------------------------------------------------
    def calibrate(
        self,
        sample_batches: list[CandidateBatch],
        k: int,
        base_config: PrismConfig | None = None,
        initial_threshold: float | None = None,
    ) -> CalibrationResult:
        """Run the loop over logged sample requests; returns the tuned value."""
        if not sample_batches:
            raise ValueError("need at least one sample batch")
        config = replace(base_config or PrismConfig(), numerics=False)
        threshold = (
            initial_threshold if initial_threshold is not None else config.dispersion_threshold
        )
        unpruned = replace(config, pruning_enabled=False)  # idle-time ground truth
        truth = [plan_selection(self.model, b, k, unpruned).top_indices for b in sample_batches]

        history: list[CalibrationStep] = []
        best_meeting: float | None = None
        for _ in range(self.max_rounds):
            precision = self._sampled_precision(
                sample_batches, truth, k, config.with_threshold(threshold)
            )
            met = precision >= self.precision_target
            history.append(CalibrationStep(threshold, precision, met))
            if met:
                # Headroom: remember this safe point, try a lower
                # (faster) threshold.
                best_meeting = threshold
                next_threshold = threshold - self.step
                if next_threshold <= 0:
                    break
                threshold = next_threshold
            else:
                # Below target: back off upward.
                threshold = threshold + self.step
                if best_meeting is not None and threshold >= best_meeting:
                    # We already know this level is safe; converged.
                    threshold = best_meeting
                    break
        final = best_meeting if best_meeting is not None else threshold
        return CalibrationResult(threshold=float(final), history=history)

    # ------------------------------------------------------------------
    def _sampled_precision(
        self,
        batches: list[CandidateBatch],
        ground_truth: list[np.ndarray],
        k: int,
        config: PrismConfig,
    ) -> float:
        overlaps = [
            top_k_overlap(plan_selection(self.model, batch, k, config).top_indices, truth, k)
            for batch, truth in zip(batches, ground_truth)
        ]
        return float(np.mean(overlaps))
