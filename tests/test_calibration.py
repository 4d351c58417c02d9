"""Unit tests for dispersion-threshold auto-calibration (§4.1)."""

from dataclasses import replace

import pytest

from repro.core.calibration import ThresholdCalibrator
from repro.core.config import PrismConfig
from repro.core.pruning import plan_selection
from repro.data.datasets import get_dataset
from repro.data.workloads import build_batch
from repro.harness.runner import shared_model, shared_tokenizer
from repro.model.zoo import QWEN3_0_6B


@pytest.fixture(scope="module")
def sample_batches():
    tokenizer = shared_tokenizer(QWEN3_0_6B)
    queries = get_dataset("wikipedia").queries(3, 20)
    return [build_batch(q, tokenizer, QWEN3_0_6B.max_seq_len) for q in queries]


@pytest.fixture
def calibrator():
    return ThresholdCalibrator(
        shared_model(QWEN3_0_6B),
        precision_target=0.9,
        step=0.1,
        max_rounds=8,
    )


class TestValidation:
    def test_precision_target_bounds(self):
        model = shared_model(QWEN3_0_6B)
        with pytest.raises(ValueError):
            ThresholdCalibrator(model, precision_target=0.0)
        with pytest.raises(ValueError):
            ThresholdCalibrator(model, precision_target=1.1)

    def test_step_positive(self):
        with pytest.raises(ValueError):
            ThresholdCalibrator(shared_model(QWEN3_0_6B), step=0.0)

    def test_empty_samples_rejected(self, calibrator):
        with pytest.raises(ValueError):
            calibrator.calibrate([], k=10)


class TestCalibration:
    def test_final_threshold_meets_target(self, calibrator, sample_batches):
        result = calibrator.calibrate(
            sample_batches, k=10, base_config=PrismConfig(numerics=False)
        )
        # Re-evaluate at the tuned threshold: must meet the target.
        config = PrismConfig(numerics=False).with_threshold(result.threshold)
        unpruned = replace(config, pruning_enabled=False)
        precision = calibrator._sampled_precision(
            sample_batches,
            [plan_selection(calibrator.model, b, 10, unpruned).top_indices for b in sample_batches],
            10,
            config,
        )
        assert precision >= calibrator.precision_target

    def test_walks_down_while_meeting_target(self, calibrator, sample_batches):
        result = calibrator.calibrate(
            sample_batches,
            k=10,
            base_config=PrismConfig(numerics=False),
            initial_threshold=0.8,
        )
        # Starting conservative, the loop should find a lower threshold.
        assert result.threshold <= 0.8
        assert result.rounds >= 1

    def test_history_records_every_round(self, calibrator, sample_batches):
        result = calibrator.calibrate(
            sample_batches, k=10, base_config=PrismConfig(numerics=False)
        )
        assert len(result.history) == result.rounds
        for step in result.history:
            assert 0.0 <= step.sampled_precision <= 1.0

    def test_bounded_by_max_rounds(self, sample_batches):
        calibrator = ThresholdCalibrator(
            shared_model(QWEN3_0_6B),
            precision_target=0.9,
            step=0.02,
            max_rounds=3,
        )
        result = calibrator.calibrate(
            sample_batches, k=10, base_config=PrismConfig(numerics=False)
        )
        assert result.rounds <= 3
