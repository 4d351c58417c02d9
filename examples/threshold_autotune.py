#!/usr/bin/env python3
"""Precision-target mode: auto-calibrating the dispersion threshold.

§4.1: instead of hand-tuning the dispersion threshold, the user states
a minimum precision target.  The system samples live requests, re-runs
them unpruned while the device is idle to obtain ground truth, and
walks the threshold to the lowest (fastest) value that meets the
target.  This example runs the loop for several targets and shows the
resulting operating points.

Run:  python examples/threshold_autotune.py
"""

from repro import PrismConfig, get_model_config
from repro.core.calibration import ThresholdCalibrator
from repro.data import get_dataset
from repro.data.workloads import build_batches
from repro.harness import run_system, shared_model, shared_tokenizer
from repro.harness.reporting import format_table, ms


def main() -> None:
    model_config = get_model_config("qwen3-reranker-0.6b")
    model = shared_model(model_config)
    tokenizer = shared_tokenizer(model_config)
    queries = get_dataset("wikipedia").queries(4, num_candidates=20)
    sample_batches = build_batches(queries, tokenizer, model_config.max_seq_len)

    rows = []
    for target in (0.80, 0.90, 0.99):
        calibrator = ThresholdCalibrator(model, precision_target=target, step=0.08)
        result = calibrator.calibrate(
            sample_batches, k=10, base_config=PrismConfig(numerics=False)
        )
        stats = run_system(
            "prism",
            model_config,
            "nvidia_5070",
            queries,
            10,
            threshold=result.threshold,
        )
        rows.append(
            (
                f"{target:.2f}",
                f"{result.threshold:.2f}",
                result.rounds,
                ms(stats.mean_latency),
                f"{stats.mean_precision:.3f}",
            )
        )

    print(
        format_table(
            ("precision target", "tuned threshold", "rounds", "latency", "P@10"),
            rows,
            title="Threshold auto-calibration (paper §4.1, precision-target mode)",
        )
    )
    print(
        "\nLower targets license lower thresholds -> earlier pruning -> "
        "lower latency; the loop finds the fastest safe operating point."
    )


if __name__ == "__main__":
    main()
