"""Unit tests for the experiment runner."""

import pytest

from repro.core.config import PrismConfig
from repro.data.datasets import get_dataset
from repro.harness.runner import SYSTEMS, create_engine, run_system, shared_model
from repro.model.zoo import QWEN3_0_6B, QWEN3_8B


@pytest.fixture(scope="module")
def queries():
    return get_dataset("wikipedia").queries(2, 20)


class TestCreateEngine:
    def test_all_five_systems_buildable(self):
        from repro.device.platforms import get_profile

        for system in SYSTEMS:
            device = get_profile("nvidia_5070").create()
            engine = create_engine(system, shared_model(QWEN3_0_6B), device)
            assert engine.name == system

    def test_unknown_system_rejected(self):
        from repro.device.platforms import get_profile

        device = get_profile("nvidia_5070").create()
        with pytest.raises(KeyError):
            create_engine("vllm", shared_model(QWEN3_0_6B), device)

    def test_threshold_wired_into_prism(self):
        from repro.device.platforms import get_profile

        device = get_profile("nvidia_5070").create()
        engine = create_engine(
            "prism", shared_model(QWEN3_0_6B), device, threshold=0.42
        )
        assert engine.config.dispersion_threshold == 0.42


class TestRunSystem:
    def test_basic_stats_populated(self, queries):
        stats = run_system("prism", QWEN3_0_6B, "nvidia_5070", queries, 10)
        assert not stats.oom
        assert len(stats.latencies) == 2
        assert len(stats.precisions) == 2
        assert stats.peak_mib > 0
        assert 0.0 <= stats.mean_precision <= 1.0

    def test_empty_queries_rejected(self):
        with pytest.raises(ValueError):
            run_system("prism", QWEN3_0_6B, "nvidia_5070", [], 10)

    def test_oom_reported_not_raised(self, queries):
        """Vanilla HF with Qwen3-8B cannot fit an 8 GiB edge device —
        Table 3 reports this as OOM."""
        stats = run_system("hf", QWEN3_8B, "nvidia_5070", queries, 10)
        assert stats.oom
        assert stats.latencies == []

    def test_8b_runs_under_prism(self, queries):
        """PRISM makes the 8 B model feasible on the same device."""
        stats = run_system("prism", QWEN3_8B, "nvidia_5070", queries, 10)
        assert not stats.oom

    def test_8b_runs_on_a800(self, queries):
        stats = run_system("hf", QWEN3_8B, "nvidia_a800", queries, 10)
        assert not stats.oom

    def test_pruned_fraction_positive_for_prism(self, queries):
        stats = run_system("prism", QWEN3_0_6B, "nvidia_5070", queries, 10)
        assert 0.0 < stats.pruned_fraction < 1.0

    def test_pruned_fraction_zero_for_hf(self, queries):
        stats = run_system("hf", QWEN3_0_6B, "nvidia_5070", queries, 10)
        assert stats.pruned_fraction == 0.0

    def test_keep_results(self, queries):
        stats = run_system(
            "prism", QWEN3_0_6B, "nvidia_5070", queries, 10, keep_results=True
        )
        assert len(stats.results) == 2

    def test_keep_timeline_rebases_to_request_start(self, queries):
        stats = run_system(
            "prism", QWEN3_0_6B, "nvidia_5070", queries, 10, keep_timeline=True
        )
        assert stats.timeline
        assert stats.timeline[0].time >= 0.0

    def test_prism_config_override(self, queries):
        config = PrismConfig(pruning_enabled=False)
        stats = run_system(
            "prism", QWEN3_0_6B, "nvidia_5070", queries, 10, prism_config=config
        )
        assert stats.pruned_fraction == 0.0

    def test_deterministic(self, queries):
        a = run_system("prism", QWEN3_0_6B, "nvidia_5070", queries, 10)
        b = run_system("prism", QWEN3_0_6B, "nvidia_5070", queries, 10)
        assert a.latencies == b.latencies
        assert a.precisions == b.precisions
        assert a.peak_mib == b.peak_mib


class TestCrossSystemShapes:
    """The paper's headline microbenchmark orderings (Figures 8/9)."""

    def test_prism_fastest(self, queries):
        latencies = {
            system: run_system(system, QWEN3_0_6B, "nvidia_5070", queries, 10).mean_latency
            for system in ("hf", "hf_offload", "prism")
        }
        assert latencies["prism"] < latencies["hf"] < latencies["hf_offload"]

    def test_prism_smallest(self, queries):
        peaks = {
            system: run_system(system, QWEN3_0_6B, "nvidia_5070", queries, 10).peak_mib
            for system in ("hf", "hf_offload", "hf_quant", "prism")
        }
        assert peaks["prism"] < peaks["hf_offload"]
        assert peaks["prism"] < peaks["hf_quant"] < peaks["hf"]

    def test_precision_preserved(self, queries):
        hf = run_system("hf", QWEN3_0_6B, "nvidia_5070", queries, 10)
        prism = run_system("prism", QWEN3_0_6B, "nvidia_5070", queries, 10)
        assert abs(prism.mean_precision - hf.mean_precision) < 0.05

    def test_apple_slower_than_nvidia(self, queries):
        nvidia = run_system("prism", QWEN3_0_6B, "nvidia_5070", queries, 10)
        apple = run_system("prism", QWEN3_0_6B, "apple_m2", queries, 10)
        assert apple.mean_latency > nvidia.mean_latency
