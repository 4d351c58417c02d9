"""End-to-end integration tests: the paper's headline claims in one place.

These run the full stack (engines over the simulated platforms) and
assert the qualitative results of the evaluation section.  They act as
a regression net over the interaction of all four techniques.
"""

import numpy as np
import pytest

from repro.core.config import PrismConfig
from repro.data.datasets import ALL_DATASETS, get_dataset
from repro.harness.runner import run_system
from repro.model.zoo import BGE_M3, BGE_MINICPM, QWEN3_0_6B, QWEN3_4B, QWEN3_8B


@pytest.fixture(scope="module")
def queries():
    return get_dataset("wikipedia").queries(3, 20)


class TestHeadlineClaims:
    def test_prism_wins_latency_and_memory_simultaneously(self, queries):
        """The paper's central claim: PRISM is both the fastest and the
        smallest — a dual win no baseline offers (Figure 9 text)."""
        stats = {
            system: run_system(system, QWEN3_0_6B, "nvidia_5070", queries, 10)
            for system in ("hf", "hf_offload", "hf_quant", "prism")
        }
        assert all(stats["prism"].mean_latency < s.mean_latency
                   for name, s in stats.items() if name != "prism")
        assert all(stats["prism"].peak_mib < s.peak_mib
                   for name, s in stats.items() if name != "prism")

    def test_memory_saving_baselines_trade_latency(self, queries):
        """HF-Offload and HF-Quant save memory but cost latency."""
        hf = run_system("hf", QWEN3_0_6B, "nvidia_5070", queries, 10)
        offload = run_system("hf_offload", QWEN3_0_6B, "nvidia_5070", queries, 10)
        quant = run_system("hf_quant", QWEN3_0_6B, "nvidia_5070", queries, 10)
        assert offload.peak_mib < hf.peak_mib and offload.mean_latency > hf.mean_latency
        assert quant.peak_mib < hf.peak_mib and quant.mean_latency > hf.mean_latency

    def test_prism_enables_models_that_oom_under_hf(self, queries):
        """Qwen3-4B/8B OOM under vanilla HF on 8 GiB devices but run
        under PRISM (Table 3's OOM rows)."""
        for model in (QWEN3_4B, QWEN3_8B):
            assert run_system("hf", model, "nvidia_5070", queries, 10).oom
            assert not run_system("prism", model, "nvidia_5070", queries, 10).oom

    def test_quant_and_prism_compose(self, queries):
        """PRISM Quant beats HF Quant on both axes (§6.2, orthogonality)."""
        hf_quant = run_system("hf_quant", QWEN3_0_6B, "nvidia_5070", queries, 10)
        prism_quant = run_system("prism_quant", QWEN3_0_6B, "nvidia_5070", queries, 10)
        assert prism_quant.mean_latency < hf_quant.mean_latency
        assert prism_quant.peak_mib < hf_quant.peak_mib

    def test_precision_preserved_across_models(self, queries):
        """Pruning does not change Precision@K materially (Table 3)."""
        for model in (QWEN3_0_6B, BGE_M3, BGE_MINICPM):
            hf = run_system("hf_offload", model, "nvidia_5070", queries, 10)
            prism = run_system("prism", model, "nvidia_5070", queries, 10)
            assert abs(prism.mean_precision - hf.mean_precision) < 0.08


class TestCrossEngineConsistency:
    def test_all_baselines_agree_on_ranking(self, queries):
        """HF, HF-Offload and HF-Quant execute the same model — their
        top-K must be identical (they differ only in residency policy)."""
        tops = {}
        for system in ("hf", "hf_offload", "hf_quant"):
            stats = run_system(
                system, QWEN3_0_6B, "nvidia_5070", queries, 10, keep_results=True
            )
            tops[system] = [r.top_indices.tolist() for r in stats.results]
        assert tops["hf"] == tops["hf_offload"] == tops["hf_quant"]

    def test_prism_topk_agrees_with_baseline(self, queries):
        hf = run_system("hf", QWEN3_0_6B, "nvidia_5070", queries, 10, keep_results=True)
        prism = run_system("prism", QWEN3_0_6B, "nvidia_5070", queries, 10, keep_results=True)
        for a, b in zip(hf.results, prism.results):
            overlap = len(set(a.top_indices.tolist()) & set(b.top_indices.tolist()))
            assert overlap >= 8  # at most borderline swaps

    def test_platform_changes_latency_not_ranking(self, queries):
        nvidia = run_system("prism", QWEN3_0_6B, "nvidia_5070", queries, 10, keep_results=True)
        apple = run_system("prism", QWEN3_0_6B, "apple_m2", queries, 10, keep_results=True)
        for a, b in zip(nvidia.results, apple.results):
            assert set(a.top_indices.tolist()) == set(b.top_indices.tolist())
        assert apple.mean_latency > nvidia.mean_latency


class TestDatasetSweep:
    def test_prism_never_slower_than_hf_on_any_dataset(self):
        """The Table 3 reduction ranges never go negative."""
        for dataset in ALL_DATASETS[::3]:  # sample every third dataset
            queries = get_dataset(dataset).queries(2, 20)
            hf = run_system("hf", QWEN3_0_6B, "nvidia_5070", queries, 10)
            prism = run_system("prism", QWEN3_0_6B, "nvidia_5070", queries, 10)
            # 2 % tolerance: on the hardest single-relevant pools
            # (ArguAna) pruning barely fires and PRISM only ties.
            assert prism.mean_latency <= 1.02 * hf.mean_latency, dataset

    def test_reduction_varies_by_dataset_difficulty(self):
        """Easily-separated corpora prune earlier → bigger reductions;
        this spread is Table 3's min–max range."""
        reductions = {}
        for dataset in ("wikipedia", "webis-touche2020"):
            queries = get_dataset(dataset).queries(3, 20)
            hf = run_system("hf", QWEN3_0_6B, "nvidia_5070", queries, 10)
            prism = run_system("prism", QWEN3_0_6B, "nvidia_5070", queries, 10)
            reductions[dataset] = 1 - prism.mean_latency / hf.mean_latency
        # Wikipedia's cleanly separated tiers (separation 0.88) prune
        # earlier than the hard-to-separate Touché pools (0.50), at
        # comparable document lengths.
        assert reductions["wikipedia"] > reductions["webis-touche2020"]


class TestFailureInjection:
    def test_tight_budget_platform_ooms_gracefully(self, queries):
        """A custom device with a tiny budget OOMs through run_system's
        reporting path instead of crashing."""
        from repro.device.memory import GiB
        from repro.device.platforms import (
            NVIDIA_5070,
            DeviceProfile,
            register_profile,
        )

        register_profile(
            DeviceProfile(
                name="tiny_budget_device",
                compute=NVIDIA_5070.compute,
                ssd=NVIDIA_5070.ssd,
                memory_budget_bytes=GiB // 2,
            )
        )
        stats = run_system("hf", QWEN3_0_6B, "tiny_budget_device", queries, 10)
        assert stats.oom

    def test_prism_survives_medium_budget(self, queries):
        """PRISM's streamed residency fits where full residency cannot."""
        from repro.device.memory import GiB
        from repro.device.platforms import (
            NVIDIA_5070,
            DeviceProfile,
            register_profile,
        )

        register_profile(
            DeviceProfile(
                name="one_gib_device",
                compute=NVIDIA_5070.compute,
                ssd=NVIDIA_5070.ssd,
                memory_budget_bytes=1 * GiB,
            )
        )
        assert run_system("hf", QWEN3_0_6B, "one_gib_device", queries, 10).oom
        assert not run_system("prism", QWEN3_0_6B, "one_gib_device", queries, 10).oom

    def test_slow_ssd_surfaces_as_io_stall(self, queries):
        """Halving SSD bandwidth breaks the overlap window; the loss
        shows up as I/O stalls, not silent latency."""
        from repro.device.platforms import NVIDIA_5070, DeviceProfile, register_profile
        from repro.device.ssd import SSDModel

        register_profile(
            DeviceProfile(
                name="slow_ssd_device",
                compute=NVIDIA_5070.compute,
                ssd=SSDModel(read_bandwidth=0.2e9, write_bandwidth=0.2e9),
                memory_budget_bytes=NVIDIA_5070.memory_budget_bytes,
            )
        )
        fast = run_system("prism", QWEN3_0_6B, "nvidia_5070", queries, 10)
        slow = run_system("prism", QWEN3_0_6B, "slow_ssd_device", queries, 10)
        assert slow.io_stall_seconds > fast.io_stall_seconds
        assert slow.mean_latency > fast.mean_latency


class TestThresholdCalibrationEndToEnd:
    def test_calibrated_threshold_meets_target_on_fresh_queries(self):
        """Calibrate on one set of requests, verify on another —
        the §4.1 precision-target mode works out of sample."""
        from dataclasses import replace

        from repro.core.calibration import ThresholdCalibrator
        from repro.core.metrics import top_k_overlap
        from repro.core.pruning import plan_selection
        from repro.data.workloads import build_batch
        from repro.device.platforms import get_profile
        from repro.harness.runner import shared_model, shared_tokenizer

        tokenizer = shared_tokenizer(QWEN3_0_6B)
        train = [
            build_batch(q, tokenizer, 512)
            for q in get_dataset("wikipedia").queries(3, 20)
        ]
        test = [
            build_batch(q, tokenizer, 512)
            for q in get_dataset("nq").queries(3, 20)
        ]
        calibrator = ThresholdCalibrator(
            shared_model(QWEN3_0_6B),
            precision_target=0.85,
            step=0.1,
            max_rounds=6,
        )
        result = calibrator.calibrate(
            train, k=10, base_config=PrismConfig(numerics=False)
        )
        config = PrismConfig(numerics=False).with_threshold(result.threshold)
        overlaps = []
        unpruned = replace(config, pruning_enabled=False)
        for batch in test:
            truth = plan_selection(calibrator.model, batch, 10, unpruned).top_indices
            from repro.core.engine import PrismEngine

            device = get_profile("nvidia_5070").create()
            engine = PrismEngine(shared_model(QWEN3_0_6B), device, config)
            engine.prepare()
            selected = engine.start(batch, 10).run().top_indices
            overlaps.append(top_k_overlap(selected, truth, 10))
        assert float(np.mean(overlaps)) >= 0.7
