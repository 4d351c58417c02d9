"""Unit tests for PrismConfig."""

import pytest

from repro.core.config import PrismConfig


class TestValidation:
    def test_defaults_valid(self):
        config = PrismConfig()
        assert config.pruning_enabled
        assert config.layer_streaming
        assert config.chunked_execution
        assert config.embedding_cache

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            PrismConfig(dispersion_threshold=-0.1)

    def test_nan_threshold_rejected(self):
        # ``cv < nan`` is false, so a NaN threshold would cluster on every check.
        with pytest.raises(ValueError):
            PrismConfig(dispersion_threshold=float("nan"))

    def test_shared_plane_needs_layer_streaming(self):
        # Without streaming the engine never builds a plane.
        with pytest.raises(ValueError, match="layer_streaming"):
            PrismConfig(shared_weight_plane=True, layer_streaming=False)
        PrismConfig(shared_weight_plane=True)

    def test_negative_min_layers_rejected(self):
        with pytest.raises(ValueError):
            PrismConfig(min_layers_before_pruning=-1)

    def test_bad_hidden_offload_rejected(self):
        with pytest.raises(ValueError):
            PrismConfig(hidden_offload="sometimes")

    def test_forced_offload_needs_chunked_execution(self):
        # The ring moves chunk slabs: without chunks "on" was served as off.
        with pytest.raises(ValueError, match="chunked_execution"):
            PrismConfig(chunked_execution=False, hidden_offload="on")
        with pytest.raises(ValueError, match="chunked_execution"):
            PrismConfig.ablation_pruning_only(hidden_offload="on")
        PrismConfig(chunked_execution=False, hidden_offload="auto")
        PrismConfig(chunked_execution=False, hidden_offload="off")

    def test_cache_fraction_bounds(self):
        with pytest.raises(ValueError):
            PrismConfig(embedding_cache_fraction=0.0)
        with pytest.raises(ValueError):
            PrismConfig(embedding_cache_fraction=1.5)
        PrismConfig(embedding_cache_fraction=1.0)  # inclusive upper bound

    def test_budgets_positive(self):
        with pytest.raises(ValueError):
            PrismConfig(chunk_memory_budget=0)
        with pytest.raises(ValueError):
            PrismConfig(hidden_memory_budget=-1)

    def test_max_clusters_at_least_two(self):
        with pytest.raises(ValueError):
            PrismConfig(max_clusters=1)


class TestConstructors:
    def test_with_threshold(self):
        config = PrismConfig().with_threshold(0.7)
        assert config.dispersion_threshold == 0.7

    def test_with_threshold_preserves_other_fields(self):
        base = PrismConfig(embedding_cache=False)
        assert not base.with_threshold(0.5).embedding_cache

    def test_quant_constructor(self):
        assert PrismConfig.quant().quantized

    def test_full_has_everything_on(self):
        config = PrismConfig.full()
        assert config.pruning_enabled
        assert config.chunked_execution
        assert config.layer_streaming
        assert config.embedding_cache


class TestAblationLadder:
    """The Figure 16 configs switch techniques on one at a time."""

    def test_pruning_only(self):
        config = PrismConfig.ablation_pruning_only()
        assert config.pruning_enabled
        assert not config.chunked_execution
        assert not config.layer_streaming
        assert not config.embedding_cache

    def test_chunked_adds_chunking(self):
        config = PrismConfig.ablation_chunked()
        assert config.pruning_enabled and config.chunked_execution
        assert not config.layer_streaming and not config.embedding_cache

    def test_streaming_adds_streaming(self):
        config = PrismConfig.ablation_streaming()
        assert config.layer_streaming
        assert not config.embedding_cache

    def test_frozen(self):
        with pytest.raises(Exception):
            PrismConfig().dispersion_threshold = 0.9
