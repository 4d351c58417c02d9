"""Tests for the self-calibrating selection service (§4.1 deployed mode)."""

import warnings

import pytest

from repro.core.api import DeviceServer, SelectionRequest
from repro.core.calibration import ThresholdCalibrator
from repro.core.config import PrismConfig
from repro.core.scheduler import SchedulerConfig
from repro.core.service import SemanticSelectionService
from repro.data.datasets import get_dataset
from repro.data.workloads import build_batch
from repro.device.platforms import DeviceProfile, get_profile
from repro.harness.runner import shared_model, shared_tokenizer
from repro.model.zoo import QWEN3_0_6B


@pytest.fixture(scope="module")
def batches():
    tokenizer = shared_tokenizer(QWEN3_0_6B)
    queries = get_dataset("wikipedia").queries(6, 20)
    return [build_batch(q, tokenizer, QWEN3_0_6B.max_seq_len) for q in queries]


def make_service(**kwargs):
    defaults = dict(
        model=shared_model(QWEN3_0_6B),
        profile=get_profile("nvidia_5070"),
        config=PrismConfig(numerics=False),
        sample_rate=0.5,
    )
    defaults.update(kwargs)
    return SemanticSelectionService(**defaults)


def select(service, batch, k, sample=None):
    """Serve one request on the service's device tier; returns its result."""
    request = SelectionRequest(batch=batch, k=k, sample=sample)
    return DeviceServer(service).submit(request).result().result


class TestValidation:
    def test_bad_precision_target(self):
        with pytest.raises(ValueError):
            make_service(precision_target=0.0)

    def test_bad_sample_rate(self):
        with pytest.raises(ValueError):
            make_service(sample_rate=1.5)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            make_service(step=0.0)

    def test_bad_threshold_range(self):
        with pytest.raises(ValueError):
            make_service(min_threshold=0.5, max_threshold=0.4)

    def test_shared_weights_need_layer_streaming(self):
        with pytest.raises(ValueError, match="layer_streaming"):
            make_service(
                config=PrismConfig(layer_streaming=False, numerics=False), shared_weights=True
            )

    def test_nan_threshold_rejected_and_nothing_changes(self):
        service = make_service()
        before = (service.threshold, service.config)
        with pytest.raises(ValueError):
            service.apply_threshold(float("nan"))
        assert (service.threshold, service.config) == before


class TestServing:
    def test_select_returns_results(self, batches):
        service = make_service()
        result = select(service, batches[0], 10)
        assert result.k == 10
        assert service.stats.requests_served == 1

    def test_sampling_follows_rate(self, batches):
        service = make_service(sample_rate=0.5)
        for batch in batches:
            select(service, batch, 10)
        assert service.stats.requests_sampled == 3  # 6 requests × 0.5

    def test_full_sampling(self, batches):
        service = make_service(sample_rate=1.0)
        for batch in batches[:3]:
            select(service, batch, 10)
        assert service.pending_samples == 3

    def test_served_results_match_engine_threshold(self, batches):
        service = make_service()
        a = select(service, batches[0], 10)
        direct = service.engine.start(batches[0], 10).run()
        assert set(a.top_indices.tolist()) == set(direct.top_indices.tolist())

    def test_full_sampling_accumulator_never_drifts(self, batches):
        """sample_rate=1.0 must log *every* request: the accumulator
        hits exactly 1.0 each time and resets to exactly 0.0, with no
        float residue skipping requests over a long serving run."""
        service = make_service(sample_rate=1.0)
        for round_no in range(5):
            for batch in batches:
                select(service, batch, 10)
        assert service.stats.requests_sampled == service.stats.requests_served == 30
        assert service._stride.accumulator == 0.0

    def test_fractional_rate_stride(self, batches):
        service = make_service(sample_rate=0.25)
        for _ in range(2):
            for batch in batches:
                select(service, batch, 10)
        assert service.stats.requests_sampled == 3  # 12 requests x 0.25

    def test_forced_sampling_override(self, batches):
        service = make_service(sample_rate=0.25)
        select(service, batches[0], 10, sample=True)
        select(service, batches[1], 10, sample=False)
        assert service.stats.requests_sampled == 1
        assert service.pending_samples == 1
        # Forced decisions must not consume the deterministic stride.
        assert service._stride.accumulator == 0.0

    def test_fifo_plane_warning_needs_concurrency(self, batches):
        """Run-to-completion over the shared weight plane risks
        whole-model residency only with several passes open: a cap of 1
        serves the wave silently, a cap of 2 still warns."""
        wave = [SelectionRequest(batch=batch, k=5) for batch in batches[:3]]
        serial = make_service(scheduler=SchedulerConfig(max_concurrency=1), shared_weights=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            serial.serve_requests(wave)
        concurrent = make_service(scheduler=SchedulerConfig(max_concurrency=2), shared_weights=True)
        with pytest.warns(RuntimeWarning, match="whole-model residency"):
            concurrent.serve_requests(wave)

    def test_apply_threshold_clamps(self):
        service = make_service(min_threshold=0.1, max_threshold=0.5)
        assert service.apply_threshold(0.9) == pytest.approx(0.5)
        assert service.apply_threshold(0.01) == pytest.approx(0.1)
        assert service.apply_threshold(0.3) == pytest.approx(0.3)


class TestIdleMaintenance:
    def test_noop_without_samples(self):
        service = make_service(sample_rate=0.5)
        assert service.idle_maintenance() is None

    def test_lowers_threshold_when_precision_holds(self, batches):
        """Our pruning is near-lossless on Wikipedia pools, so sampled
        precision meets the target and the controller walks down."""
        service = make_service(sample_rate=1.0, precision_target=0.8, step=0.05)
        start = service.threshold
        for batch in batches[:4]:
            select(service, batch, 10)
        report = service.idle_maintenance()
        assert report is not None
        assert report.sampled_precision >= 0.8
        assert report.new_threshold == pytest.approx(start - 0.05)

    def test_raises_threshold_when_precision_falls(self, batches, monkeypatch):
        """Inject a low sampled precision: the controller must back off
        upward (the paper's 'raise for precision' branch)."""
        service = make_service(sample_rate=1.0, precision_target=0.95, step=0.05)
        for batch in batches[:2]:
            select(service, batch, 10)
        monkeypatch.setattr(service, "_sampled_precision", lambda: (2, 0.5))
        start = service.threshold
        report = service.idle_maintenance()
        assert report.new_threshold == pytest.approx(start + 0.05)

    def test_threshold_clamped_at_floor(self, batches):
        service = make_service(
            sample_rate=1.0, precision_target=0.5, step=0.5, min_threshold=0.02
        )
        for _ in range(3):
            select(service, batches[0], 10)
            service.idle_maintenance()
        assert service.threshold == pytest.approx(0.02)

    def test_threshold_clamped_at_ceiling(self, batches, monkeypatch):
        """A persistently failing precision target walks the threshold
        up, but never past max_threshold."""
        service = make_service(
            sample_rate=1.0, precision_target=0.99, step=0.5, max_threshold=0.9
        )
        monkeypatch.setattr(service, "_sampled_precision", lambda: (1, 0.0))
        for _ in range(3):
            select(service, batches[0], 10)
            report = service.idle_maintenance()
        assert service.threshold == pytest.approx(0.9)
        assert report is not None and not report.adjusted  # pinned at the bound

    def test_noop_again_after_samples_consumed(self, batches):
        """A pass clears the log; the next idle pass with nothing new
        sampled must return None rather than re-judging stale data."""
        service = make_service(sample_rate=1.0)
        select(service, batches[0], 10)
        assert service.idle_maintenance() is not None
        assert service.idle_maintenance() is None

    def test_samples_cleared_after_pass(self, batches):
        service = make_service(sample_rate=1.0)
        select(service, batches[0], 10)
        service.idle_maintenance()
        assert service.pending_samples == 0

    def test_history_recorded(self, batches):
        service = make_service(sample_rate=1.0)
        select(service, batches[0], 10)
        service.idle_maintenance()
        assert service.stats.maintenance_passes == 1
        assert len(service.stats.history) == 1

    def test_idle_check_and_calibration_build_no_device(self, batches, monkeypatch):
        """Ground truth and sampled selections are device-free plans, so
        neither path needs a shadow device."""
        service = make_service(sample_rate=1.0)
        for batch in batches[:2]:
            select(service, batch, 10)

        def no_device(profile):
            raise AssertionError(f"built a {profile.name} device")

        monkeypatch.setattr(DeviceProfile, "create", no_device)
        report = service.idle_maintenance()
        assert report is not None and report.samples_checked == 2
        calibrator = ThresholdCalibrator(service.model, precision_target=0.9, max_rounds=2)
        assert calibrator.calibrate(batches[:2], k=10).rounds >= 1

    def test_maintenance_does_not_touch_serving_clock(self, batches):
        """Ground-truth re-execution is idle-time work on shadow
        devices — serving latency must not absorb it."""
        service = make_service(sample_rate=1.0)
        select(service, batches[0], 10)
        before = service.device.clock.now
        service.idle_maintenance()
        assert service.device.clock.now == before


class TestClosedLoop:
    def test_converges_to_aggressive_operation(self, batches):
        """Serving rounds interleaved with idle passes walk the
        threshold down while precision holds, making later requests
        faster than the first ones."""
        service = make_service(sample_rate=1.0, precision_target=0.8, step=0.08)
        first = select(service, batches[0], 10).latency_seconds
        for round_no in range(4):
            for batch in batches:
                select(service, batch, 10)
            service.idle_maintenance()
        last = select(service, batches[0], 10).latency_seconds
        assert service.threshold < PrismConfig().dispersion_threshold
        assert last <= first
