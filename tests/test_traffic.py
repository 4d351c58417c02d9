"""Tests for the trace-driven open-loop traffic generator (DESIGN.md §13).

``tests/fixtures/traffic/`` pins one generated trace per arrival
process byte for byte.  After an intentional change to the generator,
regenerate them and review the diff::

    for p in poisson mmpp diurnal; do \
      PYTHONPATH=src python -m repro.harness.cli traffic generate \
        --process $p --tenants 50 --duration 5 --rate 40 \
        tests/fixtures/traffic/$p.jsonl; \
    done
"""

import json
import math
from pathlib import Path

import pytest

from repro.data.traffic import (
    ARRIVAL_PROCESSES,
    TRAFFIC_SLO_CLASSES,
    TrafficConfig,
    generate_traffic,
    is_traffic_file,
    parse_traffic,
    read_traffic_trace,
    render_traffic,
    summarize_traffic,
    write_traffic_trace,
)

SMALL = dict(num_tenants=20, duration_s=4.0, rate_rps=40.0, seed=3)
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "traffic"


class TestConfigValidation:
    def test_defaults_valid(self):
        TrafficConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_tenants=0),
            dict(duration_s=0.0),
            dict(rate_rps=0.0),
            dict(process="lognormal"),
            dict(class_mix=(("interactive", 0.5), ("batch", 0.4))),  # != 1
            dict(class_mix=(("interactive", 0.5), ("interactive", 0.5))),
            dict(class_mix=(("platinum", 1.0),)),
            dict(admit_factor=(("interactive", 1.0),)),  # missing classes
            dict(burst=0.5),
            dict(burst_sigma=(("interactive", -1.0),)),
            dict(burst_sigma=(("platinum", 1.0),)),
            dict(tenant_weights=()),
            dict(tenant_weights=(1.0, -2.0)),
            dict(min_candidates=1),
            dict(max_candidates=2, min_candidates=4),
            dict(k=9, min_candidates=4),
            dict(burst_multiplier=1.0),
            dict(burst_fraction=1.0),
            dict(diurnal_depth=1.0),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            TrafficConfig(**kwargs)

    @pytest.mark.parametrize("knob", ["tenant_zipf_s", "query_zipf_s"])
    @pytest.mark.parametrize("value", [math.nan, -0.5, -math.inf])
    def test_zipf_exponents_rejected_at_build(self, knob, value):
        """NaN and -inf used to fail only inside ``generate_traffic``, in
        numpy's "Probabilities contain NaN"; -0.5 used to be served."""
        with pytest.raises(ValueError, match=f"{knob} must be >= 0"):
            TrafficConfig(**{knob: value})

    @pytest.mark.parametrize(
        "knob, value, floor",
        [("doc_length_mean", -5, 1), ("doc_length_mean", 0, 1), ("query_length", -3, 0)],
    )
    def test_lengths_rejected_at_build(self, knob, value, floor):
        """These used to generate traces: every candidate of length -20,
        or every query of length -3."""
        with pytest.raises(ValueError, match=f"{knob} must be >= {floor}"):
            TrafficConfig(**{knob: value})
        TrafficConfig(**{knob: floor})

    @pytest.mark.parametrize("knob", ["tenant_zipf_s", "query_zipf_s"])
    def test_infinite_zipf_exponent_puts_every_draw_on_rank_one(self, knob):
        trace = generate_traffic(TrafficConfig(**SMALL, **{knob: math.inf}))
        if knob == "tenant_zipf_s":
            assert trace.arriving_tenants() == {"t0000"}
        else:
            assert {request.query.query_id for request in trace.requests} == {0}


class TestGeneration:
    def test_deterministic_byte_identical(self):
        config = TrafficConfig(**SMALL)
        assert render_traffic(generate_traffic(config)) == render_traffic(
            generate_traffic(config)
        )

    def test_seed_changes_trace(self):
        a = generate_traffic(TrafficConfig(**dict(SMALL, seed=1)))
        b = generate_traffic(TrafficConfig(**dict(SMALL, seed=2)))
        assert render_traffic(a) != render_traffic(b)

    @pytest.mark.parametrize("process", ARRIVAL_PROCESSES)
    def test_arrivals_sorted_within_duration(self, process):
        config = TrafficConfig(**dict(SMALL, process=process))
        trace = generate_traffic(config)
        arrivals = [r.arrival for r in trace.requests]
        assert arrivals == sorted(arrivals)
        assert all(0.0 <= a < config.duration_s for a in arrivals)
        # Open-loop: the realised mean rate tracks the offered rate.
        assert len(arrivals) == pytest.approx(
            config.rate_rps * config.duration_s, rel=0.5
        )

    def test_candidate_sizes_within_bounds(self):
        config = TrafficConfig(**SMALL, min_candidates=4, max_candidates=12)
        trace = generate_traffic(config)
        sizes = {r.query.num_candidates for r in trace.requests}
        assert sizes  # non-empty trace
        assert all(config.min_candidates <= s <= config.max_candidates for s in sizes)
        assert len(sizes) > 1  # heavy tail actually varies the sizes

    def test_every_tenant_profiled_and_tagged(self):
        trace = generate_traffic(TrafficConfig(**SMALL))
        assert len(trace.tenants) == trace.config.num_tenants
        for request in trace.requests:
            profile = trace.tenants[request.tenant]
            assert request.slo == profile.slo
            assert request.query.tenant == request.tenant
        assert {p.slo for p in trace.tenants.values()} <= set(TRAFFIC_SLO_CLASSES)

    def test_burst_sigma_deepens_interactive_buckets(self):
        # The head tenant expects the most arrivals; with a non-zero
        # sigma its bucket must sit above the flat floor, and zeroing
        # the sigmas collapses every bucket back to the floor.
        config = TrafficConfig(
            **SMALL,
            class_mix=(("interactive", 1.0), ("batch", 0.0), ("best_effort", 0.0)),
        )
        trace = generate_traffic(config)
        bursts = [p.burst for p in trace.tenants.values()]
        assert max(bursts) > config.burst
        sigma = dict(config.burst_sigma)["interactive"]
        expected_head = (
            trace.config.rate_rps
            * trace.config.duration_s
            * (1.0 / sum(r ** -config.tenant_zipf_s for r in range(1, 21)))
        )
        assert max(bursts) == pytest.approx(
            max(config.burst, sigma * math.sqrt(expected_head))
        )
        flat = generate_traffic(
            TrafficConfig(
                **SMALL,
                class_mix=config.class_mix,
                burst_sigma=(("interactive", 0.0),),
            )
        )
        assert all(p.burst == config.burst for p in flat.tenants.values())


class TestArtifact:
    def test_round_trip(self, tmp_path):
        trace = generate_traffic(TrafficConfig(**SMALL, process="mmpp"))
        path = tmp_path / "trace.jsonl"
        text = write_traffic_trace(trace, path)
        back = read_traffic_trace(path)
        assert back.config == trace.config
        assert back.tenants == trace.tenants
        assert back.requests == trace.requests
        # Canonical form survives a parse → render cycle byte-for-byte.
        assert render_traffic(back) == text

    def test_is_traffic_file(self, tmp_path):
        good = tmp_path / "trace.jsonl"
        write_traffic_trace(generate_traffic(TrafficConfig(**SMALL)), good)
        assert is_traffic_file(good)
        other = tmp_path / "requests.json"
        other.write_text('[{"num_candidates": 4, "k": 2}]\n')
        assert not is_traffic_file(other)
        assert not is_traffic_file(tmp_path / "missing.jsonl")

    def test_parse_rejects_foreign_schema(self):
        with pytest.raises(ValueError):
            parse_traffic('{"schema": "repro.trace", "version": 1}\n')
        with pytest.raises(ValueError):
            parse_traffic("")

    def test_summary(self):
        trace = generate_traffic(TrafficConfig(**SMALL))
        summary = summarize_traffic(trace)
        assert summary.num_requests == trace.num_requests
        assert summary.arriving_tenants == len(trace.arriving_tenants())
        assert sum(summary.per_class.values()) == trace.num_requests
        lo, hi, mean = summary.candidate_sizes
        assert lo <= mean <= hi


class TestGoldenTraces:
    @pytest.mark.parametrize("process", ARRIVAL_PROCESSES)
    def test_regenerates_byte_for_byte(self, process):
        text = (FIXTURES / f"{process}.jsonl").read_text()
        config = TrafficConfig.from_payload(json.loads(text.splitlines()[0])["config"])
        assert config.process == process
        assert render_traffic(generate_traffic(config)) == text


class TestTenancyBridge:
    def test_tenancy_from_trace_mirrors_profiles(self):
        from repro.core.tenancy import tenancy_from_trace

        trace = generate_traffic(TrafficConfig(**SMALL))
        tenancy = tenancy_from_trace(trace)
        assert set(tenancy.policies) == set(trace.tenants)
        for tenant, profile in trace.tenants.items():
            policy = tenancy.policy_for(tenant)
            assert policy.slo == profile.slo
            assert policy.weight == profile.weight
            assert policy.rate == profile.rate
            assert policy.burst == profile.burst

    def test_selection_requests_from_trace(self):
        from repro.core.tenancy import SLO_CLASSES, selection_requests_from_trace
        from repro.harness.runner import shared_tokenizer
        from repro.model.zoo import QWEN3_0_6B

        trace = generate_traffic(TrafficConfig(**dict(SMALL, duration_s=1.0)))
        tokenizer = shared_tokenizer(QWEN3_0_6B)
        requests = selection_requests_from_trace(
            trace, tokenizer, QWEN3_0_6B.max_seq_len, deadlines=True
        )
        assert len(requests) == trace.num_requests
        for record, request in zip(trace.requests, requests):
            slo = SLO_CLASSES[record.slo]
            assert request.tenant == record.tenant
            assert request.arrival == record.arrival
            assert request.priority == slo.priority
            assert request.deadline == slo.deadline_s
            assert request.batch.tokens.shape[0] == record.query.num_candidates
