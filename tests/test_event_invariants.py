"""Property-style invariants every event log obeys (DESIGN.md §10).

Swept across seeded scenario variations rather than a single golden
run, three structural laws:

* **Monotonicity** — each request's events are non-decreasing in clock
  time within one time axis (hedge events excepted: a hedge is stamped
  at the backup's start instant, which precedes the primary's
  completion by construction — it is instead bounded by the request's
  admit and terminal instants).
* **Exactly-one terminal** — every admitted request terminates in
  exactly one of complete/shed/cancel/fail *per admission* (a device
  re-admitted after failover legitimately admits twice — and must then
  terminate twice).
* **Refcount balance** — shared weight-plane acquires and releases
  balance to zero, even through cancellations and crashes.
* **Cross-tier pairing** — every fleet dispatch reaches its replica's
  device tier under the same request label, and every device admission
  answers a fleet dispatch (or hedge) of that label to that replica.
* **Planned selections** — every completed selection, on any tier and
  however the fleet's data plane answered it, equals
  :func:`~repro.core.pruning.plan_selection` of its batch at the
  stack's config: indices and score bytes.
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro.core.config import PrismConfig
from repro.core.events import EVENT_CACHE_HIT, SERVING_TIERS, TERMINAL_KINDS, EventLog
from repro.core.pruning import plan_selection
from repro.core.trace import TraceRun, TraceSpec, run_trace
from repro.data.workloads import CandidateSpec, build_batch
from repro.harness.runner import shared_model, shared_tokenizer
from repro.harness.traces import SCENARIOS, build_scenario
from repro.data.datasets import get_dataset
from repro.core.trace import TraceRequest
from repro.model.zoo import get_model_config

ALL_SCENARIOS = tuple(sorted(SCENARIOS))

#: Seeded sweep: deterministic workload variations of the device tier
#: (arrival spread, deadlines, cancels) — poor-man's property testing
#: without a property-testing dependency.
SWEEP_CASES = tuple(range(4))


def _group_key(event):
    """The (time-axis, request) identity an ordering claim applies to.

    fleet/trace events all ride the coordinator clock; device-side
    tiers ride per-replica clocks, so the replica is part of the key.
    """
    if event.tier in ("fleet", "trace"):
        return (event.tier, event.request)
    return (event.tier, event.replica, event.request)


def check_monotone(log: EventLog) -> None:
    last: dict = {}
    for event in log:
        if event.request is None or event.kind == "hedge":
            continue
        key = _group_key(event)
        if key in last:
            assert event.at >= last[key] - 1e-12, (
                f"clock went backwards for {key}: {event.kind}@{event.at} "
                f"after t={last[key]}"
            )
        last[key] = event.at


def check_hedge_bounds(log: EventLog) -> None:
    """A hedge starts after its admit and its arm instant; a *winning*
    hedge also starts before the request's terminal.  (A losing hedge
    may start later — its backup replica can be busy past the
    primary's finish; the race then charges no extra latency.)"""
    admits = {
        e.request: e.at for e in log if e.tier == "fleet" and e.kind == "admit"
    }
    terminals = {
        e.request: e.at
        for e in log
        if e.tier == "fleet" and e.kind in TERMINAL_KINDS
    }
    hedges = [e for e in log if e.kind == "hedge"]
    for event in hedges:
        assert admits[event.request] <= event.at
        assert event.data["fire_at"] <= event.at + 1e-12
        if event.data["won"]:
            assert event.at <= terminals[event.request] + 1e-12


def check_exactly_one_terminal(log: EventLog) -> None:
    for tier in SERVING_TIERS:
        admits: dict = {}
        terminals: dict = {}
        for event in log:
            if event.tier != tier or event.request is None:
                continue
            key = _group_key(event)
            if event.kind == "admit":
                admits[key] = admits.get(key, 0) + 1
            elif event.kind in TERMINAL_KINDS:
                terminals[key] = terminals.get(key, 0) + 1
        assert set(admits) == set(terminals), (
            f"{tier}: admitted {set(admits) - set(terminals)} never terminated; "
            f"{set(terminals) - set(admits)} terminated without admission"
        )
        for key, count in admits.items():
            assert terminals[key] == count, (
                f"{tier}: {key} admitted {count}x but terminated {terminals[key]}x"
            )


def check_cross_tier(log: EventLog) -> None:
    """Fleet dispatches and device admissions pair up per (label, replica).

    Each fleet ``dispatch`` is followed by that replica's device
    ``admit`` of the same label, unless the fleet dropped the request at
    the wave origin (a fleet shed/cancel before any admission).  Each
    device admission answers such a dispatch, or a fleet ``hedge`` to
    that replica for a duplicate — the hedge event is stamped after the
    race, so duplicates are matched by count, not by order.
    """
    hedges = Counter(
        (e.request, e.replica) for e in log if e.tier == "fleet" and e.kind == "hedge"
    )
    awaiting: dict = {}  # label -> replica of its unanswered dispatch
    for event in log:
        if event.tier == "fleet" and event.kind == "dispatch":
            assert event.request not in awaiting, f"{event.request} dispatched twice"
            awaiting[event.request] = event.replica
        elif event.tier == "fleet" and event.kind in ("shed", "cancel"):
            awaiting.pop(event.request, None)  # dropped at the wave origin
        elif event.tier == "device" and event.kind == "admit":
            key = (event.request, event.replica)
            if awaiting.get(event.request) == event.replica:
                del awaiting[event.request]
            else:
                assert hedges[key] > 0, (
                    f"device admit of {event.request!r} on replica {event.replica} "
                    "answers no fleet dispatch or hedge"
                )
                hedges[key] -= 1
    assert not awaiting, f"fleet dispatches never reached their replica: {awaiting}"


def check_plane_balance(log: EventLog) -> None:
    acquires = sum(1 for e in log if e.kind == "acquire")
    releases = sum(1 for e in log if e.kind == "release")
    assert acquires == releases, (
        f"weight plane leaked: {acquires} acquires vs {releases} releases"
    )
    # And per (replica, layer), refcounts drain back to zero.
    open_counts: dict = {}
    for event in log:
        if event.kind == "acquire":
            key = (event.replica, event.data["layer"])
            open_counts[key] = open_counts.get(key, 0) + 1
        elif event.kind == "release":
            key = (event.replica, event.data["layer"])
            open_counts[key] = open_counts.get(key, 0) - 1
            assert open_counts[key] >= 0, f"release before acquire for {key}"
    assert all(count == 0 for count in open_counts.values()), (
        f"unbalanced layers: { {k: v for k, v in open_counts.items() if v} }"
    )


def check_selections_planned(run: TraceRun) -> int:
    """Each completed response's selection is the device-free plan of its
    batch at the config ``build_server`` serves every tier with; returns
    how many completions were checked."""
    model_config = get_model_config(run.spec.model)
    model = shared_model(model_config)
    tokenizer = shared_tokenizer(model_config)
    config = PrismConfig(numerics=False)
    requests = {request.request_id: request for request in run.requests}
    checked = 0
    for response in run.responses:
        if response.result is None:
            continue
        request = requests[response.request_id]
        batch = build_batch(request.query, tokenizer, model_config.max_seq_len)
        plan = plan_selection(model, batch, request.k, config)
        assert response.result.top_indices.tobytes() == plan.top_indices.tobytes(), request
        assert response.result.top_scores.tobytes() == plan.top_scores.tobytes(), request
        checked += 1
    return checked


@pytest.fixture(scope="module")
def scenario_runs():
    return {
        (name, quick): run_trace(*build_scenario(name, quick=quick))
        for name in ALL_SCENARIOS
        for quick in (True, False)
    }


@pytest.fixture(scope="module")
def scenario_logs(scenario_runs):
    return {name: scenario_runs[name, True].log for name in ALL_SCENARIOS}


class TestScenarioInvariants:
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_monotone_per_request(self, scenario_logs, name):
        check_monotone(scenario_logs[name])

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_hedges_bounded_by_lifecycle(self, scenario_logs, name):
        check_hedge_bounds(scenario_logs[name])

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_exactly_one_terminal_per_admission(self, scenario_logs, name):
        check_exactly_one_terminal(scenario_logs[name])

    @pytest.mark.parametrize("name", ("fleet", "resilience"))
    def test_fleet_dispatches_pair_with_device_admissions(self, scenario_logs, name):
        check_cross_tier(scenario_logs[name])

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_plane_refcounts_balance(self, scenario_logs, name):
        check_plane_balance(scenario_logs[name])

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_seq_is_emission_order(self, scenario_logs, name):
        log = scenario_logs[name]
        assert [e.seq for e in log] == list(range(len(log)))

    @pytest.mark.parametrize("quick", (True, False), ids=("quick", "full"))
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_completed_selections_equal_the_plan(self, scenario_runs, name, quick):
        assert check_selections_planned(scenario_runs[name, quick]) > 0


class TestSweptInvariants:
    """Seeded workload variations on the shared-plane device tier —
    the tier where cancellation, shedding and refcounting interact."""

    @pytest.mark.parametrize("case", SWEEP_CASES)
    def test_device_tier_sweep(self, case):
        queries = get_dataset("nfcorpus").queries(3 + case, num_candidates=4)
        spec = TraceSpec(
            tier="device",
            device={
                "policy": ("fusion", "round_robin")[case % 2],
                "max_concurrency": 2 + case % 2,
                "shared_weights": True,
            },
        )
        requests = []
        for i, query in enumerate(queries):
            requests.append(
                TraceRequest(
                    query=query,
                    k=2,
                    request_id=f"s{case}-{i}",
                    arrival=0.0015 * i,
                    # Rotate the drop modes through the sweep so every
                    # terminal kind appears across the matrix.
                    deadline=1e-4 if (i + case) % 3 == 0 else None,
                    cancel_at=0.04 if (i + case) % 3 == 1 else None,
                )
            )
        run = run_trace(spec, requests)
        check_monotone(run.log)
        check_exactly_one_terminal(run.log)
        check_plane_balance(run.log)
        check_selections_planned(run)

    def test_data_plane_answers_equal_the_plan(self):
        """Memo hits, coalesced followers and overlap leaders (a half-new
        variant with a residue pass, and a subset answered by replay
        alone) all complete with the plan's selection."""
        (base,) = get_dataset("wikipedia").queries(1, 12)
        fresh = tuple(
            CandidateSpec(
                uid=900_000 + i,
                seed=77_000 + i,
                length=candidate.length,
                relevance=0.1 + 0.07 * i,
                is_relevant=0.1 + 0.07 * i >= 0.5,
            )
            for i, candidate in enumerate(base.candidates[6:])
        )
        variant = replace(base, candidates=base.candidates[:6] + fresh)
        subset = replace(base, candidates=base.candidates[:6])
        spec = TraceSpec(
            tier="fleet",
            fleet={"data_plane": True, "max_batch": 1, "max_wait_ms": 0.0, "intra_concurrency": 4},
        )
        shapes = [(base, 0.0), (base, 0.0), (base, 2.0), (variant, 4.0), (subset, 6.0)]
        requests = [
            TraceRequest(query=query, k=4, request_id=f"dp-{i}", arrival=arrival)
            for i, (query, arrival) in enumerate(shapes)
        ]
        run = run_trace(spec, requests)
        modes = Counter(e.data["mode"] for e in run.log if e.kind == EVENT_CACHE_HIT)
        assert modes == {"coalesced": 1, "memo": 1, "overlap": 2}
        assert check_selections_planned(run) == len(requests)

    def test_crash_preserves_invariants(self):
        """A mid-stream replica crash must not break any law: the dying
        pass releases its plane refcounts, the victims re-admit on a
        healthy replica, and every admission still terminates."""
        spec, requests = build_scenario("resilience", quick=True)
        log = run_trace(spec, requests).log
        assert any(e.kind == "fault" for e in log)
        check_monotone(log)
        check_hedge_bounds(log)
        check_exactly_one_terminal(log)
        check_plane_balance(log)
