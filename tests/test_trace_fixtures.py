"""Golden trace fixtures: exact byte-level reproduction (DESIGN.md §10).

One small recorded trace per serving tier lives under
``tests/fixtures/traces/``, beside the engine-tier crash counterexample
recorded on the engine tier and on a one-slot ``fifo`` device tier.
Each test re-runs the generating scenario and asserts the rendered
JSONL reproduces the committed fixture byte for byte — the strongest
regression net the simulator offers: any change to scheduling order,
cost modelling, routing, event emission or serialization shows up as a
diff on a specific event line.  Each fixture also replays from the file
alone.

After an *intentional* behaviour change, regenerate with::

    for s in engine device fleet; do \
      PYTHONPATH=src python -m repro.harness.cli trace record \
        tests/fixtures/traces/$s.jsonl --scenario $s --quick; \
    done
    PYTHONPATH=src python tests/test_trace_fixtures.py  # the crash pair

and review the diff — every changed line is a behaviour change being
claimed on purpose.
"""

import json
from pathlib import Path

import pytest

from repro.core.trace import TraceRequest, TraceSpec, parse_trace, record_trace, replay_trace
from repro.data.datasets import get_dataset
from repro.device.faults import FAULT_REPLICA_CRASH
from repro.harness.traces import build_scenario

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "traces"
TIERS = ("engine", "device", "fleet")
#: Four nfcorpus requests arrive together and a replica crash lands
#: while the second runs.  The engine tier once completed the last two
#: on the dead device; both tiers now fail every request after the
#: first at the crash instant.
CRASH = ({"kind": FAULT_REPLICA_CRASH, "at": 0.349},)
CRASH_SPECS = {
    "crash_engine": TraceSpec(tier="engine", faults=CRASH),
    "crash_device": TraceSpec(tier="device", device={"policy": "fifo"}, faults=CRASH),
}
FIXTURE_NAMES = TIERS + tuple(CRASH_SPECS)


def scenario(name: str) -> tuple[TraceSpec, list[TraceRequest]]:
    if name not in CRASH_SPECS:
        return build_scenario(name, quick=True)
    queries = get_dataset("nfcorpus").queries(4, 6)
    requests = [TraceRequest(q, k=2, request_id=f"r{i}") for i, q in enumerate(queries)]
    return CRASH_SPECS[name], requests


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_reproduces_exactly(name):
    fixture = FIXTURES / f"{name}.jsonl"
    assert fixture.is_file(), f"missing golden fixture {fixture}; see the module docstring"
    _, text = record_trace(*scenario(name))
    assert text == fixture.read_text(), (
        f"{name} scenario no longer reproduces its golden trace — "
        "behaviour changed; if intentional, regenerate the fixture "
        "(see module docstring) and review the diff"
    )


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_replays_event_identical(name):
    """The committed artifact itself replays — record/replay fidelity
    holds against the *stored* bytes, not just an in-memory log."""
    _, report = replay_trace(path=FIXTURES / f"{name}.jsonl")
    assert report.event_identical, (
        f"fixture {name}.jsonl diverged at event {report.first_divergence}: "
        f"{report.recorded_line!r} != {report.replayed_line!r}"
    )


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_header_is_versioned(name):
    spec, events, _ = parse_trace((FIXTURES / f"{name}.jsonl").read_text())
    header = json.loads((FIXTURES / f"{name}.jsonl").read_text().splitlines()[0])
    assert header["schema"] == "repro.trace"
    assert header["version"] == 1
    assert header["events_version"] == 1
    assert spec == scenario(name)[0]
    assert events, "fixture holds no events"


@pytest.mark.parametrize("name", sorted(CRASH_SPECS))
def test_crash_fixture_fails_every_request_after_the_first(name):
    spec, events, _ = parse_trace((FIXTURES / f"{name}.jsonl").read_text())
    terminals = {
        e.request: (e.kind, e.data.get("detail"))
        for e in events
        if e.tier == spec.tier and e.kind in ("complete", "fail")
    }
    assert terminals == {
        "r0": ("complete", None),
        "r1": ("fail", FAULT_REPLICA_CRASH),
        "r2": ("fail", FAULT_REPLICA_CRASH),
        "r3": ("fail", FAULT_REPLICA_CRASH),
    }


if __name__ == "__main__":
    for crash_name in CRASH_SPECS:
        record_trace(*scenario(crash_name), path=FIXTURES / f"{crash_name}.jsonl")
        print(f"wrote {crash_name}.jsonl")
