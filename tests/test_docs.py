"""Doc-consistency checks: source citations must resolve into the docs.

Module docstrings cite design sections as ``DESIGN.md §N``.  These
tests grep every source file for such references and fail when the
cited section heading is missing from DESIGN.md — so a doc
reorganisation cannot silently strand the citations, and a new
citation cannot point at a section that was never written.  The
serving calls the README and docs/ show are checked against the
code's signatures the same way, so a removed knob cannot stay
documented.
"""

import ast
import inspect
import re
import textwrap
from pathlib import Path

import pytest

from repro.core.api import DeviceServer
from repro.core.fleet import FleetConfig, FleetService
from repro.core.scheduler import SchedulerConfig
from repro.core.service import SemanticSelectionService
from repro.core.trace import TraceSpec

REPO_ROOT = Path(__file__).resolve().parent.parent
DESIGN_MD = REPO_ROOT / "DESIGN.md"
SRC_ROOT = REPO_ROOT / "src" / "repro"

CITATION = re.compile(r"DESIGN\.md\s+§(\d+)")
HEADING = re.compile(r"^#+\s.*§(\d+)", re.MULTILINE)


def design_sections() -> set[int]:
    return {int(n) for n in HEADING.findall(DESIGN_MD.read_text())}


def source_citations() -> list[tuple[str, int]]:
    citations = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        for number in CITATION.findall(path.read_text()):
            citations.append((str(path.relative_to(REPO_ROOT)), int(number)))
    return citations


def test_design_md_exists_with_numbered_sections():
    assert DESIGN_MD.is_file(), "DESIGN.md is missing from the repo root"
    assert design_sections() >= {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}


def test_scheduler_sources_cite_section_6():
    """The §6 citation net is live: the step-based execution core and
    the device scheduler must anchor their design in DESIGN.md §6."""
    cited_by = {source for source, section in source_citations() if section == 6}
    for module in (
        "src/repro/core/engine.py",
        "src/repro/core/scheduler.py",
    ):
        assert module in cited_by, f"{module} no longer cites DESIGN.md §6"


def test_weight_plane_sources_cite_section_7():
    """The §7 citation net is live: the shared weight plane must anchor
    its refcount/fusion design in DESIGN.md §7."""
    cited_by = {source for source, section in source_citations() if section == 7}
    assert "src/repro/core/streaming.py" in cited_by, (
        "src/repro/core/streaming.py no longer cites DESIGN.md §7"
    )


def test_resilience_sources_cite_section_9():
    """The §9 citation net is live: the fault plane and the resilience
    policy layer must anchor their design in DESIGN.md §9."""
    cited_by = {source for source, section in source_citations() if section == 9}
    for module in (
        "src/repro/core/resilience.py",
        "src/repro/device/faults.py",
    ):
        assert module in cited_by, f"{module} no longer cites DESIGN.md §9"


def test_observability_sources_cite_section_10():
    """The §10 citation net is live: the event log and trace
    record/replay must anchor their design in DESIGN.md §10."""
    cited_by = {source for source, section in source_citations() if section == 10}
    for module in (
        "src/repro/core/events.py",
        "src/repro/core/trace.py",
    ):
        assert module in cited_by, f"{module} no longer cites DESIGN.md §10"


def test_gang_kernel_sources_cite_section_11():
    """The §11 citation net is live: the forward kernel and the
    memoized tensor ops must anchor their design in DESIGN.md §11."""
    cited_by = {source for source, section in source_citations() if section == 11}
    for module in (
        "src/repro/model/transformer.py",
        "src/repro/model/tensor_ops.py",
    ):
        assert module in cited_by, f"{module} no longer cites DESIGN.md §11"


def test_data_plane_sources_cite_section_12():
    """The §12 citation net is live: the data plane must anchor its
    memoization/coalescing/overlap design in DESIGN.md §12."""
    cited_by = {source for source, section in source_citations() if section == 12}
    assert "src/repro/core/data_plane.py" in cited_by, (
        "src/repro/core/data_plane.py no longer cites DESIGN.md §12"
    )


def test_tenancy_sources_cite_section_13():
    """The §13 citation net is live: the traffic generator and the
    fair-admission plane must anchor their design in DESIGN.md §13."""
    cited_by = {source for source, section in source_citations() if section == 13}
    for module in (
        "src/repro/core/tenancy.py",
        "src/repro/data/traffic.py",
    ):
        assert module in cited_by, f"{module} no longer cites DESIGN.md §13"


def test_telemetry_sources_cite_section_14():
    """The §14 citation net is live: the metrics registry and the live
    progress server must anchor their design in DESIGN.md §14."""
    cited_by = {source for source, section in source_citations() if section == 14}
    for module in (
        "src/repro/core/telemetry.py",
        "src/repro/harness/live.py",
    ):
        assert module in cited_by, f"{module} no longer cites DESIGN.md §14"


def test_sources_cite_design_sections():
    """The citation net is live (a regression that strips every
    citation would make the resolution test below vacuous)."""
    assert len(source_citations()) >= 5


@pytest.mark.parametrize(
    "source,section",
    source_citations() or [("<none>", 0)],
    ids=lambda value: str(value),
)
def test_citation_resolves(source, section):
    if source == "<none>":
        pytest.skip("no citations found (covered by the liveness test)")
    assert section in design_sections(), (
        f"{source} cites DESIGN.md §{section}, but DESIGN.md has no "
        f"heading for §{section} (known: {sorted(design_sections())})"
    )


def test_readme_documents_tier1_verify():
    readme = (REPO_ROOT / "README.md").read_text()
    assert "python -m pytest -x -q" in readme
    assert "PYTHONPATH=src" in readme


def test_serving_docs_cover_all_four_modes():
    serving = (REPO_ROOT / "docs" / "serving.md").read_text()
    for name in (
        "ThresholdCalibrator",
        "SemanticSelectionService",
        "DeviceScheduler",
        "FleetService",
    ):
        assert name in serving, f"docs/serving.md no longer documents {name}"
    for concept in (
        "serve_requests",
        "intra_concurrency",
        "priority",
        "WeightPlane",
        "shared_weights",
        "fusion",
        "max_skew",
    ):
        assert concept in serving, f"docs/serving.md no longer covers {concept}"


def test_serving_docs_cover_resilience_plane():
    """docs/serving.md must document the §9 resilience plane: faults,
    failover, hedging and the autoscaler."""
    serving = (REPO_ROOT / "docs" / "serving.md").read_text()
    assert "Faults, failover and autoscaling" in serving
    for concept in (
        "FaultPlan",
        "FaultEvent",
        "DeviceFault",
        "ResilienceConfig",
        "AutoscalerConfig",
        "hedge_after_ms",
        "failed_over_from",
        "max_retries",
        "scale_up_queue_depth",
        "scaling_events",
    ):
        assert concept in serving, f"docs/serving.md resilience section misses {concept}"


def test_observability_docs_cover_event_plane():
    """docs/observability.md must document the §10 observability plane:
    the event taxonomy, record/replay workflow, CLI and fixtures."""
    doc = (REPO_ROOT / "docs" / "observability.md").read_text()
    for concept in (
        "EventLog",
        "EVENT_KINDS",
        "TERMINAL_KINDS",
        "record_trace",
        "replay_trace",
        "ReplayReport",
        "TraceSpec",
        "event_log=",
        "trace record",
        "trace replay",
        "trace summary",
        "tests/fixtures/traces/",
        "Zero perturbation",  # the no-sink guarantee is named
    ):
        assert concept in doc, f"docs/observability.md no longer covers {concept}"
    # The documented fixture-regeneration command must reference the
    # real CLI entry point.
    assert "repro.harness.cli trace record" in doc


def test_observability_docs_cover_live_telemetry():
    """docs/observability.md must document the §14 live telemetry
    plane: subscriptions, the metrics namespace, the progress server's
    three endpoints, the one lifecycle fold, and timeline export."""
    doc = (REPO_ROOT / "docs" / "observability.md").read_text()
    assert "Live telemetry" in doc
    for concept in (
        "EventLog.subscribe",
        "TelemetryCollector",
        "MetricsRegistry",
        "LifecycleFold",
        "parse_exposition",
        "repro_requests_shed_total",
        "repro_request_latency_seconds",
        "repro_slo_burn_rate",
        "--live-port",
        "/metrics",
        "/events",
        "/healthz",
        "?replay=1",
        "trace timeline",
        "--follow",
        "Perfetto",
    ):
        assert concept in doc, f"docs/observability.md live section misses {concept}"
    # The README points readers at the live surfaces.
    readme = (REPO_ROOT / "README.md").read_text()
    assert "--live-port" in readme
    assert "trace timeline" in readme


def test_serving_docs_cover_multitenant_plane():
    """docs/serving.md must document the §13 multi-tenant workload
    plane: traffic generation, fair admission and the contract views."""
    serving = (REPO_ROOT / "docs" / "serving.md").read_text()
    assert "Multi-tenant admission" in serving
    for concept in (
        "TrafficConfig",
        "generate_traffic",
        "TenancyConfig",
        "TenantPolicy",
        "tenancy_from_trace",
        "selection_requests_from_trace",
        "rate_limit",
        "queue_limit",
        "starvation-freedom",
        "shed_bound",
        "starved_tenants",
        "shed_bound_violations",
        "traffic generate",
        "traffic summary",
        "BENCH_multitenant.json",
        "--multitenant-fresh",
    ):
        assert concept in serving, f"docs/serving.md multi-tenant section misses {concept}"
    # The README points readers at the study and the traffic CLI.
    readme = (REPO_ROOT / "README.md").read_text()
    assert "cli tenants" in readme
    assert "traffic generate" in readme


def test_performance_docs_cover_hotpath_and_gate():
    """docs/performance.md must document the §11 wall-clock story: the
    microbench scenarios, the artifact fields, the gate's anchor
    normalisation and the injected-slowdown self-test."""
    doc = (REPO_ROOT / "docs" / "performance.md").read_text()
    for concept in (
        "BENCH_hotpath.json",
        "wall_time_s_per_step",
        "kernel_vs_reference_n",
        "solo",
        "gang_n8",
        "reference_n8",
        "perf_gate.py",
        "--threshold",
        "--min-speedup-n8",
        "--inject-slowdown",
        "BENCH_QUICK",
        "reference_impls.py",
        "test_gang_kernels.py",
    ):
        assert concept in doc, f"docs/performance.md no longer covers {concept}"
    # The documented refresh command must reference the real bench.
    assert "pytest -q benchmarks/test_hotpath.py" in doc


def test_performance_docs_cover_data_plane_gate():
    """docs/performance.md must document the §12 cache story: the
    Zipf bench, the artifact's gated fields, and the gate flags."""
    doc = (REPO_ROOT / "docs" / "performance.md").read_text()
    for concept in (
        "BENCH_data_plane.json",
        "speedup_cached",
        "identical_selections",
        "zipf_request_stream",
        "--data-plane-baseline",
        "--data-plane-fresh",
        "--min-cache-speedup",
        "cache_hit",
        "cache_evict",
        "test_data_plane.py",
        "DataPlaneStats",
    ):
        assert concept in doc, f"docs/performance.md no longer covers {concept}"
    assert "pytest -q benchmarks/test_data_plane.py" in doc


def test_readme_points_at_observability_docs():
    readme = (REPO_ROOT / "README.md").read_text()
    assert "docs/observability.md" in readme
    assert "trace record" in readme


def test_readme_points_at_data_plane():
    readme = (REPO_ROOT / "README.md").read_text()
    assert "cli cache" in readme
    assert "DataPlaneStats" in readme


# ----------------------------------------------------------------------
# The docs' serving calls against the code's signatures
# ----------------------------------------------------------------------
DOC_PAGES = (REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md")))
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def python_blocks() -> list[tuple[str, str]]:
    """Every python code block of the README and docs/: (where, source)."""
    blocks = []
    for page in DOC_PAGES:
        text = page.read_text()
        for match in PYTHON_BLOCK.finditer(text):
            line = text.count("\n", 0, match.start()) + 2
            blocks.append((f"{page.relative_to(REPO_ROOT)}:{line}", match.group(1)))
    return blocks


#: The serving surface the docs' calls are checked against.
SERVING_SURFACE = {
    "SemanticSelectionService": SemanticSelectionService,
    "DeviceServer": DeviceServer,
    "SchedulerConfig": SchedulerConfig,
    "FleetConfig": FleetConfig,
    "FleetService": FleetService,
    "FleetService.homogeneous": FleetService.homogeneous,
    "TraceSpec": TraceSpec,
    "serve_requests": SemanticSelectionService.serve_requests,
}
#: Where a surface's ``**kwargs`` go: (the surface they reach, the
#: function whose call forwards them).
FORWARDS = {
    "FleetService": ("SemanticSelectionService", FleetService._spawn_replica),
    "FleetService.homogeneous": ("FleetService", FleetService.homogeneous),
}


def accepted_keywords(name: str) -> set[str]:
    """The keywords a call to the serving surface ``name`` may pass;
    ``**kwargs`` are followed to the signature they reach, less what
    the forwarding call fills itself, by position or by name."""
    kinds = (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    accepted = {
        parameter
        for parameter, spec in inspect.signature(SERVING_SURFACE[name]).parameters.items()
        if spec.kind in kinds and parameter not in ("self", "cls")
    }
    if name in FORWARDS:
        target, holder = FORWARDS[name]
        tree = ast.parse(textwrap.dedent(inspect.getsource(holder)))
        (call,) = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and any(kw.arg is None for kw in node.keywords)
        ]
        filled = set(list(inspect.signature(SERVING_SURFACE[target]).parameters)[: len(call.args)])
        filled |= {kw.arg for kw in call.keywords if kw.arg is not None}
        accepted |= accepted_keywords(target) - filled
    return accepted


def serving_calls(source: str) -> list[tuple[str, list[str]]]:
    """(surface name, keywords passed) of each serving call in a block."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "homogeneous":
            name = "FleetService.homogeneous"
        else:
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in SERVING_SURFACE:
            calls.append((name, [kw.arg for kw in node.keywords if kw.arg is not None]))
    return calls


def test_docs_python_blocks_parse():
    blocks = python_blocks()
    assert len(blocks) >= 11, "the docs' python blocks are no longer found"
    for where, source in blocks:
        try:
            ast.parse(source)
        except SyntaxError as error:
            pytest.fail(f"{where}: python block does not parse: {error}")


def test_docs_serving_calls_match_signatures():
    """Every serving call the docs show passes only keywords its
    signature accepts, so a removed or renamed knob cannot stay
    documented."""
    stale = []
    checked = 0
    for where, source in python_blocks():
        for name, keywords in serving_calls(source):
            checked += 1
            unknown = sorted(set(keywords) - accepted_keywords(name))
            if unknown:
                stale.append(f"{where}: {name}(...) passes {unknown}")
    assert checked >= 8, "the docs show fewer serving calls than expected"
    assert not stale, "\n".join(stale)


def test_forwarded_keywords_reach_the_service():
    """The forwarding rule itself: a fleet passes the service's
    calibration knobs through, and not what each replica sets itself."""
    fleet = accepted_keywords("FleetService")
    assert {"sample_rate", "precision_target", "event_log"} <= fleet
    assert not {"scheduler", "shared_weights", "events_replica"} & fleet
    homogeneous = accepted_keywords("FleetService.homogeneous")
    assert {"num_replicas", "profile", "fleet_config", "sample_rate"} <= homogeneous
    assert "profiles" not in homogeneous
