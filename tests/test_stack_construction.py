"""Every serving stack under ``repro.harness`` is built by ``build_server``.

``repro.core.trace.build_server`` is the one constructor of a serving
stack (DESIGN.md §10): which ``PrismConfig``, engine prepare, event-log
attachment and fault installation a tier gets is decided there alone.
``cli serve`` and the serving studies describe their stacks as a
``TraceSpec`` instead of calling the tier classes themselves.
"""

import ast
from pathlib import Path

HARNESS = Path(__file__).resolve().parent.parent / "src" / "repro" / "harness"
CONSTRUCTORS = {
    "FleetService",
    "FleetService.homogeneous",
    "SemanticSelectionService",
    "DeviceServer",
    "FleetServer",
}


def dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a name or attribute chain, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        parent = dotted(node.value)
        return None if parent is None else f"{parent}.{node.attr}"
    return None


def constructor_calls(path: Path) -> list[str]:
    """``file:line name`` of each call to a serving-stack constructor."""
    calls = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        name = dotted(node.func)
        # Match the name as written and module-qualified (``fleet.FleetService``).
        if name is not None and any(
            name == target or name.endswith("." + target) for target in CONSTRUCTORS
        ):
            calls.append(f"{path.name}:{node.lineno} {name}")
    return calls


def test_constructor_calls_are_found(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("fleet.FleetService.homogeneous(m, p, 2)\nDeviceServer(s)\nbuild_server(spec)\n")
    assert constructor_calls(path) == [
        "probe.py:1 fleet.FleetService.homogeneous",
        "probe.py:2 DeviceServer",
    ]


def test_harness_builds_every_stack_through_build_server():
    calls = [call for path in sorted(HARNESS.rglob("*.py")) for call in constructor_calls(path)]
    assert not calls, calls
