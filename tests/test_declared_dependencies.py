"""Every third-party module the tests, benches, benchmark and examples
import is declared in ``pyproject.toml``.

CI installs exactly ``.[test]``; a module imported at collection time
but declared nowhere makes a clean install fail to collect its tests.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

REPO_ROOT = Path(__file__).resolve().parent.parent
TREES = ("tests", "benchmarks", "perfbench", "examples")
FIRST_PARTY = {"repro", "tests", "perfbench", "conftest"}


def imported_modules(path: Path) -> set[str]:
    """Top-level names of every absolute import in ``path``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def declared_modules() -> set[str]:
    """Module names of the dependencies and every extra in pyproject.toml."""
    project = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())["project"]
    requirements = list(project.get("dependencies", ()))
    for extra in project.get("optional-dependencies", {}).values():
        requirements.extend(extra)
    return {
        re.match(r"[A-Za-z0-9_.-]+", requirement)[0].lower().replace("-", "_")
        for requirement in requirements
    }


def test_every_import_is_stdlib_first_party_or_declared():
    allowed = set(sys.stdlib_module_names) | FIRST_PARTY | declared_modules()
    undeclared = {
        f"{path.relative_to(REPO_ROOT)}: {name}"
        for tree in TREES
        for path in sorted((REPO_ROOT / tree).rglob("*.py"))
        for name in imported_modules(path) - allowed
    }
    assert not undeclared, sorted(undeclared)
