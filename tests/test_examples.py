"""The examples print what they printed when their fixture was recorded.

Each example below is deterministic and runs in under a second; it runs
as its own process and its stdout must equal
``tests/fixtures/examples/<name>.txt`` byte for byte.  After an
intentional change, regenerate the fixtures from the repository root
and review the diff:

    for name in quickstart concurrent_serving fleet_serving resilient_fleet \\
        threshold_autotune long_context_selection; do
      PYTHONPATH=src python examples/$name.py > tests/fixtures/examples/$name.txt
    done
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures" / "examples"

EXAMPLES = (
    "quickstart",
    "concurrent_serving",
    "fleet_serving",
    "resilient_fleet",
    "threshold_autotune",
    "long_context_selection",
)


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_stdout_is_pinned(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    run = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{name}.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (FIXTURES / f"{name}.txt").read_bytes()
