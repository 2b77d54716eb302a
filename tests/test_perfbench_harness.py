"""The benchmark harness's own unit tests, run as part of this suite.

``perfbench/`` keeps its tests next to the harness and runs them with
``unittest``; this runs them the same way, from the repository root, so a
change to the library that breaks the harness fails here too.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_unit_tests_pass():
    run = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench", "-t", "perfbench"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
