"""The benchmark's checker tests, run as part of the test suite.

``perfbench/test_checks.py`` shows that each of the benchmark's
independent checkers accepts torell's result and rejects a corrupted copy.
The checkers rely on the shapes of torell's results, so a library change
that breaks one of them fails here rather than first in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_checker_tests_pass():
    run = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench", "-p", "test_*.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
