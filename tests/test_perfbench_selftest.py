"""The benchmark's own self-test, run as part of the suite.

perfbench/tracing.py wraps spinshuffle functions by name, so renaming or
removing one breaks the benchmark; running its tiny-size self-test here
makes that a test failure. It writes only under the ignored .perfbench/.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "selftest: ok"
