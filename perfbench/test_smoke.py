"""``python -m pytest perfbench/`` runs the benchmark's schema smoke.

Not part of tier-1: pyproject's ``testpaths`` stays ``tests``.
"""

import os
import subprocess
import sys


def test_selfcheck_smoke():
    here = os.path.dirname(os.path.abspath(__file__))
    child = subprocess.run(
        [sys.executable, os.path.join(here, "selfcheck.py"), "--smoke"],
        capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stdout + child.stderr
