"""Smoke tests: every shipped example runs clean and prints its story."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

CASES = [
    ("quickstart.py", ["LT_write", "LT_RPC", "replied", "simulated time elapsed"]),
    ("distributed_log.py", ["transactions committed", "verified"]),
    ("pagerank.py", ["identical ranks", "LITE-Graph"]),
    ("wordcount.py", ["beats Hadoop", "most common words"]),
    ("shared_memory.py", ["coherent batches", "release consistency"]),
    ("kv_store.py", ["one-sided GETs", "never touched a server CPU"]),
    ("qos_isolation.py", ["sw-pri", "p99"]),
]


@pytest.mark.parametrize("script,expected", CASES,
                         ids=[case[0] for case in CASES])
def test_example_runs_clean(script, expected):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True, text=True, timeout=180,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    for needle in expected:
        assert needle in result.stdout, (
            f"{script}: expected {needle!r} in output:\n{result.stdout}"
        )
