"""Golden-trace regression tests: span trees are locked down byte-wise.

Each canonical scenario's JSONL export is compared against a committed
golden file under ``tests/golden/``.  Any change to op decomposition,
span naming, timing parameters, or exporter formatting shows up as a
unified diff here.  To bless intentional changes::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_trace_golden.py

then review and commit the rewritten golden files.
"""

import difflib
import os
from pathlib import Path

import pytest

from repro.obs import to_jsonl

from tests.obs_helpers import run_scenario

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"


def _check_golden(name: str) -> None:
    _cluster, tracer = run_scenario(name)
    assert tracer is not None, "tracing kill switch must be on for goldens"
    actual = to_jsonl(tracer)
    path = GOLDEN_DIR / f"{name}.jsonl"
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(actual)
        pytest.skip(f"regenerated {path}")
    if not path.exists():
        pytest.fail(
            f"missing golden file {path}; run with REPRO_REGEN_GOLDEN=1 "
            f"to create it"
        )
    expected = path.read_text()
    if actual != expected:
        diff = "\n".join(difflib.unified_diff(
            expected.splitlines(), actual.splitlines(),
            fromfile=f"golden/{name}.jsonl", tofile="actual",
            lineterm="", n=2,
        ))
        pytest.fail(
            f"trace for scenario {name!r} diverged from golden file "
            f"(REPRO_REGEN_GOLDEN=1 to bless):\n{diff}"
        )


def test_golden_write64():
    _check_golden("write64")


def test_golden_read64_cold():
    _check_golden("read64_cold")


def test_golden_read64_warm():
    _check_golden("read64_warm")


def test_golden_write_4chunk():
    """A 64KB write over four 16KB chunks: the generator path's
    per-chunk striping schedule."""
    _check_golden("write_4chunk")


def test_golden_rpc_roundtrip():
    _check_golden("rpc_roundtrip")


def test_golden_recovery_failover():
    """The whole recovery protocol — lease expiry, promotion broadcast,
    rejoin, resync copy — decomposes into a deterministic span tree."""
    _check_golden("recovery_failover")


def test_cold_read_misses_warm_read_hits():
    """The cold/warm pair differ exactly where they should: the cold
    trace carries RNIC cache-miss markers, the warm trace none."""
    _c, cold = run_scenario("read64_cold")
    _w, warm = run_scenario("read64_warm")
    cold_misses = [s for s in cold.spans if s.name == "rnic.cache.miss"]
    warm_misses = [s for s in warm.spans if s.name == "rnic.cache.miss"]
    assert cold_misses, "cold read should miss the RNIC SRAM caches"
    assert not warm_misses, "warm read should be all hits"
    # Misses make the cold op strictly slower end-to-end.
    cold_op = next(s for s in cold.op_roots() if s.name == "op.lt_read")
    warm_op = next(s for s in warm.op_roots() if s.name == "op.lt_read")
    assert cold_op.duration > warm_op.duration
