"""Parallel figure-sweep runner: one deterministic simulation per point.

Every figure the repo reproduces is a *sweep* of independent
simulations (one cluster per MR count, per message size, per QP
count...).  Points share zero state — each worker builds its own
cluster — so they parallelize perfectly across worker processes.

Determinism contract (the whole point of this module):

- Each point runs under a fresh :func:`repro.determinism.
  reset_global_counters` call and a per-point ``random`` seed derived
  only from the point's *index*, in the serial and the parallel path
  alike.  A sweep at ``--jobs 4`` therefore produces **byte-identical**
  per-point results to the serial run.
- Results are merged in point order (``Pool.map`` order semantics), so
  tables and result files never depend on worker scheduling.

``fn`` must be picklable (a module-level function) when running with
``jobs > 1``; figure drivers already have this shape.  Exceptions in a
worker propagate to the caller, as they would serially.
"""

from __future__ import annotations

import multiprocessing
import os
import random
from typing import Callable, List, Optional, Sequence

from .determinism import reset_global_counters

__all__ = ["run_sweep", "resolve_jobs", "SWEEP_JOBS_ENV"]

# Environment knob consulted when ``jobs`` is not given explicitly:
# tools/collect_results.py --jobs and CI export it so pytest-collected
# figure benchmarks pick the parallel path up without plumbing a flag
# through pytest.
SWEEP_JOBS_ENV = "REPRO_BENCH_JOBS"

# Fixed salt for per-point seeding: the seed depends only on the point
# *index*, never on worker identity, pid, or wall clock.
_POINT_SEED_SALT = 0x11E5_0C0F


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count for a sweep: explicit arg > env > serial.

    ``0`` (or ``"auto"``) means one worker per CPU.  Anything that does
    not parse falls back to serial.
    """
    if jobs is None:
        raw = os.environ.get(SWEEP_JOBS_ENV, "").strip()
        if not raw:
            return 1
        if raw.lower() == "auto":
            return multiprocessing.cpu_count()
        try:
            jobs = int(raw)
        except ValueError:
            return 1
    if isinstance(jobs, str):
        if jobs.lower() == "auto":
            return multiprocessing.cpu_count()
        jobs = int(jobs)
    if jobs == 0:
        return multiprocessing.cpu_count()
    return max(1, jobs)


def _run_point(packed):
    """Worker-side body: isolate, seed, evaluate one point.

    Module-level so it pickles under every start method.  The counter
    reset + seeding runs identically in the serial path below — that
    equivalence is what the parallel==serial determinism tests pin.
    """
    fn, point, index = packed
    reset_global_counters()
    random.seed(_POINT_SEED_SALT ^ index)
    return fn(point)


def run_sweep(
    fn: Callable,
    points: Sequence,
    jobs: Optional[int] = None,
) -> List:
    """Evaluate ``fn(point)`` for every point; results in point order.

    ``jobs=None`` consults the ``REPRO_BENCH_JOBS`` environment
    variable (see :func:`resolve_jobs`); ``jobs=1`` forces the serial
    path.  Parallel workers each run in their own process: global
    counters, caches, and module state never leak across points *or*
    back into the parent.
    """
    points = list(points)
    jobs = resolve_jobs(jobs)
    tasks = [(fn, point, index) for index, point in enumerate(points)]
    if jobs <= 1 or len(points) <= 1:
        return [_run_point(task) for task in tasks]
    # fork keeps imported modules warm (no re-import per worker);
    # platforms without fork fall back to their default start method.
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        ctx = multiprocessing.get_context()
    with ctx.Pool(processes=min(jobs, len(points))) as pool:
        # chunksize=1: points are coarse (whole simulations), so plain
        # round-robin beats batching for load balance; map() preserves
        # point order regardless of completion order.
        return pool.map(_run_point, tasks, chunksize=1)
