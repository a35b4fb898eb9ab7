"""Deprecated: ids are per simulation now (``repro.sim.engine.Ids``).

Every key, QPN, handle, token, port and job name comes from the
``Simulator`` that hands it out, so there is nothing process-wide left
to rewind and two clusters in one process never disturb each other.
``reset_global_counters()`` is kept as a no-op only for callers that
still import it; new code must not call it.
"""

__all__ = ["reset_global_counters"]


def reset_global_counters() -> None:
    """Do nothing: no process-global id counter is left to rewind."""
