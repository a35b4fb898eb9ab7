"""Process-wide counter resets for byte-identical repeat runs.

Several modules hand out ids from process-global counters (QP numbers,
rkeys, RPC tokens, TCP connection ids...).  Two clusters built in the
same process therefore see different id *digit counts*, which changes
the length of compact-JSON control messages and thus wire timing by a
hair — enough to break byte-identical trace comparison across runs.
``reset_global_counters()`` rewinds every such counter to its import-
time value; call it immediately before building each cluster that must
be comparable.  (It must not be called while a cluster is live: ids
would collide.)
"""

from __future__ import annotations

import itertools

__all__ = ["reset_global_counters"]


def reset_global_counters() -> None:
    """Rewind all process-global id counters to their import-time state."""
    from .verbs import device as _device
    from .verbs.wr import RecvWR, SendWR
    from .verbs.cq import CompletionQueue
    from .core import api as _api
    from .core import lmr as _lmr
    from .core.kernel import LiteKernel
    from .core.rpc import RpcEngine
    from .net import tcpip as _tcpip
    from .baselines import farm as _farm
    from .apps.dsm.graphdsm import LiteGraphDsm
    from .apps.graph import powergraph as _powergraph
    from .apps.graph.litegraph import LiteGraph
    from .apps.mapreduce import hadoopsim as _hadoopsim
    from .apps.mapreduce.lite_mr import LiteMR

    _device._key_counter = itertools.count(start=1000)
    _device._qpn_counter = itertools.count(start=1)
    _device._pd_counter = itertools.count(start=1)
    SendWR._next_id = 0
    RecvWR._next_id = 0
    CompletionQueue._next_id = 0
    LiteKernel._token_counter = itertools.count(start=1)
    RpcEngine._token_counter = itertools.count(start=1)
    _api._anon_counter = itertools.count(start=1)
    _api._session_counter = itertools.count(start=1)
    _lmr._lmr_counter = itertools.count(start=1)
    _lmr._lh_counter = itertools.count(start=1)
    _tcpip._conn_counter = itertools.count(start=1)
    _farm._ring_counter = itertools.count(start=1)
    _powergraph._port_counter = itertools.count(start=30000)
    _hadoopsim._port_counter = itertools.count(start=20000)
    # Job names (``mrjob10``) travel in control messages too.
    LiteMR._job_counter = 0
    LiteGraph._job_counter = 0
    LiteGraphDsm._job_counter = 0
