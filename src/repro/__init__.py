"""LITE: Kernel RDMA Support for Datacenter Applications — reproduction.

A calibrated discrete-event reproduction of Tsai & Zhang, SOSP 2017
(DOI 10.1145/3132747.3132762).  Start with :func:`repro.core.lite_boot`
on a :class:`repro.cluster.Cluster`; see README.md and docs/API.md.
"""

from .cluster import Cluster, ClusterManager, Node
from .fault import FaultInjector, FaultPlan
from .core import (
    LiteContext,
    LiteError,
    LiteKernel,
    Permission,
    lite_boot,
    rpc_server_loop,
)
from .hw import DEFAULT_PARAMS, SimParams
from .verbs.explain import explain
from .obs import (
    MetricsRegistry,
    Tracer,
    install_tracer,
    set_enabled,
    uninstall_tracer,
)

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "ClusterManager",
    "Node",
    "LiteKernel",
    "LiteContext",
    "LiteError",
    "Permission",
    "lite_boot",
    "rpc_server_loop",
    "SimParams",
    "DEFAULT_PARAMS",
    "explain",
    "FaultPlan",
    "FaultInjector",
    "Tracer",
    "MetricsRegistry",
    "install_tracer",
    "uninstall_tracer",
    "set_enabled",
    "__version__",
]
