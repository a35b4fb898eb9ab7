"""A cluster node: CPUs + DRAM + RNIC + fabric port (+ lazy stacks).

Mirrors the paper's testbed machine: two Xeon E5-2620 (12 cores),
128 GB DRAM, one 40 Gbps ConnectX-3.
"""

from __future__ import annotations

from ..hw import CpuSet, Fabric, HostMemory, Rnic, SimParams
from ..sim import Simulator

__all__ = ["Node"]


class Node:
    """One simulated machine attached to the fabric."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        params: SimParams,
        fabric: Fabric,
        dram_bytes: int = 128 * 1024 * 1024 * 1024,
    ):
        self.sim = sim
        self.node_id = node_id
        self.params = params
        self.fabric = fabric
        self.memory = HostMemory(node_id, capacity=dram_bytes)
        self.cpu = CpuSet(sim, params, node_id=node_id)
        self.rnic = Rnic(sim, node_id, params)
        self.port = fabric.attach(node_id)
        fabric.nodes[node_id] = self
        # Set by the fault injector while the node is failed (fail-stop:
        # its link is down and peers cannot reach it).
        self.crashed = False
        # Lazily-created protocol stacks, one each per node.
        self._verbs_device = None
        self._tcp_stack = None
        self._lite = None

    @property
    def device(self):
        """The node's Verbs device (created on first use)."""
        if self._verbs_device is None:
            from ..verbs.device import Device

            self._verbs_device = Device(self)
        return self._verbs_device

    @property
    def tcp(self):
        """The node's kernel TCP/IP (IPoIB) stack."""
        if self._tcp_stack is None:
            from ..net.tcpip import TcpStack

            self._tcp_stack = TcpStack(self)
        return self._tcp_stack

    @property
    def lite(self):
        """The node's LITE kernel instance, or None before LT_join."""
        return self._lite

    def install_lite(self, lite) -> None:
        """Attach the node's LITE kernel instance (once)."""
        if self._lite is not None:
            raise RuntimeError(f"node {self.node_id} already runs LITE")
        self._lite = lite

    def __repr__(self) -> str:
        return f"Node({self.node_id})"
