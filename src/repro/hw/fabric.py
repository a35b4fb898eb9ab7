"""The InfiniBand fabric: one 40 Gbps switch, one link per node.

Transfers model cut-through switching: a message occupies the sender's
egress link and the receiver's ingress link for its serialization time
(enforcing the 5 GB/s ceiling at both endpoints and under incast), and
additionally pays the fixed propagation + switch latency.

Failure model: each port carries an ``up`` flag, and the fabric accepts
an optional ``fault`` hook (see :mod:`repro.fault`) consulted once per
non-loopback transfer.  A transfer that crosses a downed link or is
selected for loss still pays its serialization + propagation time (the
bytes leave the sender and die in the fabric, exactly like a packet
blackholed at a dead port) and then raises :class:`TransferDropped`, so
transport layers above can model IB retransmission timers.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..sim import FairResource, Simulator
from .params import SimParams

__all__ = ["Port", "Fabric", "FabricError", "TransferDropped", "LinkDownError"]


class FabricError(ValueError):
    """Invalid use of the fabric API (unknown node, bad size, ...)."""


class TransferDropped(Exception):
    """The fabric dropped this transfer (loss window or corrupted frame).

    Corruption is folded into loss: on real IB the ICRC check discards a
    corrupted packet at the receiver, which the sender observes exactly
    as loss.
    """


class LinkDownError(TransferDropped):
    """The transfer crossed a link that is administratively/physically down."""


class Port:
    """A node's full-duplex link: independent TX and RX channels."""

    def __init__(self, sim: Simulator, node_id: int):
        self.node_id = node_id
        # Fair per-flow (per-QP) arbitration, like the NIC's QP scheduler.
        self.tx = FairResource(sim, capacity=1)
        self.rx = FairResource(sim, capacity=1)
        self.tx_bytes = 0
        self.rx_bytes = 0
        self.up = True

    def idle(self) -> bool:
        """True when neither channel is occupied (fast-path entry gate)."""
        return not (self.tx.in_use or self.rx.in_use)


class Fabric:
    """Single-switch network connecting all cluster nodes."""

    def __init__(self, sim: Simulator, params: SimParams):
        self.sim = sim
        self.params = params
        self.ports: Dict[int, Port] = {}
        # Node objects register themselves here so protocol stacks can
        # reach their peers (the simulation equivalent of "the wire knows
        # where everyone is").
        self.nodes: Dict[int, object] = {}
        self.total_bytes = 0
        self.transfer_count = 0
        self.dropped_transfers = 0
        # Optional fault hook with a should_drop(src, dst, nbytes, flow)
        # method; None (the default) keeps the fabric on the exact
        # fault-free fast path.
        self.fault = None

    def attach(self, node_id: int) -> Port:
        """Connect a node to the switch; returns its full-duplex port."""
        if node_id in self.ports:
            raise FabricError(f"node {node_id} already attached to fabric")
        port = self.ports[node_id] = Port(self.sim, node_id)
        return port

    def detach(self, node_id: int) -> None:
        """Unplug a node's port permanently (no restart possible).

        Later transfers touching the node raise :class:`FabricError`.
        For a *recoverable* outage use :meth:`set_link_state` instead —
        QPs keep their peer references and can retry once the link
        returns.  The port is marked down first: a fast-path cost table
        that still holds it then declines, as the generator path fails.
        """
        self._require_port(node_id).up = False
        del self.ports[node_id]
        self.nodes.pop(node_id, None)

    def set_link_state(self, node_id: int, up: bool) -> None:
        """Bring a node's link up or down (both TX and RX directions)."""
        self._require_port(node_id).up = up

    def link_up(self, node_id: int) -> bool:
        """True when the node's link is attached and up."""
        port = self.ports.get(node_id)
        return port is not None and port.up

    def _require_port(self, node_id: int) -> Port:
        port = self.ports.get(node_id)
        if port is None:
            raise FabricError(f"node {node_id} is not attached to the fabric")
        return port

    def fp_path_clear(self, src_port: Port, dst_port: Port) -> bool:
        """True when a fast-path commit may model this src→dst path.

        One predicate for the vectorized/chained commits in
        ``verbs/fastpath.py``: no fault hook armed (the hook is
        consulted per transfer on the slow path, so any hook at all
        forces the generator path), both links up, and all four
        channels idle — src TX/RX and dst TX/RX, because a committed
        op holds the forward leg now and acquires the return leg
        mid-flight.
        """
        return (self.fault is None
                and src_port.up and dst_port.up
                and src_port.idle() and dst_port.idle())

    def transfer(self, src: int, dst: int, nbytes: int, flow: object = None):
        """Move ``nbytes`` from ``src`` to ``dst``; completes on arrival.

        Returns a generator; the caller resumes when the last byte has
        landed.  ``flow`` selects the arbitration bucket (QPs pass their
        QPN so backlogged flows share links fairly).  Loopback
        (src == dst) short-circuits the wire but still pays a minimal
        PCIe round through the NIC, matching how Verbs loopback behaves.

        Raises :class:`LinkDownError` / :class:`TransferDropped` after
        paying the wire time when the transfer cannot be delivered.

        Plain function (not a generator function): the tracer branch is
        taken once at call time, so the untraced hot path delegates to a
        single generator instead of nesting one inside a wrapper.
        """
        if self.sim.tracer is None:
            return self._transfer_impl(src, dst, nbytes, flow)
        return self._transfer_traced(src, dst, nbytes, flow)

    def _transfer_traced(self, src: int, dst: int, nbytes: int, flow: object):
        tracer = self.sim.tracer
        span = tracer.begin("fabric.hop", node=src, nbytes=nbytes, dst=dst)
        try:
            yield from self._transfer_impl(src, dst, nbytes, flow)
        except TransferDropped:
            tracer.end(span, outcome="dropped")
            raise
        except BaseException as exc:
            tracer.end(span, outcome="err:" + type(exc).__name__)
            raise
        tracer.end(span)

    def _transfer_impl(self, src: int, dst: int, nbytes: int, flow: object):
        ports = self.ports
        src_port = ports.get(src)
        dst_port = ports.get(dst)
        if src_port is None or dst_port is None:
            self._require_port(src)
            self._require_port(dst)
        if nbytes < 0:
            raise FabricError(f"negative transfer size: {nbytes}")
        prices = self.params.prices
        self.total_bytes += nbytes
        self.transfer_count += 1
        sim = self.sim
        if src == dst:
            if not src_port.up:
                self.dropped_transfers += 1
                raise LinkDownError(f"node {src} link is down")
            yield sim.timeout(prices.loopback(nbytes))
            src_port.tx_bytes += nbytes
            src_port.rx_bytes += nbytes
            return
        if not src_port.up:
            # The sender's own link is dead: the NIC sees it immediately,
            # nothing is serialized.
            self.dropped_transfers += 1
            raise LinkDownError(f"node {src} link is down")
        dropped = not dst_port.up
        if not dropped and self.fault is not None:
            dropped = self.fault.should_drop(src, dst, nbytes, flow)
        src_port.tx_bytes += nbytes
        serialization = prices.ser(nbytes)
        # Acquire egress then ingress (fixed order; a transfer waits on at
        # most one resource while holding the other, so no cycles).
        yield src_port.tx.request(flow)
        # fabric.serialize = TX-channel occupancy: from winning the egress
        # link until releasing it (includes any ingress-side stall, since
        # the egress link is held across it).
        tracer = sim.tracer
        ser = (tracer.begin("fabric.serialize", node=src, nbytes=nbytes)
               if tracer is not None else None)
        try:
            if dropped:
                # The frame still serializes out of the sender, then dies
                # in the fabric; it never contends for the receiver.
                yield sim.timeout(serialization)
            else:
                yield dst_port.rx.request(flow)
                try:
                    yield sim.timeout(serialization)
                finally:
                    dst_port.rx.release()
        finally:
            if ser is not None:
                tracer.end(ser)
            src_port.tx.release()
        yield sim.timeout(prices.prop)
        if dropped:
            self.dropped_transfers += 1
            if not dst_port.up:
                raise LinkDownError(f"node {dst} link is down")
            raise TransferDropped(f"transfer {src}->{dst} dropped by fault plan")
        dst_port.rx_bytes += nbytes
