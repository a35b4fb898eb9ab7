"""Kernel TCP/IP over InfiniBand (IPoIB) — the non-RDMA baseline stack.

Models the path the paper's TCP/IP comparison points exercise (qperf
over IPoIB, Hadoop, PowerGraph): syscalls, user/kernel copies, kernel
TCP segment processing, softirq receive, and thread wakeups.  Payload
bytes are real; the per-connection throughput ceiling comes from the
kernel per-segment processing pipeline, matching measured IPoIB numbers
(well under the 40 Gbps link).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..sim import Resource, Simulator, Store

__all__ = ["TcpStack", "TcpConnection", "TcpListener"]


class _Stream:
    """One direction of a TCP byte stream with blocking reads."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.buffer = bytearray()
        self._waiters = []  # (nbytes, event)

    def deliver(self, data: bytes) -> None:
        """Kernel side: append received bytes, wake satisfied readers."""
        self.buffer.extend(data)
        self._wake()

    def _wake(self) -> None:
        still_waiting = []
        for nbytes, event in self._waiters:
            if len(self.buffer) >= nbytes and not event.triggered:
                chunk = bytes(self.buffer[:nbytes])
                del self.buffer[:nbytes]
                event.succeed(chunk)
            else:
                still_waiting.append((nbytes, event))
        self._waiters = still_waiting

    def read_exact(self, nbytes: int):
        """Event yielding exactly ``nbytes`` once buffered."""
        event = self.sim.event()
        if len(self.buffer) >= nbytes:
            chunk = bytes(self.buffer[:nbytes])
            del self.buffer[:nbytes]
            event.succeed(chunk)
        else:
            self._waiters.append((nbytes, event))
        return event


class TcpConnection:
    """An established socket; symmetric endpoints on two nodes."""

    def __init__(self, stack: "TcpStack", peer_node: int, conn_id: int):
        self.stack = stack
        self.sim = stack.sim
        self.peer_node = peer_node
        self.conn_id = conn_id
        self.inbound = _Stream(self.sim)
        self.peer: Optional["TcpConnection"] = None
        self.bytes_sent = 0
        self.bytes_received = 0
        # Socket send buffer: send(2) blocks once this much data is
        # in flight (unacked), the usual wmem_default-ish 256 KB.
        self.sndbuf_bytes = 256 * 1024
        self._inflight = 0
        self._buffer_waiters = []

    # -- data plane -----------------------------------------------------
    def send(self, data: bytes):
        """Blocking send(2): returns once the kernel accepted the bytes.

        Delivery to the peer's stream continues asynchronously (the
        kernel drains the socket buffer), which matches BSD semantics.
        """
        params = self.stack.params
        cpu = self.stack.node.cpu
        # Syscall entry + copy_from_user.
        yield from cpu.execute(
            params.syscall_total_naive_us + len(data) / params.tcp_copy_bytes_per_us,
            tag="tcp-tx",
        )
        # Admit segment by segment, blocking on socket-buffer space
        # (send(2) backpressure once sndbuf of data is unacked).
        segment_bytes = params.tcp_segment_bytes
        offset = 0
        total = len(data)
        while True:
            segment = bytes(data[offset : offset + segment_bytes])
            seg_len = max(len(segment), 1)
            while self._inflight + seg_len > self.sndbuf_bytes:
                gate = self.sim.event()
                self._buffer_waiters.append(gate)
                yield gate
            self._inflight += seg_len
            self.bytes_sent += len(segment)
            self.sim.process(self._transmit_segment(segment), name="tcp-seg")
            offset += seg_len
            if offset >= total:
                break

    def _transmit_segment(self, segment: bytes):
        params = self.stack.params
        seg_len = max(len(segment), 1)
        # Kernel TCP/IP per-segment processing (tx side), serialized
        # per stack: this is the single-stream bandwidth ceiling.
        yield self.stack._tx_pipe.request()
        try:
            stack_cost = (
                params.tcp_stack_tx_us + seg_len / params.tcp_bandwidth_bytes_per_us
            )
            yield self.sim.timeout(stack_cost)
            self.stack.node.cpu.charge("tcp-tx", stack_cost)
        finally:
            self.stack._tx_pipe.release()
        # Wire flight and receive-side processing overlap with the next
        # segment's stack processing; FIFO link arbitration keeps order.
        yield from self._fly(segment)

    def _fly(self, segment: bytes):
        fabric = self.stack.node.fabric
        src = self.stack.node.node_id
        yield from fabric.transfer(src, self.peer_node, max(len(segment), 1) + 78)
        peer = self.peer
        if peer is not None:
            yield from peer._receive_segment(segment)
        # Delivery acks the bytes: free socket-buffer space.
        self._inflight -= max(len(segment), 1)
        while self._buffer_waiters and self._inflight < self.sndbuf_bytes:
            self._buffer_waiters.pop(0).succeed()

    def _receive_segment(self, segment: bytes):
        params = self.stack.params
        cost = params.tcp_stack_rx_us + params.tcp_per_segment_us
        yield self.sim.timeout(cost)
        self.stack.node.cpu.charge("tcp-rx", cost)
        self.bytes_received += len(segment)
        self.inbound.deliver(segment)

    def recv_exact(self, nbytes: int):
        """Blocking recv(2) loop until exactly ``nbytes`` arrived."""
        params = self.stack.params
        cpu = self.stack.node.cpu
        data = yield from cpu.sleep_wait(self.inbound.read_exact(nbytes), tag="tcp-rx")
        # Syscall + copy_to_user.
        yield from cpu.execute(
            params.syscall_total_naive_us + nbytes / params.tcp_copy_bytes_per_us,
            tag="tcp-rx",
        )
        return data

    # -- framed convenience (length-prefixed messages) ---------------------
    def send_msg(self, payload: bytes):
        """Length-prefixed framed send (generator)."""
        header = len(payload).to_bytes(4, "little")
        yield from self.send(header + payload)

    def recv_msg(self):
        """Receive one length-prefixed message (generator)."""
        header = yield from self.recv_exact(4)
        length = int.from_bytes(header, "little")
        payload = yield from self.recv_exact(length)
        return payload


class TcpListener:
    """A listening socket: accept() blocks for inbound connections."""

    def __init__(self, stack: "TcpStack", port: int):
        self.stack = stack
        self.port = port
        self._backlog = Store(stack.sim)

    def accept(self):
        """Block for the next inbound connection (generator)."""
        conn = yield self._backlog.get()
        return conn


class TcpStack:
    """Per-node kernel TCP/IP stack."""

    def __init__(self, node):
        self.node = node
        self.sim = node.sim
        self.params = node.params
        self._listeners: Dict[int, TcpListener] = {}
        # Single tx pipeline per stack: kernel TCP processing is the
        # bottleneck well before the IB link for IPoIB.
        self._tx_pipe = Resource(self.sim, capacity=1)

    def listen(self, port: int) -> TcpListener:
        """Open a listening socket on ``port``."""
        if port in self._listeners:
            raise ValueError(f"port {port} already listening on node {self.node.node_id}")
        listener = TcpListener(self, port)
        self._listeners[port] = listener
        return listener

    def connect(self, dst_node: int, port: int):
        """Active open: 3-way handshake (1.5 RTT), returns connection."""
        fabric = self.node.fabric
        peer_node = fabric.nodes.get(dst_node)
        if peer_node is None:
            raise ValueError(f"no such node {dst_node}")
        peer_stack: TcpStack = peer_node.tcp
        listener = peer_stack._listeners.get(port)
        if listener is None:
            raise ConnectionRefusedError(
                f"node {dst_node} is not listening on port {port}"
            )
        conn_id = next(self.sim.ids.tcp_conn)
        local = TcpConnection(self, dst_node, conn_id)
        remote = TcpConnection(peer_stack, self.node.node_id, conn_id)
        local.peer, remote.peer = remote, local
        # SYN, SYN-ACK, ACK.
        for direction in range(3):
            src, dst = (
                (self.node.node_id, dst_node)
                if direction % 2 == 0
                else (dst_node, self.node.node_id)
            )
            yield from fabric.transfer(src, dst, 78)
            yield self.sim.timeout(self.params.tcp_per_segment_us)
        listener._backlog.put(remote)
        return local
