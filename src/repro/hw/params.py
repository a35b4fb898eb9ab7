"""Calibrated hardware/OS cost model.

All constants are derived from numbers the LITE paper itself reports
(SOSP '17, §4–§8) plus public ConnectX-3 / InfiniBand FDR specs.  The
DESIGN.md "Calibration constants" section records the provenance of each
value.  Times are microseconds, sizes are bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

__all__ = ["SimParams", "Prices", "DEFAULT_PARAMS"]

KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024
PAGE_SIZE = 4096


@dataclass
class SimParams:
    """Every tunable cost in the simulated testbed.

    The defaults model the paper's cluster: 2× Xeon E5-2620 (6 cores
    each), 128 GB DRAM, one 40 Gbps Mellanox ConnectX-3, one 40 Gbps IB
    switch.
    """

    # ---- fabric -----------------------------------------------------
    link_bandwidth_bytes_per_us: float = 5000.0  # 40 Gbps = 5 GB/s
    link_propagation_us: float = 0.05            # cable + PHY
    switch_latency_us: float = 0.15              # single-hop cut-through

    # ---- RNIC pipeline ----------------------------------------------
    rnic_processing_units: int = 2               # parallel WQE engines
    rnic_wqe_process_us: float = 0.10            # per work request
    rnic_doorbell_us: float = 0.15               # MMIO post over PCIe
    rnic_dma_setup_us: float = 0.15              # PCIe DMA start cost
    rnic_dma_bytes_per_us: float = 10000.0        # PCIe 3.0 x8 effective
    rnic_completion_us: float = 0.05             # CQE write-back
    rnic_ack_us: float = 0.15                    # RC ACK turnaround
    rnic_ud_header_bytes: int = 40               # GRH per UD packet

    # ---- RNIC SRAM (the scalability bottleneck, paper §2.4) ---------
    mr_key_cache_entries: int = 128              # Fig 4: knee ~100 MRs
    mr_key_miss_penalty_us: float = 1.3          # fetch MR record via DMA
    pte_cache_entries: int = 1024                # ×4 KB pages = 4 MB reach
    pte_miss_penalty_us: float = 0.9             # Fig 5: knee at 4 MB
    qp_cache_entries: int = 256                  # QP-state SRAM slots
    qp_miss_penalty_us: float = 0.6

    # ---- host memory / kernel ---------------------------------------
    page_size: int = PAGE_SIZE
    mr_register_base_us: float = 1.8             # ibv_reg_mr fixed cost
    mr_pin_page_us: float = 0.38                 # get_user_pages per page
    mr_unpin_page_us: float = 0.16               # put_page per page
    mr_deregister_base_us: float = 1.0
    malloc_base_us: float = 1.2                  # kernel buddy/slab alloc
    malloc_per_mb_us: float = 0.8                # zeroing amortized
    memcpy_bytes_per_us: float = 20000.0         # single-core DRAM copy
    memset_bytes_per_us: float = 30000.0

    # ---- syscall / crossing model (paper §5.2) ----------------------
    syscall_total_naive_us: float = 0.30         # trap + return
    lite_syscall_enter_us: float = 0.12          # optimized LITE entry
    lite_sharedpage_return_us: float = 0.05      # library sees ready flag

    # ---- CPU ---------------------------------------------------------
    cores_per_node: int = 12                     # 2× 6-core E5-2620
    poll_loop_us: float = 0.08                   # one busy-poll iteration
    thread_wakeup_us: float = 1.8                # sleep->run transition
    adaptive_busy_window_us: float = 10.0        # busy-check before sleep

    # ---- LITE internals ----------------------------------------------
    lite_metadata_us: float = 0.25               # map+perm check (§5.3)
    lite_recv_stack_us: float = 0.30             # LT_recvRPC kernel path
    lite_reply_stack_us: float = 0.20            # LT_replyRPC kernel path
    lite_chunk_bytes: int = 4 * MB               # max physically-contig LMR chunk
    lite_rpc_ring_bytes: int = 16 * MB           # per-client RPC ring LMR
    lite_qp_factor_k: int = 2                    # K in K×N shared QPs
    lite_qp_window: int = 16                     # outstanding ops per QP
    # Data-plane batching knobs (§5.2 amortization).  Both default to 1,
    # which reproduces the seed's unbatched timing exactly: one doorbell
    # MMIO per work request and one poll/dispatch charge per completion.
    doorbell_batch: int = 1                      # WQEs posted per doorbell
    cq_poll_batch: int = 1                       # CQEs drained per poll wakeup
    lite_ctrl_slots: int = 256                   # pre-posted control recvs
    lite_ctrl_slot_bytes: int = 4096

    # ---- failure handling (transport + LITE fault tolerance) ---------
    # IB qp_attr knobs: local ACK timeout per retransmit attempt, retry
    # budget, and receiver-not-ready policy (rnr_retry=7 means "retry
    # forever", the IB spec sentinel and the common datacenter setting).
    qp_timeout_us: float = 500.0                 # ACK timeout per attempt
    qp_retry_cnt: int = 7                        # transport retries (RC)
    qp_rnr_retry: int = 7                        # 7 = infinite (IB spec)
    qp_rnr_timer_us: float = 100.0               # wait between RNR retries
    # LITE-level retry/timeout policy (applies when fault tolerance is
    # enabled; 0 timeouts keep the seed's wait-forever behavior).
    lite_retry_cnt: int = 3                      # LITE-level op retries
    lite_retry_backoff_us: float = 500.0         # base exponential backoff
    lite_retry_backoff_cap_us: float = 8000.0    # backoff ceiling
    lite_ctrl_timeout_us: float = 4000.0         # ctrl RPC round trip bound
    lite_ctrl_retries: int = 3                   # ctrl-plane resend budget
    lite_keepalive_interval_us: float = 0.0      # 0 = keepalive off
    lite_keepalive_miss_limit: int = 3           # misses before dead

    # ---- TCP/IP over IB (IPoIB) --------------------------------------
    tcp_stack_tx_us: float = 6.0                 # per-send kernel TCP path
    tcp_stack_rx_us: float = 7.0                 # per-recv incl. softirq
    tcp_per_segment_us: float = 1.1              # seg processing both ends
    tcp_segment_bytes: int = 65536 - 120         # IPoIB-UD MTU minus hdrs
    tcp_bandwidth_bytes_per_us: float = 2600.0   # qperf-measured IPoIB ceiling
    tcp_copy_bytes_per_us: float = 12000.0       # user<->kernel copies

    # ---- RDMA-CM ------------------------------------------------------
    rdma_cm_overhead_us: float = 0.12            # event-channel bookkeeping

    # ---- control plane: QP bring-up & pooling (§2.4, KRCORE direction)
    # The collapsed RTS state machine hides the RESET->INIT->RTR->RTS
    # ladder from the failure model, not its cost: the control plane
    # pays one ibv_create_qp kernel call plus three ibv_modify_qp hops
    # per endpoint when it sets a connection up for real.
    qp_create_us: float = 12.0                   # ibv_create_qp kernel path
    qp_transition_us: float = 3.0                # one ibv_modify_qp state hop
    lite_qp_pool_reserve: int = 0                # prebuilt leasable conns per peer
    lite_qp_pool_cap: int = 8                    # max parked conns per pool
    lite_qp_lease_ttl_us: float = 2000.0         # QP-lease TTL (recovery cadence)

    def __post_init__(self):
        object.__setattr__(self, "prices", Prices(self))

    def __setattr__(self, name, value):
        # Every field assignment (including the ones dataclass __init__
        # makes) bumps a monotonic version, which fast-path cost tables
        # key on, and, once built, rebuilds the price list.  Private
        # names are bookkeeping, not cost inputs.  (No ``__getattr__``
        # here: it would unspecialise every field load on 3.11.)
        object.__setattr__(self, name, value)
        if not name.startswith("_"):
            state = self.__dict__
            object.__setattr__(self, "_version", state.get("_version", 0) + 1)
            if "prices" in state:
                object.__setattr__(self, "prices", Prices(self))

    def __getstate__(self):
        # Pickles and copies carry the knobs; the price list is rebuilt.
        return {k: v for k, v in self.__dict__.items() if k != "prices"}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.__post_init__()

    def pages_touched(self, offset: int, nbytes: int) -> int:
        """Number of 4 KB pages an access of ``nbytes`` at ``offset`` spans."""
        if nbytes <= 0:
            return 0
        first = offset // self.page_size
        last = (offset + nbytes - 1) // self.page_size
        return last - first + 1

    def copy(self, **overrides) -> "SimParams":
        """A new parameter set with ``overrides`` applied."""
        return replace(self, **overrides)


class Prices:
    """The §5.3 stage durations of one ``SimParams`` (``params.prices``,
    rebuilt after any field assignment).  The generator path, the fast
    path's commit and ``explain()`` read stage prices here and nowhere
    else, so they agree by construction."""

    __slots__ = ("doorbell", "wqe", "completion", "ack", "prop",
                 "dma_setup", "ud_header", "ser", "dma", "occupancy",
                 "_link_prop")

    def __init__(self, params: SimParams):
        self.doorbell = params.rnic_doorbell_us       # MMIO post over PCIe
        self.wqe = wqe = params.rnic_wqe_process_us   # RNIC pipeline pass
        self.completion = params.rnic_completion_us   # CQE write-back
        self.ack = params.rnic_ack_us                 # RC ACK turnaround
        # Both links' propagation plus the switch, once per fabric hop.
        self.prop = 2 * params.link_propagation_us + params.switch_latency_us
        self.dma_setup = setup = params.rnic_dma_setup_us
        self.ud_header = params.rnic_ud_header_bytes
        self._link_prop = params.link_propagation_us
        link_bw = params.link_bandwidth_bytes_per_us
        dma_bw = params.rnic_dma_bytes_per_us
        # Per-size memos, bounded: ser(wire bytes) on one link, and
        # dma(bytes) over PCIe with its setup included.
        self.ser = lru_cache(512)(lambda nbytes: nbytes / link_bw)
        self.dma = dma = lru_cache(512)(lambda nbytes: setup + nbytes / dma_bw)

        def occupancy(extra: float, dma_bytes: int) -> float:
            # One RNIC pipeline pass in the goldens' add order; all-hit
            # SRAM lookups make ``extra`` exactly 0.0 (``x + 0.0 == x``).
            duration = wqe + extra
            return duration + dma(dma_bytes) if dma_bytes else duration

        self.occupancy = lru_cache(1024)(occupancy)

    def loopback(self, nbytes: int) -> float:
        """A loopback transfer: serialization plus one link's propagation."""
        return self.ser(nbytes) + self._link_prop


DEFAULT_PARAMS = SimParams()
