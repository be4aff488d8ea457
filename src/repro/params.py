"""Calibrated cycle-cost parameters for the XPC reproduction.

Every latency constant used anywhere in the simulator lives here, in one
dataclass, so that calibration against the paper's measurements (Table 1,
Table 3, Figure 5) is auditable in a single place and ablations can tweak a
copy without touching module code.

The defaults reproduce the paper's numbers on the siFive Freedom U500 /
RocketChip FPGA platform:

* seL4 fast-path phases (paper Table 1): trap 107, IPC logic 212, process
  switch 146, restore 199 — 664 cycles for a 0-byte one-way call.
* Message copy: 4 KB shared-memory transfer costs 4010 cycles, i.e. roughly
  0.98 cycles/byte plus a small setup cost.
* XPC instructions (paper Table 3): xcall 18, xret 23, swapseg 11 cycles.
* XPC optimization ladder (paper Figure 5): full-context trampoline 76,
  partial-context trampoline 15, TLB flush/miss penalty 40, non-blocking
  link stack saves 16, engine-cache prefetch saves 12; the fully optimized
  one-way IPC is 21 cycles of which the xcall proper is 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict


@dataclass
class CycleParams:
    """All cycle-cost constants, calibrated to the paper's FPGA platform."""

    # ------------------------------------------------------------------
    # Generic memory hierarchy (RocketChip-like in-order core).
    # ------------------------------------------------------------------
    l1_hit: int = 2                 # L1 D-cache hit latency
    l2_hit: int = 13                # L2 hit latency
    dram_access: int = 80           # DRAM access latency
    cache_line_bytes: int = 64
    page_walk_per_level: int = 25   # one memory access per radix level
    # The untagged-TLB switch penalty (paper §5.2: RocketChip has no
    # tagged TLB, so every address-space switch flushes).  40 is the
    # paper's Fig. 5 "+Tagged TLB" step (89 -> 49): the whole flush and
    # refill cost, charged once per switch rather than per refill.
    tlb_flush: int = 40
    asid_switch: int = 0            # tagged-TLB switch (free in Fig. 5)

    # Bulk data movement (load+store streaming through the cache).
    # Calibrated from paper Table 1: 4 KB transfer = 4010 cycles.  Very
    # large copies (beyond the L2) run in the DRAM-bandwidth regime,
    # calibrated from Figure 9(b)'s 32 MB ashmem latencies.
    copy_setup: int = 16
    copy_per_byte: float = 0.975
    copy_per_byte_bulk: float = 0.45
    copy_bulk_threshold: int = 64 * 1024
    # Producing a message directly into a relay segment is not a copy,
    # but writing the window still allocates cache lines; calibrated
    # from Figure 6's mild growth of seL4-XPC latency with size.
    relay_fill_per_byte: float = 0.04

    # ------------------------------------------------------------------
    # Kernel-entry costs (seL4-like fast path, paper Table 1).
    # ------------------------------------------------------------------
    trap_enter: int = 107           # syscall trap + kernel context
    trap_restore: int = 199         # restore callee context + sret
    ipc_logic: int = 212            # capability fetch + checks + IPC logic
    process_switch: int = 146       # dequeue callee, reply cap, AS switch
    # Extra per-phase cost when a 4 KB message rides along (Table 1 col 2):
    # trap 110, logic 216, switch 211, restore 257.
    phase_4k_extra: Dict[str, int] = field(
        default_factory=lambda: {
            "trap": 3, "ipc_logic": 4, "process_switch": 65, "restore": 58,
        }
    )

    # Slow path (scheduling + interrupts allowed).  A 64 B message IPC
    # measures 2182 cycles in the paper; the surcharge below plus the
    # scheduler costs (block/enqueue/pick/switch) reproduce that.
    slowpath_extra: int = 450

    # Cross-core IPC: IPI + remote wakeup + cache-line bouncing.
    ipi_cost: int = 1200
    remote_wakeup: int = 2500
    cacheline_transfer: int = 45

    # Scheduler (used by the Zircon model and seL4 slow path).
    sched_enqueue: int = 120
    sched_block: int = 120          # tombstone a queued thread (O(1))
    sched_pick: int = 260
    context_switch: int = 450       # full register file + kernel stacks

    # ------------------------------------------------------------------
    # Zircon-like channel IPC (paper §1: "tens of thousands of cycles for
    # one round-trip IPC"; §5.2: does not optimize scheduling on the IPC
    # path, kernel twofold copy).
    # ------------------------------------------------------------------
    zircon_syscall: int = 540       # channel_write/read syscall overhead
    zircon_port_wait: int = 4100    # port wait + wakeup machinery
    zircon_handle_check: int = 380  # handle table validation

    # ------------------------------------------------------------------
    # XPC engine (paper Tables 2 & 3, Figure 5).
    # ------------------------------------------------------------------
    xcall_base: int = 18            # paper Table 3
    xret_base: int = 23
    swapseg: int = 11
    xcall_optimized: int = 6        # Fig. 5: with nonblocking stack + cache
    cap_bitmap_check: int = 2       # bit test in cached bitmap line
    xentry_load: int = 12           # load x-entry from DRAM table
    xentry_cache_hit: int = 0       # prefetched into engine cache
    link_push: int = 16             # blocking linkage-record store
    link_push_nonblocking: int = 0  # hidden by the write buffer
    link_pop: int = 8
    segreg_check: int = 2           # xret-time relay-seg integrity compare

    # User-level trampoline (XPC library, Fig. 5 breakdown).
    trampoline_full_ctx: int = 76   # save/restore all GPRs
    trampoline_partial_ctx: int = 15  # sp/ra + callee-saved only
    cstack_switch: int = 9          # pick an idle XPC context + swap stacks

    # ------------------------------------------------------------------
    # Binder / Linux monolithic kernel (paper §4.3, Figure 9).
    # Calibrated at the paper's 100 MHz FPGA clock (100 cycles per us):
    # a 2 KB Binder-buffer transaction ≈ 378 us, Binder-XPC ≈ 8.2 us.
    # ------------------------------------------------------------------
    binder_ioctl: int = 2600        # ioctl entry + binder_thread_write
    binder_txn_logic: int = 5400    # transaction alloc, target lookup, queue
    binder_wakeup: int = 8900       # target proc wakeup + sched latency
    parcel_marshal_per_byte: float = 0.6   # framework Parcel (de)marshal
    parcel_relay_per_byte: float = 0.05    # Parcel-over-relay-seg handling
    binder_xpc_framework: int = 200 # residual framework logic per call
    copy_from_user_setup: int = 220
    copy_to_user_setup: int = 220
    ashmem_fd_xfer: int = 3400      # fd dup + ref through binder driver
    ashmem_mmap: int = 5200         # map ashmem region on first use
    page_fault: int = 900           # relay-seg lazy switch via fault (§4.3)
    cycles_per_us: int = 100        # FPGA clock for reporting Figure 9

    # ------------------------------------------------------------------
    # Asynchronous/batched XPC (repro.aio): submission/completion rings
    # inside a relay segment.  A ring op is one fixed-size record
    # read-or-write plus an index update — a couple of L1/L2 accesses;
    # arena fills ride on relay_fill_per_byte like any relay-seg
    # message production.  aio_index_reload is the recovery cost of
    # re-reading a shared index cache line from memory (stale head) and
    # also prices header setup/rewind.
    # ------------------------------------------------------------------
    aio_sqe_op: int = 10            # push or pop one submission entry
    aio_cqe_op: int = 8             # push or pop one completion entry
    aio_index_reload: int = 20      # re-fetch a shared index line

    # ------------------------------------------------------------------
    # Devices.
    # ------------------------------------------------------------------
    ramdisk_per_block: int = 350    # ramdisk block "DMA" per 512 B block
    nic_loopback_fixed: int = 600   # loopback device turnaround

    # ------------------------------------------------------------------
    # Cluster fabric (repro.cluster): cross-node RPC over a simulated
    # datacenter link.  A remote call serializes on the sending core
    # (copy_cycles of the payload + a fixed header marshal), transits
    # the wire (latency + payload bytes at link bandwidth — elapsed
    # time that delays arrival but occupies no core), and pays the NIC
    # turnaround on both ends (nic_loopback_fixed, reused).  At the
    # paper's 100 MHz clock the defaults model a ~40 us one-way
    # datacenter hop and a ~10 Gb/s link (0.8 cycles/byte at 1 B/ns).
    # ------------------------------------------------------------------
    cluster_link_latency: int = 4000     # one-way propagation + switch
    cluster_link_per_byte: float = 0.8   # wire time at link bandwidth
    cluster_rpc_header: int = 150        # fixed RPC header (de)marshal

    def rpc_wire_cycles(self, nbytes: int) -> int:
        """Elapsed wire time for one cross-node message of *nbytes*."""
        return self.cluster_link_latency + int(
            nbytes * self.cluster_link_per_byte)

    def copy_cycles(self, nbytes: int) -> int:
        """Cycles for a kernel/user memcpy of *nbytes* through the cache.

        Bytes past ``copy_bulk_threshold`` stream at DRAM bandwidth.
        """
        if nbytes <= 0:
            return 0
        cached = min(nbytes, self.copy_bulk_threshold)
        bulk = nbytes - cached
        return (self.copy_setup + int(cached * self.copy_per_byte)
                + int(bulk * self.copy_per_byte_bulk))

    def clone(self, **overrides) -> "CycleParams":
        """Return a copy with *overrides* applied (for ablations)."""
        return replace(self, **overrides)


#: Shared default parameter set (treat as read-only; clone() to modify).
DEFAULT_PARAMS = CycleParams()


# ---------------------------------------------------------------------------
# Kernel control-plane costs.
#
# These are fixed syscall-path costs (cold paths; never ablated), so they
# are module constants rather than CycleParams fields.  They live here —
# not in repro.kernel — so that the fast core (repro.fastcore), which may
# depend on nothing but this module, precomputes its tables from the same
# numbers the reference kernel charges.
# ---------------------------------------------------------------------------

#: Registration/grant are cold-path syscalls (x-entry install, cap set).
REGISTER_LOGIC = 180
GRANT_LOGIC = 90
SEG_CREATE_PER_PAGE = 12
#: Spilling one linkage record to kernel memory (§4.1 overflow trap):
#: a cacheline-ish copy plus bookkeeping.
LINK_SPILL_PER_RECORD = 18
#: Termination costs (§4.2): the lazy kill zeroes one 4 KB top-level
#: page; the eager kill reads and compares every resident linkage
#: record on every link stack.
KILL_ZAP_CYCLES = 128
LINK_SCAN_PER_RECORD = 4

#: The engine's architectural xcall floor (cap bit test + pipeline
#: redirect).  Deliberately *not* a CycleParams field: Figure 5 pins it
#: at 6 cycles as a property of the pipeline, so it stays fixed even
#: under randomized CycleParams (the Hypothesis table-staleness
#: property).  XPCEngine.xcall and the fast core's CycleTable both
#: charge this constant.
XCALL_CAPTEST_FLOOR = 6

#: ``csrw seg-mask`` — one CSR write, charged by
#: XPCEngine.write_seg_mask and the fast core's CycleTable.
SEG_MASK_WRITE = 1
