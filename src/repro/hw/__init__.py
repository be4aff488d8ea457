"""Hardware substrate: physical memory, paging, TLB, caches, cores.

This package models the machine the XPC engine plugs into — a RocketChip-like
in-order RISC-V multicore — at functional + cycle-accounting fidelity.  Data
really lives in a ``bytearray`` physical memory and flows through real page
tables; the TLB is a tagged/untagged charge policy; latencies come from
:class:`repro.params.CycleParams`.
"""

from repro.hw.memory import PhysicalMemory, FrameAllocator, OutOfMemoryError
from repro.hw.paging import PageTable, AddressSpace, PagePerm, PageFault
from repro.hw.cpu import Core, PrivilegeMode, TrapCause
from repro.hw.machine import Machine

__all__ = [
    "PhysicalMemory", "FrameAllocator", "OutOfMemoryError",
    "PageTable", "AddressSpace", "PagePerm", "PageFault",
    "Core", "PrivilegeMode", "TrapCause", "Machine",
]
