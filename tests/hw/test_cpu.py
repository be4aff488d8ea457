"""Core behaviour: translation, timed memory ops, traps, AS switches."""

import pytest

from repro.hw.cpu import Core, PrivilegeMode, TrapCause
from repro.hw.machine import Machine
from repro.hw.paging import AddressSpace, PageFault, PagePerm
from repro.params import DEFAULT_PARAMS


@pytest.fixture
def machine():
    return Machine(cores=1, mem_bytes=64 * 1024 * 1024, xpc=False)


@pytest.fixture
def core(machine):
    return machine.core0


@pytest.fixture
def aspace(machine, core):
    aspace = AddressSpace(machine.memory)
    core.set_address_space(aspace, charge=False)
    return aspace


def test_mem_roundtrip(core, aspace):
    va = aspace.mmap(8192)
    core.mem_write(va, b"state of the art")
    assert core.mem_read(va, 16) == b"state of the art"


def test_access_charges_cycles(core, aspace):
    va = aspace.mmap(4096)
    before = core.cycles
    core.mem_write(va, b"x" * 64)
    assert core.cycles > before


def test_permission_fault(core, aspace):
    va = aspace.mmap(4096, PagePerm.R)
    with pytest.raises(PageFault):
        core.mem_write(va, b"nope")


def test_unmapped_fault(core, aspace):
    with pytest.raises(PageFault):
        core.mem_read(0xDEAD0000, 4)


def test_no_address_space_fault(machine):
    core = machine.core0
    with pytest.raises(PageFault):
        core.mem_read(0x1000, 4)


def test_every_paged_access_walks():
    """The TLB holds no entries: each repeat of a load outside the
    relay-seg window walks the three radix levels again and counts one
    miss."""
    machine = Machine(cores=1, mem_bytes=64 * 1024 * 1024)
    core = machine.core0
    aspace = AddressSpace(machine.memory)
    core.set_address_space(aspace, charge=False)
    va = aspace.mmap(4096)
    for _ in range(3):
        misses, before = core.tlb.stats.misses, core.cycles
        core.translate(va, PagePerm.R)
        assert core.tlb.stats.misses == misses + 1
        assert (core.cycles - before
                == 3 * DEFAULT_PARAMS.page_walk_per_level)


def test_untagged_switch_flushes_and_charges(machine, core):
    a = AddressSpace(machine.memory)
    b = AddressSpace(machine.memory)
    core.set_address_space(a, charge=False)
    va = a.mmap(4096)
    core.mem_read(va, 8)
    before = core.cycles
    core.set_address_space(b)
    assert core.cycles - before == DEFAULT_PARAMS.tlb_flush
    assert core.tlb.stats.flushes >= 1


def test_tagged_switch_is_cheap():
    machine = Machine(cores=1, mem_bytes=64 * 1024 * 1024,
                      tagged_tlb=True, xpc=False)
    core = machine.core0
    a = AddressSpace(machine.memory)
    b = AddressSpace(machine.memory)
    core.set_address_space(a, charge=False)
    before = core.cycles
    core.set_address_space(b)
    assert core.cycles - before == DEFAULT_PARAMS.asid_switch


def test_switch_to_same_space_free(machine, core):
    a = AddressSpace(machine.memory)
    core.set_address_space(a, charge=False)
    before = core.cycles
    core.set_address_space(a)
    assert core.cycles == before


def test_trap_roundtrip_costs_match_table1(core):
    before = core.cycles
    core.trap(TrapCause.SYSCALL)
    assert core.mode is PrivilegeMode.SUPERVISOR
    core.trap_return()
    assert core.mode is PrivilegeMode.USER
    assert (core.cycles - before
            == DEFAULT_PARAMS.trap_enter + DEFAULT_PARAMS.trap_restore)


def test_cannot_rewind_clock(core):
    with pytest.raises(ValueError):
        core.tick(-1)


def test_cross_page_read(core, aspace):
    va = aspace.mmap(3 * 4096)
    blob = bytes(range(256)) * 20
    core.mem_write(va + 4000, blob)
    assert core.mem_read(va + 4000, len(blob)) == blob
