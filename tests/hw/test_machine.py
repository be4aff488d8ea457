"""Machine construction and wiring."""

import pytest

from repro.hw.machine import Machine
from repro.params import CycleParams
from repro.xpc.engine import XPCConfig


def test_default_machine_has_engines_per_core():
    machine = Machine(cores=4, mem_bytes=64 * 1024 * 1024)
    assert len(machine.cores) == len(machine.engines) == 4
    for core, engine in zip(machine.cores, machine.engines):
        assert core.xpc_engine is engine
        assert engine.core is core


def test_engines_share_one_xentry_table():
    machine = Machine(cores=2, mem_bytes=64 * 1024 * 1024)
    assert machine.engines[0].table is machine.engines[1].table
    assert machine.engines[0].table is machine.xentry_table


def test_machine_without_xpc():
    machine = Machine(cores=2, mem_bytes=64 * 1024 * 1024, xpc=False)
    assert machine.engines == []
    assert machine.xentry_table is None
    assert all(core.xpc_engine is None for core in machine.cores)


def test_shared_l2_between_cores():
    machine = Machine(cores=2, mem_bytes=64 * 1024 * 1024)
    assert (machine.cores[0].cache.l2
            is machine.cores[1].cache.l2)
    # ...but private L1s.
    assert (machine.cores[0].cache.l1
            is not machine.cores[1].cache.l1)


def test_custom_params_propagate():
    params = CycleParams().clone(tlb_flush=7)
    machine = Machine(cores=1, mem_bytes=64 * 1024 * 1024,
                      params=params)
    assert machine.core0.params.tlb_flush == 7


def test_xpc_config_propagates():
    machine = Machine(cores=2, mem_bytes=64 * 1024 * 1024,
                      xpc_config=XPCConfig(engine_cache=True))
    assert all(e.cache is not None for e in machine.engines)


def test_total_cycles_sums_cores():
    machine = Machine(cores=3, mem_bytes=64 * 1024 * 1024)
    machine.cores[0].tick(5)
    machine.cores[2].tick(7)
    assert machine.total_cycles() == 12


def test_zero_cores_rejected():
    with pytest.raises(ValueError):
        Machine(cores=0)


def test_tagged_tlb_machines():
    machine = Machine(cores=1, mem_bytes=64 * 1024 * 1024,
                      tagged_tlb=True)
    assert machine.core0.tlb.tagged
