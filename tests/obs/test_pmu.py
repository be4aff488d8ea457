"""PMU counter banks: snapshot / delta / reset over real workloads."""

import repro.obs as obs
from repro.hw.machine import Machine
from repro.kernel.kernel import BaseKernel
from repro.runtime.xpclib import XPCBusyError, XPCService, xpc_call

MEM = 64 * 1024 * 1024


def build_world(cores=2):
    """(machine, kernel, svc, clients) — an echo service plus one
    granted client thread per core, built while obs is active so the
    Machine/BaseKernel constructors self-register with the PMU."""
    machine = Machine(cores=cores, mem_bytes=MEM)
    kernel = BaseKernel(machine)
    server = kernel.create_process("server")
    st = kernel.create_thread(server)
    kernel.run_thread(machine.core0, st)
    svc = XPCService(kernel, machine.core0, st, lambda call: "ok")
    clients = []
    for core in machine.cores:
        proc = kernel.create_process(f"client{core.core_id}")
        thread = kernel.create_thread(proc)
        kernel.grant_xcall_cap(core, server, thread, svc.entry_id)
        kernel.run_thread(core, thread)
        clients.append(thread)
    return machine, kernel, svc, clients


def test_snapshot_has_one_bank_per_core_plus_kernel():
    with obs.active(obs.ObsSession()) as session:
        build_world(cores=2)
        snap = session.pmu.snapshot()
    assert snap.labels() == ["core0", "core1", "kernel"]
    assert snap.get("kernel", "processes.alive") == 3  # server + 2 clients


def test_xcalls_attributed_to_the_calling_core():
    with obs.active(obs.ObsSession()) as session:
        machine, kernel, svc, clients = build_world(cores=2)
        xpc_call(machine.core0, svc.entry_id)
        xpc_call(machine.cores[1], svc.entry_id)
        xpc_call(machine.cores[1], svc.entry_id)
        snap = session.pmu.snapshot()
    assert snap.get("core0", "xcall.count") == 1
    assert snap.get("core1", "xcall.count") == 2
    assert snap.total("xcall.count") == 3


def test_delta_counts_only_the_window():
    with obs.active(obs.ObsSession()) as session:
        machine, kernel, svc, clients = build_world(cores=1)
        xpc_call(machine.core0, svc.entry_id)
        before = session.pmu.snapshot()
        for _ in range(3):
            xpc_call(machine.core0, svc.entry_id)
        after = session.pmu.snapshot()
    delta = session.pmu.delta(before, after)
    assert delta.get("core0", "xcall.count") == 3
    assert delta.get("core0", "xret.count") == 3
    assert delta.get("core0", "cycles") > 0
    # Absolute snapshots still carry the full run.
    assert after.get("core0", "xcall.count") == 4


def test_level_counters_keep_the_newer_value_in_deltas():
    with obs.active(obs.ObsSession()) as session:
        machine, kernel, svc, clients = build_world(cores=1)
        before = session.pmu.snapshot()
        xpc_call(machine.core0, svc.entry_id)
        after = session.pmu.snapshot()
    delta = after - before
    # The high-watermark reached 1 mid-call; a delta of watermarks is
    # meaningless so the newer level is reported as-is.
    assert after.get("kernel", "link_stack.hwm") == 1
    assert delta.get("kernel", "link_stack.hwm") == 1


def test_reset_rebaselines_counters():
    with obs.active(obs.ObsSession()) as session:
        machine, kernel, svc, clients = build_world(cores=1)
        xpc_call(machine.core0, svc.entry_id)
        session.pmu.reset()
        zeroed = session.pmu.snapshot()
        assert zeroed.get("core0", "xcall.count") == 0
        assert zeroed.get("core0", "cycles") == 0
        xpc_call(machine.core0, svc.entry_id)
        snap = session.pmu.snapshot()
    assert snap.get("core0", "xcall.count") == 1
    assert snap.get("core0", "cycles") > 0


def test_fig5_phase_breakdown_sums_to_engine_xcall_cycles():
    """cycles.xcall.{captest,xentry,linkpush} is a complete partition
    of every cycle the engine charged for xcall."""
    with obs.active(obs.ObsSession()) as session:
        machine, kernel, svc, clients = build_world(cores=2)
        for _ in range(5):
            xpc_call(machine.core0, svc.entry_id)
        xpc_call(machine.cores[1], svc.entry_id)
        snap = session.pmu.snapshot()
    for label in ("core0", "core1"):
        bank = snap.bank(label)
        phases = (bank["cycles.xcall.captest"]
                  + bank["cycles.xcall.xentry"]
                  + bank["cycles.xcall.linkpush"])
        assert phases == bank["xcall.cycles"] > 0


def test_pmu_and_profiler_agree_on_a_refused_call():
    """One phase probe feeds both: a re-entrant call refused with
    XPCBusyError still charged its trampoline, and the PMU counts the
    same trampoline cycles as the flame tree."""
    with obs.active(obs.ObsSession(profile=True)) as session:
        machine, kernel, svc, clients = build_world(cores=1)

        def reenter(call):
            try:
                return xpc_call(call.core, svc.entry_id)
            except XPCBusyError:
                return "busy"
        svc.handler = reenter
        kernel.grant_xcall_cap(machine.core0, svc.server_thread.process,
                               svc.server_thread, svc.entry_id)
        assert xpc_call(machine.core0, svc.entry_id) == "busy"
    flame = sum(n for path, n in session.profiler.collapsed().items()
                if path.endswith("phase:trampoline"))
    pmu = session.pmu.snapshot().total("cycles.trampoline")
    calls = len(svc.contexts) + 1       # every context held, one refused
    assert pmu == flame == calls * machine.params.trampoline_full_ctx


def test_second_machine_banks_are_prefixed():
    with obs.active(obs.ObsSession()) as session:
        Machine(cores=1, mem_bytes=MEM)
        Machine(cores=1, mem_bytes=MEM)
        labels = session.pmu.snapshot().labels()
    assert labels == ["core0", "m1.core0"]


def test_lazy_core_registration_via_add():
    machine = Machine(cores=1, mem_bytes=MEM)   # built before install
    with obs.active(obs.ObsSession()) as session:
        session.pmu.add(machine.core0, "custom.events", 5)
        snap = session.pmu.snapshot()
    assert snap.get("core0", "custom.events") == 5
    assert "cycles" in snap.bank("core0")       # derived sampling works
