"""Hash-order determinism: the simulation must not depend on Python's
randomized ``dict``/``set`` iteration salt.

A fixed-seed fig7-shaped filesystem workload plus a small differential
fuzz run are executed in two subprocesses under different
``PYTHONHASHSEED`` values; the simulated cycle totals and the sha256 of
the obs span trace must be bit-identical.  Any divergence means some
order-sensitive code path iterates a set (or relies on ``hash()``)
where it should use insertion order or an explicit sort.

The same run is also an output-identity gate: the Perfetto trace and
the whole session report (metrics, PMU banks, span summary, collapsed
profile) hash to pinned golden values, so a refactor of the
instrumentation that changes any observer output fails here.
"""

import os
import subprocess
import sys

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", ".."))

#: The workload a child process runs: deterministic fig7-shaped FS
#: traffic through seL4-XPC under an armed profiling ObsSession, then
#: one generated proptest program through a two-executor differential.
#: It prints ``cycles=<n>``, ``trace=<sha256>`` and ``report=<sha256>``
#: for the parent to compare across hash seeds and against the pins.
WORKER = """
import hashlib
import json
import random

from repro import obs
from repro.hw.machine import Machine
from repro.obs import ObsSession
from repro.proptest.executors import SyncExecutor
from repro.proptest.gen import generate
from repro.proptest.harness import run_differential
from repro.sel4 import Sel4Kernel, Sel4Transport, Sel4XPCTransport
from repro.services.fs import build_fs_stack

session = ObsSession(profile=True)
with obs.active(session):
    machine = Machine(cores=2, mem_bytes=256 * 1024 * 1024)
    kernel = Sel4Kernel(machine)
    proc = kernel.create_process("app")
    thread = kernel.create_thread(proc)
    kernel.run_thread(machine.core0, thread)
    transport = Sel4XPCTransport(kernel, machine.core0, thread)
    server, fs, disk = build_fs_stack(transport, kernel,
                                      disk_blocks=1024)
    rng = random.Random(7)
    payload = bytes(rng.randrange(256) for _ in range(64 * 1024))
    fs.create("/data")
    fs.write("/data", payload)
    for buf in (2048, 4096, 8192):
        for i in range(8):
            off = (i * buf) % (len(payload) - buf)
            assert fs.read("/data", off, buf) == payload[off:off + buf]
            fs.write("/data", payload[off:off + buf], off)
    cycles = sum(core.cycles for core in machine.cores)

factories = [
    ("seL4-XPC", lambda: SyncExecutor(
        "seL4-XPC", Sel4Kernel, Sel4XPCTransport, is_xpc=True)),
    ("seL4-twocopy", lambda: SyncExecutor(
        "seL4-twocopy", Sel4Kernel, Sel4Transport,
        transport_kwargs={"copies": 2}, is_xpc=False)),
]
result = run_differential(generate(3), factories=factories)
assert result.ok, [d.describe() for d in result.divergences]
cycles += result.sim_cycles

assert session.profiler.complete()

trace = session.spans.chrome_json()
report = json.dumps(session.report("golden"), sort_keys=True)
print("cycles=%d" % cycles)
print("trace=%s" % hashlib.sha256(trace.encode()).hexdigest())
print("report=%s" % hashlib.sha256(report.encode()).hexdigest())
"""

#: Golden outputs of WORKER.  Any change to what an observer records
#: (span layout, metric names, PMU banks, profile stacks) moves these.
GOLDEN_CYCLES = 1_167_529
GOLDEN_TRACE = (
    "88f6c53c67071219ebdca4296ac197bbf2168f7c6b9c0a05bb6e63674357e691")
GOLDEN_REPORT = (
    "c5e80737ab8ae3dec4006f7ca1e535ecc122d1c7cd2ea1683f7724fb615d3628")


def _run_under_hash_seed(hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, "-c", WORKER], env=env, cwd=REPO_ROOT,
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = [ln for ln in proc.stdout.splitlines()
             if ln.startswith(("cycles=", "trace=", "report="))]
    assert len(lines) == 3, proc.stdout
    return "\n".join(lines)


def test_cycle_totals_and_traces_survive_hash_randomization():
    baseline = _run_under_hash_seed("0")
    assert baseline == _run_under_hash_seed("12345")
    assert baseline.splitlines() == [
        f"cycles={GOLDEN_CYCLES}", f"trace={GOLDEN_TRACE}",
        f"report={GOLDEN_REPORT}"]
