"""Benchmark harness helpers.

Every benchmark regenerates one table or figure from the paper's
evaluation (§5): it builds the systems, measures *simulated cycles*
(the clock of :class:`repro.hw.cpu.Core`), prints the same rows/series
the paper reports (run with ``-s`` to see them), asserts that the
qualitative shape matches the paper, and records paper-vs-measured
pairs into ``benchmarks/results.json`` for EXPERIMENTS.md.

``results.json`` doubles as the committed regression baseline: at
session end fresh numbers are compared against it and drift beyond
``REPRO_BASELINE_TOL`` (relative, default 5%) fails the run.  Bless an
intentional change with ``REPRO_BLESS=1``.

Run with ``REPRO_OBS=1`` to arm the observability stack
(:mod:`repro.obs`, cycle profiler included) around every benchmark and
drop one artifact per test under ``benchmarks/obs/`` — render them with
``python -m repro.obs``.  Observation never moves the simulated clock
(``tests/integration/test_observer_neutrality.py``), so the recorded
numbers are identical either way: the obs CI job runs armed with
``REPRO_BASELINE_TOL=0``.
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from repro.hw.machine import Machine
from repro.sel4 import Sel4Kernel, Sel4Transport, Sel4XPCTransport
from repro.zircon import ZirconKernel, ZirconTransport, ZirconXPCTransport

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results.json")
OBS_DIR = os.path.join(os.path.dirname(__file__), "obs")

TRANSPORTS = {
    "seL4-twocopy": (Sel4Kernel, Sel4Transport, {"copies": 2}),
    "seL4-onecopy": (Sel4Kernel, Sel4Transport, {"copies": 1}),
    "seL4-XPC": (Sel4Kernel, Sel4XPCTransport, {}),
    "Zircon": (ZirconKernel, ZirconTransport, {}),
    "Zircon-XPC": (ZirconKernel, ZirconXPCTransport, {}),
}


def build_system(name: str, mem_bytes: int = 256 * 1024 * 1024,
                 cores: int = 2):
    """(machine, kernel, transport, client_thread) for a system name."""
    kernel_cls, transport_cls, kwargs = TRANSPORTS[name]
    machine = Machine(cores=cores, mem_bytes=mem_bytes)
    kernel = kernel_cls(machine)
    client_proc = kernel.create_process("app")
    client_thread = kernel.create_thread(client_proc)
    kernel.run_thread(machine.core0, client_thread)
    transport = transport_cls(kernel, machine.core0, client_thread,
                              **kwargs)
    return machine, kernel, transport, client_thread


def _drift(baseline, fresh, tol: float, path: str, drifts: list) -> None:
    """Collect human-readable drift records between two result trees."""
    if isinstance(baseline, dict) and isinstance(fresh, dict):
        for key, value in fresh.items():
            if key in baseline:
                _drift(baseline[key], value, tol, f"{path}.{key}", drifts)
        return
    if (isinstance(baseline, (int, float)) and not isinstance(baseline, bool)
            and isinstance(fresh, (int, float))
            and not isinstance(fresh, bool)):
        scale = max(abs(baseline), abs(fresh), 1e-12)
        if abs(fresh - baseline) / scale > tol:
            drifts.append(f"{path}: baseline {baseline} vs fresh {fresh}")
        return
    if baseline != fresh:
        drifts.append(f"{path}: baseline {baseline!r} vs fresh {fresh!r}")


def _merge_new_keys(baseline, fresh):
    """Fold keys absent from *baseline* in; committed values win."""
    for key, value in fresh.items():
        if key not in baseline:
            baseline[key] = value
        elif isinstance(baseline[key], dict) and isinstance(value, dict):
            _merge_new_keys(baseline[key], value)


class _Results:
    """Collects {experiment: {series: value}} across the session and
    guards them against the committed ``results.json`` baseline."""

    def __init__(self) -> None:
        self.data = {}

    def record(self, experiment: str, entry: dict) -> None:
        self.data.setdefault(experiment, {}).update(entry)

    def flush(self) -> None:
        if not self.data:
            return
        existing = {}
        if os.path.exists(RESULTS_PATH):
            with open(RESULTS_PATH) as fh:
                try:
                    existing = json.load(fh)
                except json.JSONDecodeError:
                    existing = {}
        if os.environ.get("REPRO_BLESS") == "1":
            existing.update(self.data)
        else:
            tol = float(os.environ.get("REPRO_BASELINE_TOL", "0.05"))
            drifts: list = []
            _drift(existing, self.data, tol, "results", drifts)
            if drifts:
                raise AssertionError(
                    "benchmark results drifted from the committed "
                    f"baseline ({RESULTS_PATH}) beyond tolerance "
                    f"{tol:.0%}:\n  " + "\n  ".join(drifts[:20])
                    + "\nre-run with REPRO_BLESS=1 to bless an "
                      "intentional change")
            _merge_new_keys(existing, self.data)
        with open(RESULTS_PATH, "w") as fh:
            json.dump(existing, fh, indent=2, sort_keys=True)


_results = _Results()


@pytest.fixture(scope="session")
def results():
    yield _results
    _results.flush()


@pytest.fixture(autouse=True)
def obs_session(request):
    """With ``REPRO_OBS=1``: arm a fresh profiling ObsSession around the
    test, persist its artifact to ``benchmarks/obs/<test>.json``, and
    fail the test if the profiler did not attribute every cycle."""
    if os.environ.get("REPRO_OBS") != "1":
        yield None
        return
    import repro.obs as obs
    capacity = int(os.environ.get("REPRO_OBS_SPANS", "20000"))
    with obs.active(obs.ObsSession(span_capacity=capacity,
                                   profile=True)) as session:
        yield session
    os.makedirs(OBS_DIR, exist_ok=True)
    slug = re.sub(r"[^\w.-]+", "_", request.node.name).strip("_")
    path = os.path.join(OBS_DIR, f"{slug}.json")
    artifact = session.report(title=request.node.name)
    with open(path, "w") as fh:
        json.dump(artifact, fh)
    profile = artifact["profile"]
    assert profile["complete"], (
        f"{path}: profiler attributed {profile['attributed_cycles']} of "
        f"{profile['clock_cycles']} clock cycles")

