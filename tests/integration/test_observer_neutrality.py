"""Observers never move the simulated clock.

Every figure this reproduction reports is a simulated cycle count, so
the observers — obs (PMU, metrics, spans), the cycle profiler, XPCSan
and snapshot capture — must be pure: arming one may not change a
single cycle, outcome or byte of simulator state.

Each case builds one world, captures it once, and runs its ops twice
from ``restore()`` of that capture (which also pins the koid/asid/ISS
allocator globals): once disarmed, once with the observer armed.  The
two runs must agree exactly on ``clock()``, the per-op cycle deltas,
the outcomes, and the live fingerprint of the world with the observer
detached.  Each observer must also really have observed something.
"""

from __future__ import annotations

import functools

import pytest

import repro.obs as obs
import repro.san as san
from repro.proptest.executors import default_executor_factories
from repro.proptest.gen import generate
from repro.snap import ExecutorWorld, capture, live_fingerprint, restore
from repro.snap.scenarios import fig5_world, fig7_world
from repro.xpc.engine import XPCConfig

PROGRAM_SEEDS = range(4)
PROGRAM_EXECUTORS = ("seL4-XPC", "XPC-batched")


def _program_world(executor: str, seed: int):
    factory = dict(default_executor_factories())[executor]
    return (ExecutorWorld.build(factory, observe=False),
            list(generate(seed).ops))


WORLDS = {
    "fig5": fig5_world,
    "fig5-full-context": functools.partial(fig5_world,
                                           partial_context=False),
    "fig5-engine-cache": functools.partial(
        fig5_world, xpc_config=XPCConfig(nonblocking_linkstack=True,
                                         engine_cache=True)),
    "fig7": fig7_world,
}
WORLDS.update({f"{executor}-gen{seed}":
               functools.partial(_program_world, executor, seed)
               for executor in PROGRAM_EXECUTORS
               for seed in PROGRAM_SEEDS})


def _observe(world) -> tuple:
    """What an observer must leave untouched, read after the run."""
    return (world.clock(), list(world.op_cycles), list(world.outcomes),
            live_fingerprint(world))


@functools.lru_cache(maxsize=1)
def _baseline(name: str):
    """(snapshot of the fresh world, ops, disarmed observation); the
    observers of one world run back to back, so one entry suffices."""
    world, ops = WORLDS[name]()
    start = capture(world)
    plain = restore(start)
    plain.run(ops)
    return start, ops, _observe(plain)


def _run_obs(world, ops, profile: bool = False) -> None:
    with obs.active(obs.ObsSession(profile=profile)) as session:
        world.run(ops)
    assert len(session.spans) > 0
    if profile:
        assert session.profiler.attributed > 0
        assert session.profiler.complete(), session.profiler.as_dict()


def _run_san(world, ops) -> None:
    with san.active(san.SanSession()) as session:
        world.run(ops)
    assert session.handoffs > 0
    assert not session.issues, san.format_issues(session.issues)


def _run_snap(world, ops) -> None:
    for op in ops:
        world.step(op)
        capture(world)


OBSERVERS = {
    "obs": _run_obs,
    "profiler": functools.partial(_run_obs, profile=True),
    "xpcsan": _run_san,
    "snapshot": _run_snap,
}


@pytest.mark.parametrize("observer", list(OBSERVERS))
@pytest.mark.parametrize("world_name", list(WORLDS))
def test_observer_is_cycle_neutral(world_name, observer):
    start, ops, expected = _baseline(world_name)
    world = restore(start)
    OBSERVERS[observer](world, ops)
    clock, op_cycles, outcomes, fp = _observe(world)
    assert clock == expected[0]
    assert op_cycles == expected[1]
    assert outcomes == expected[2]
    assert fp == expected[3]
