"""Host-cost benchmark of the XPC simulator, per workload and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload cluster-kv --seed 1 \
        --seconds 40 --trace 0

The program under test is the ``repro`` package in ``src/`` next to this
directory; nothing is installed.  A run repeats *rounds* of its workload
for ``--seconds`` seconds (at least two rounds, or one untraced and one
traced round with ``--trace 1``).  Each round rebuilds the workload from
the seed, so its simulated results repeat exactly, and are checked to.

Host times are normalized by ``speed.SpeedMeter`` to a reference host
speed, because the host's own speed drifts more than a useful bound;
the raw medians are printed next to them.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json with no
instrumentation.  ``--trace 1`` first runs untraced reference rounds,
then rounds with every layer probe of ``spans.py`` installed; it checks
that tracing left every simulated number unchanged, reports the
per-layer metrics, and writes the spans under ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every check passed, 1 when one failed, 2 when the repository
is not there to measure.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from speed import SpeedMeter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: Share of a traced run's time spent on the untraced reference rounds.
REFERENCE_SHARE = 0.35


@dataclass
class Measured:
    """One round, the host's slowdown while it ran, and its per-layer
    metrics (only under a probe)."""

    rnd: object
    slowdown: float
    layers: Optional[dict]

    @property
    def rate(self) -> float:
        """Normalized ops per second."""
        return self.rnd.ops / self.rnd.run_s * self.slowdown

    @property
    def setup_s(self) -> float:
        return self.rnd.setup_s / self.slowdown


def _run_rounds(workload, seed: int, seconds: float, min_rounds: int,
                probe=None) -> list:
    """Repeat rounds until *seconds* have passed."""
    out = []
    meter = SpeedMeter()
    deadline = time.perf_counter() + seconds
    while len(out) < min_rounds or time.perf_counter() < deadline:
        # Collect the last round's garbage before timing the next.
        gc.collect()
        if probe is not None:
            probe.begin_round()
        meter.start()
        try:
            rnd = workload(seed, probe)
        finally:
            meter.stop()
        slowdown = meter.slowdown()
        layers = None
        if probe is not None:
            layers = probe.exact_metrics(rnd.ops)
            if probe.tracing:
                for key, value in probe.round_metrics().items():
                    layers[key] = (value / slowdown
                                   if key.endswith(".self_s") else value)
        out.append(Measured(rnd, slowdown, layers))
    return out


def _consistency(rounds: list) -> list:
    """Every round of one seed must be the same simulated run."""
    problems = []
    first = rounds[0].rnd
    for i, measured in enumerate(rounds):
        rnd = measured.rnd
        problems.extend(rnd.problems)
        if i and (rnd.fingerprint != first.fingerprint
                  or rnd.sim != first.sim):
            problems.append(f"round {i} is not the same simulated run as "
                            f"round 0 (fingerprint {rnd.fingerprint[:16]} "
                            f"vs {first.fingerprint[:16]})")
    return problems


def _median(values) -> float:
    return statistics.median(list(values))


def end_to_end(workload, seed: int, seconds: float, name: str) -> tuple:
    rounds = _run_rounds(workload, seed, seconds, min_rounds=2)
    problems = _consistency(rounds)
    first = rounds[0].rnd
    metrics = {
        "ops_per_s": _median(m.rate for m in rounds),
        "setup_s": _median(m.setup_s for m in rounds),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for key in ("sim_p50_cycles", "sim_p99_cycles", "sim_cycles_per_op"):
        metrics[key] = first.sim.get(key, 0)
    raw_rate = _median(m.rnd.ops / m.rnd.run_s for m in rounds)
    raw_setup = _median(m.rnd.setup_s for m in rounds)
    notes = {
        "ops_per_s": f"median of {len(rounds)} rounds of {first.ops} ops; "
                     f"raw {raw_rate:.1f}, host slowdown "
                     f"{_median(m.slowdown for m in rounds):.3f}",
        "setup_s": f"median of {len(rounds)} set-ups; raw {raw_setup:.6f}",
        "sim_p50_cycles": f"{first.samples} samples",
        "sim_p99_cycles": f"{first.samples} samples",
    }
    attempted = sum(m.rnd.attempted for m in rounds)
    failed = sum(m.rnd.failed for m in rounds)
    return metrics, notes, attempted, failed, problems


def _probed_rounds(probe, workload, seed: int, seconds: float) -> list:
    probe.install()
    try:
        return _run_rounds(workload, seed, seconds, min_rounds=1,
                           probe=probe)
    finally:
        probe.uninstall()


def traced(workload, seed: int, seconds: float, name: str) -> tuple:
    import spans
    from workloads import PROFILED

    ref_rounds = _probed_rounds(spans.Probe(tracing=False), workload, seed,
                                seconds * REFERENCE_SHARE)
    probe = spans.Probe(tracing=True)
    traced_rounds = _probed_rounds(probe, workload, seed,
                                   seconds * (1 - REFERENCE_SHARE))
    checked = ref_rounds + traced_rounds
    problems = []
    profiler = None
    if name in PROFILED:
        # One more round with the cycle profiler attached: its host cost
        # stays out of the layer metrics, and its cycles must not move.
        profiler = spans.Probe(tracing=False, profile=True)
        checked += _probed_rounds(profiler, workload, seed, 0)
        if not profiler.profile_complete:
            problems.append("cycle profiler attribution is incomplete")

    # Simulated identity: every instrumented round is the untraced one.
    problems += _consistency(checked)
    ref_exact = ref_rounds[0].layers
    for i, measured in enumerate(checked):
        exact = {k: measured.layers[k] for k in ref_exact}
        if exact != ref_exact:
            problems.append(f"round {i} changed exact counters: {exact} "
                            f"vs untraced {ref_exact}")

    metrics = {key: _median(m.layers[key] for m in traced_rounds)
               for key in traced_rounds[0].layers}
    ref = ref_rounds[0].rnd
    for key in spans.SIM_LAYER_METRICS:
        if key in ref.sim:
            metrics[key] = ref.sim[key]
    if profiler is not None:
        for phase, cycles in profiler.phases.items():
            metrics[f"sim.phase.{phase}.cycles"] = cycles
    ref_rate = _median(m.rate for m in ref_rounds)
    traced_rate = _median(m.rate for m in traced_rounds)
    metrics["trace_overhead"] = ref_rate / traced_rate

    OUT.mkdir(parents=True, exist_ok=True)
    trace_path = OUT / f"spans-{name}-seed{seed}.json.gz"
    count = probe.write(trace_path)
    notes = {"trace_overhead": f"untraced {ref_rate:.1f} vs traced "
                               f"{traced_rate:.1f} ops/s",
             "spans": f"{count} spans of the first traced round in "
                      f"{trace_path.relative_to(ROOT)}"}
    attempted = sum(m.rnd.attempted for m in checked)
    failed = sum(m.rnd.failed for m in checked)
    return metrics, notes, attempted, failed, problems


def _host_split(metrics: dict) -> str:
    shares = [(k.split(".")[1], v) for k, v in metrics.items()
              if k.startswith("host.") and k.endswith(".share")]
    return "  ".join(f"{layer} {100 * share:.1f}%" for layer, share in shares)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    run = traced if args.trace else end_to_end
    metrics, notes, attempted, failed, problems = run(
        WORKLOADS[args.workload], args.seed, args.seconds, args.workload)

    # Rounds repeat one simulated run, so they repeat its problems too.
    problems = list(dict.fromkeys(problems))
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    report = {m["name"]: {"value": metrics.get(m["name"], 0),
                          "unit": m["unit"]} for m in declared}

    print(f"{args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'end-to-end'})")
    for name, entry in report.items():
        note = notes.get(name)
        print(f"  {name:<42} {entry['value']:>16.6g} {entry['unit']}"
              + (f"   ({note})" if note else ""))
    if args.trace:
        print(f"  host split: {_host_split(metrics)}")
        print(f"  {notes['spans']}")
    print(f"  attempted {attempted}, failed {failed}")
    for problem in problems:
        print(f"FAILED: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": report}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
