"""Host-time benchmark of the NetDIMM simulator.

    python3 perfbench/run.py --workload clos1000_hybrid --seed 1 \\
        --seconds 30 --trace 0

Runs one workload (see README.md) closed-loop for ``--seconds``,
checks every iteration's output against an untimed reference, and
prints one JSON record line followed by the result line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` also makes the traced
runs and reports the per-layer metrics instead.  Exits 1 when an
output check failed and 2 when the simulator sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

DEFAULT_SEED = 1
"""The seed runs are tuned on."""

HELD_OUT_SEED = 977
"""A seed kept out of tuning, to confirm a claim on unseen inputs."""

UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "net.route_s": "s",
    "net.route_calls": "count",
    "flow.install_s": "s",
    "flow.demands": "count",
    "scenario.build_s": "s",
    "scenario.run_s": "s",
    "sim.run_s": "s",
    "sim.events": "count",
    "net.switch_forwards": "count",
    "net.egress_stalls": "count",
    "runtime.backend_run_s": "s",
    "runtime.backend_calls": "count",
    "runtime.shard_exec_s": "s",
    "runtime.startup_lag_s": "s",
    "runtime.parallel_efficiency": "ratio",
    "runtime.assemble_s": "s",
    "runtime.shards_failed": "count",
    "calib.rounds": "count",
    "calib.trials": "count",
    "calib.trials_failed": "count",
    "dram.reads": "count",
    "dram.writes": "count",
    "dram.bus_busy_ticks": "ticks",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.fills": "count",
    "cache.invalidations": "count",
    "core.ncache_hits": "count",
    "core.ncache_misses": "count",
    "core.clones": "count",
    "pcie.mmio_reads": "count",
    "pcie.posted_writes": "count",
    "bench.trace_ratio": "x",
    "bench.profile_ratio": "x",
}
"""Per-layer metrics besides the ``<module>.self_s`` self times."""


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"benchmark seed (default {DEFAULT_SEED}; "
        f"{HELD_OUT_SEED} is held out from tuning)",
    )
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="shrink every workload's inputs (the benchmark's own tests)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def peak_rss_mb() -> float:
    """High-water resident memory of this process plus that of its
    largest finished child (a pool worker), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def window(workload, seconds: float) -> list:
    """Closed-loop iterations until ``seconds`` of host time have
    passed (at least one)."""
    samples = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        gc.collect()
        samples.append(workload.iterate())
    return samples


def summary(values: List[float]) -> Dict[str, float]:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def end_to_end(samples: list) -> Dict[str, List[float]]:
    return {
        "wall_s": [s.wall_s for s in samples],
        "setup_s": [s.setup_s for s in samples],
        "events_per_s": [s.events / s.wall_s for s in samples],
    }


def traced(workload, samples: list) -> Dict[str, Any]:
    """The per-layer metrics: phase times from a probed run and self
    times from a profiled run, both on the inline back-end, the
    runtime/calibration figures of the untraced iterations
    themselves, and the simulated counts of the set-up fingerprint.
    Every traced run's output is checked against the reference too
    (``outputs_match``)."""
    from probes import SELF_TIME_MODULES, SIM_COUNTS, Probe, self_times
    from repro.sim import engine

    documents = []

    def run_inline() -> None:
        documents.append(workload.run_inline())

    def timed() -> float:
        gc.collect()
        start = time.perf_counter()
        run_inline()
        return time.perf_counter() - start

    if workload.pooled:
        # Pool iterations are not comparable with inline runs: time
        # one untraced inline run as the baseline.
        baseline = timed()
    else:
        baseline = statistics.median(s.wall_s for s in samples)
    events_before = engine.process_events_total()
    with Probe(phases=True) as probe:
        probed_wall = timed()
    events = engine.process_events_total() - events_before
    gc.collect()
    folded, profiled_wall = self_times(run_inline)

    layers: Dict[str, Any] = {
        "net.route_s": probe.times["net.route"],
        "net.route_calls": probe.calls["net.route"],
        "flow.install_s": probe.times["flow.install"],
        "flow.demands": probe.counts["flow.demands"],
        "scenario.build_s": probe.times["scenario.build"],
        "scenario.run_s": probe.times["scenario.run"],
        "sim.run_s": probe.times["sim.run"],
        "sim.events": events,
        "net.switch_forwards": probe.counts["net.switch_forwards"],
        "net.egress_stalls": probe.counts["net.egress_stalls"],
    }
    for name in LAYER_UNITS:
        if name.startswith(("runtime.", "calib.")):
            values = [s.layers[name] for s in samples if name in s.layers]
            layers[name] = statistics.median(values) if values else 0
    layers.update({name: workload.fingerprint[name] for name in SIM_COUNTS})
    layers["bench.trace_ratio"] = probed_wall / baseline
    layers["bench.profile_ratio"] = profiled_wall / baseline
    for module in SELF_TIME_MODULES:
        layers[f"{module}.self_s"] = folded.get(module, 0.0)
    return {
        "layers": layers,
        "self_s_all": dict(sorted(folded.items())),
        "baseline_wall_s": baseline,
        "probed_wall_s": probed_wall,
        "profiled_wall_s": profiled_wall,
        "outputs_match": all(d == workload.reference for d in documents),
    }


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: simulator sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from repro.runtime.provenance import git_revision
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    width = len(os.sched_getaffinity(0))
    workload = WORKLOADS[args.workload](args.seed, width, tiny=args.tiny)
    workload.setup()
    samples = window(workload, args.seconds)
    rss = peak_rss_mb()
    series = end_to_end(samples)
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    record: Dict[str, Any] = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": {
            "usable_cpus": width,
            "pool_width": width,
            "python": platform.python_version(),
            # git would search the parent directories of a checkout
            # that is not a repository; read nothing outside it.
            "git_revision": (
                git_revision()
                if os.path.isdir(os.path.join(ROOT, ".git"))
                else "unknown"
            ),
        },
        "setup_wall_s": workload.setup_wall_s,
        "end_to_end": {
            **{name: summary(values) for name, values in series.items()},
            "peak_rss_mb": rss,
            "failed_ratio": failed / attempted,
        },
        **workload.extra_record(),
        "fingerprint": workload.fingerprint,
    }
    if args.trace:
        record["trace"] = traced(workload, samples)
        metrics = {
            name: {"value": value, "unit": LAYER_UNITS.get(name, "s")}
            for name, value in record["trace"]["layers"].items()
        }
    else:
        values = {name: statistics.median(v) for name, v in series.items()}
        values["peak_rss_mb"] = rss
        metrics = {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in values.items()
        }
    correct = failed == 0 and record.get("trace", {}).get("outputs_match", True)
    print(json.dumps({"record": record}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
