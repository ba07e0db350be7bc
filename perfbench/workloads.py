"""The three workloads, each driven through ``repro.api``.

Every workload makes its inputs from the benchmark seed, computes an
untimed reference at set-up, and then runs closed-loop iterations
(each one starts after the previous returned) that are checked
against that reference.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from typing import Any, Dict

from repro import api
from repro.runtime import JobError
from repro.scenario.builder import dump_artifact, scenario_artifact
from repro.scenario.traffic import plan_traffic
from repro.sim import engine

from probes import Probe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLOS1000_SPEC = os.path.join(ROOT, "examples", "clos1000_hybrid.json")
CALIB_SPACE = os.path.join(ROOT, "examples", "calib", "space_smoke.json")

CALIB_BUDGET = 12
SWEEP_SHARDS = 4
INCAST_SENDERS = 15
INCAST_PACKETS = 100


def seed_for(part: str, seed: int) -> int:
    """A 31-bit input seed for one part of a workload, from the
    benchmark seed (blake2b via the runtime's seed derivation)."""
    return api.derive_seed(f"perfbench.{part}", seed) % 2**31


def digest(document: Any) -> str:
    """sha256 of a document's canonical JSON rendering."""
    return hashlib.sha256(dump_artifact(document).encode("utf-8")).hexdigest()


@dataclasses.dataclass
class Sample:
    """One timed iteration."""

    wall_s: float
    setup_s: float
    events: int
    attempted: int
    failed: int
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)
    """Per-layer figures measured on this iteration itself."""


class Workload:
    """Base: inputs from a seed, reference at set-up, checked iterations.

    Subclasses implement :meth:`run_inline` (the workload's call on
    the inline ``local`` back-end, returning the document the output
    check compares: the reference at set-up, and what the traced runs
    measure) and :meth:`iterate` (one timed, checked iteration).
    """

    name = "abstract"
    pooled = False
    """Whether the timed iterations run on the pool back-end (and so
    are not comparable with an inline run)."""

    def __init__(self, width: int):
        self.width = width
        self.reference: Dict[str, Any] = {}
        self.fingerprint: Dict[str, Any] = {}
        self.setup_wall_s = 0.0

    def setup(self) -> None:
        """Compute the reference and the simulated-statistics
        fingerprint (artifact sha256, events, ticks, component
        counts) with a collecting probe; untimed."""
        start = time.perf_counter()
        events_before = engine.process_events_total()
        with Probe(phases=False, collect=True) as probe:
            document = self.run_inline()
        self.reference = document
        self.fingerprint = {
            "artifact_sha256": digest(document),
            "sim.events": engine.process_events_total() - events_before,
            "sim_ticks": probe.counts["sim_ticks"],
            **probe.sim_counts(),
        }
        self.setup_wall_s = time.perf_counter() - start

    def run_inline(self) -> Dict[str, Any]:
        raise NotImplementedError

    def iterate(self) -> Sample:
        raise NotImplementedError

    def extra_record(self) -> Dict[str, Any]:
        """Workload-specific figures for the printed record."""
        return {}


class ClosHybrid(Workload):
    """``api.simulate`` of the 1024-host hybrid clos example."""

    name = "clos1000_hybrid"

    def __init__(self, seed: int, width: int, tiny: bool = False):
        super().__init__(width)
        spec = api.load_spec(CLOS1000_SPEC)
        if tiny:
            spec = dataclasses.replace(
                spec,
                traffic=tuple(
                    dataclasses.replace(t, packets=max(1, t.packets // 200))
                    for t in spec.traffic
                ),
            )
        self.spec = dataclasses.replace(spec, seed=seed_for(self.name, seed))
        self.planned = len(plan_traffic(self.spec))

    def run_inline(self) -> Dict[str, Any]:
        return self._artifact(api.simulate(self.spec))

    def _artifact(self, result) -> Dict[str, Any]:
        return scenario_artifact([(self.spec, result)])

    def iterate(self) -> Sample:
        events_before = engine.process_events_total()
        with Probe(phases=False) as probe:
            start = time.perf_counter()
            result = api.simulate(self.spec)
            wall = time.perf_counter() - start
        events = engine.process_events_total() - events_before
        correct = (
            result.packets_delivered == self.planned
            and result.packets_lost == 0
            and self._artifact(result) == self.reference
        )
        return Sample(
            wall_s=wall,
            setup_s=probe.times["scenario.build"] + probe.times["flow.install"],
            events=events,
            attempted=self.planned,
            failed=0 if correct else self.planned,
        )


def incast16_spec(seed: int, tiny: bool = False) -> api.ScenarioSpec:
    """The mixed-NIC 16-host incast (dnic, inic and netdimm senders
    into a NetDIMM receiver) of the sweep pytest bench, at ``seed``."""
    senders = 3 if tiny else INCAST_SENDERS
    kinds = ("dnic", "inic", "netdimm")
    nodes = [api.NodeSpec(name="recv", nic_kind="netdimm")]
    nodes += [
        api.NodeSpec(name=f"s{index}", nic_kind=kinds[index % len(kinds)])
        for index in range(senders)
    ]
    return api.ScenarioSpec(
        name=f"perfbench-incast16-{seed}",
        seed=seed,
        nodes=tuple(nodes),
        fabric=api.FabricSpec(
            kind="clos", racks_per_cluster=2, hosts_per_rack=8, queue_depth=8
        ),
        traffic=(
            api.TrafficSpec(
                kind="incast",
                dst="recv",
                packets=5 if tiny else INCAST_PACKETS,
                size_bytes=1024,
                mean_interarrival_ns=2000.0,
                label="incast",
            ),
        ),
    )


class IncastSweep(Workload):
    """``api.submit`` of seed variants of the 16-host incast, pool
    back-end."""

    name = "incast16_sweep"
    pooled = True

    def __init__(self, seed: int, width: int, tiny: bool = False):
        super().__init__(width)
        shards = 2 if tiny else SWEEP_SHARDS
        self.specs = [
            incast16_spec(seed_for(f"{self.name}[{index}]", seed), tiny)
            for index in range(shards)
        ]

    def run_inline(self) -> Dict[str, Any]:
        return api.submit(self.specs, backend="local").result()

    def iterate(self) -> Sample:
        with Probe(phases=False) as probe:
            start = time.perf_counter()
            job = api.submit(self.specs, backend="pool", jobs=self.width)
            job.run()
            assembling = time.perf_counter()
            try:
                document = job.result()
            except JobError:
                document = None
            end = time.perf_counter()
        runtime = probe.runtime_summary(self.width)
        return Sample(
            wall_s=end - start,
            setup_s=runtime["runtime.startup_lag_s"],
            events=probe.shard_events(),
            attempted=len(self.specs),
            # A failed shard makes Job.result() raise, so any failure
            # fails the check.
            failed=0 if document == self.reference else len(self.specs),
            layers={**runtime, "runtime.assemble_s": end - assembling},
        )


class CalibPool(Workload):
    """``api.calibrate`` of the smoke search space at a fixed budget,
    pool back-end."""

    name = "calib_pool"
    pooled = True

    def __init__(self, seed: int, width: int, tiny: bool = False):
        super().__init__(width)
        with open(CALIB_SPACE, "r", encoding="utf-8") as handle:
            self.space = json.load(handle)
        self.budget = 3 if tiny else CALIB_BUDGET
        self.base_seed = seed_for(self.name, seed)

    def _calibrate(self, **backend: Any):
        return api.calibrate(
            self.space, budget=self.budget, base_seed=self.base_seed, **backend
        )

    def run_inline(self) -> Dict[str, Any]:
        return self._calibrate(backend="local").to_dict()

    def iterate(self) -> Sample:
        with Probe(phases=False) as probe:
            start = time.perf_counter()
            report = self._calibrate(backend="pool", jobs=self.width)
            wall = time.perf_counter() - start
        runtime = probe.runtime_summary(self.width)
        failed = len(report.failures())
        if report.to_dict() != self.reference:
            failed = len(report.trials)
        return Sample(
            wall_s=wall,
            setup_s=runtime["runtime.startup_lag_s"],
            events=probe.shard_events(),
            attempted=len(report.trials),
            failed=failed,
            layers={
                **runtime,
                "runtime.assemble_s": 0.0,
                "calib.rounds": report.rounds,
                "calib.trials": len(report.trials),
                "calib.trials_failed": len(report.failures()),
            },
        )

    def extra_record(self) -> Dict[str, Any]:
        best = self.reference["best"]
        return {
            "calib_best_loss": next(
                trial["loss"]
                for trial in self.reference["trials"]
                if trial["param_id"] == best
            )
        }


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (ClosHybrid, IncastSweep, CalibPool)
}
