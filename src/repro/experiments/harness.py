"""Parallel experiment harness with machine-readable artifacts.

The plain :mod:`repro.experiments.runner` walks the registry serially
and prints free text.  This layer turns an experiment run into a
*measured, parallelizable, diffable* object:

* experiments execute as :mod:`repro.runtime` task shards, fanned over
  any of its backends — inline (``SweepConfig()``, the debuggable CI
  fallback), a process pool (``SweepConfig(backend="pool", jobs=N)``),
  or a detached worker pool over a shared run directory
  (``backend="workers"``, which is also the resumable/distributed
  path);
* the sweep-heavy experiments (``fig5``, ``fig11``, ``fig12a``,
  ``loaded_latency``) additionally shard *inside* the experiment, one
  task per sweep point, and are merged back into the exact result
  object the serial ``run()`` would have built;
* every experiment gets run metadata — wall-clock seconds, simulator
  events fired (via :func:`repro.sim.engine.process_events_total`),
  events/sec — kept in a ``timing`` section *separate* from results so
  artifacts stay byte-for-byte comparable across machines (the
  job-assembled sweep artifact goes further and keeps timing out of
  the artifact entirely — it lives in the provenance manifest);
* the whole run serializes to a versioned JSON artifact
  (:data:`SCHEMA_VERSION`), and two artifacts diff with
  :func:`diff_artifacts`, flagging paper-target regressions.

Determinism is the contract: each task builds its own
:class:`~repro.sim.Simulator` (the seq-ordered event heap makes a
single simulation deterministic), tasks share no state, and merge
order is the task-index order — so any backend's per-experiment
results are byte-for-byte identical to the serial run's.

Parallel runs pass ``run_experiments(names,
config=SweepConfig(backend="pool", jobs=N))``; the full job surface
(status, resumable run directories, provenance manifests) is
:func:`submit_experiments` → :class:`Job`.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.targets import PAPER_TARGETS
from repro.experiments import fig5, fig11, fig12a, loaded_latency
from repro.experiments.oneway import measure_one_way
from repro.experiments.runner import EXPERIMENTS, normalize_names
from repro.net.topology import ClosTopology
from repro.params import DEFAULT
from repro.runtime.backends import SweepConfig, make_backend
from repro.runtime.job import Job, register_assembler
from repro.runtime.tasks import (
    ShardResult,
    Task,
    register_kind,
)
from repro.scenario.builder import SCENARIO_SCHEMA, SCENARIO_SCHEMA_VERSION
from repro.units import ns
from repro.workloads.traces import TraceGenerator

SCHEMA = "netdimm-repro/experiment-artifact"
SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Sharded experiments: one task per sweep point, deterministic merge.
# ---------------------------------------------------------------------------


class ShardedExperiment:
    """A sweep experiment split into independent, picklable point tasks.

    ``run_shard(i)`` must be pure (fresh simulator, no shared state) and
    ``merge`` must rebuild exactly the result object the experiment's
    serial ``run()`` produces, so sharding is invisible in the artifact.
    """

    name: str = ""

    def shard_count(self) -> int:
        raise NotImplementedError

    def run_shard(self, index: int) -> Any:
        raise NotImplementedError

    def merge(self, payloads: List[Any]) -> Any:
        raise NotImplementedError


class _Fig5Shards(ShardedExperiment):
    """One task per injector-delay point of the Fig. 5 pressure sweep."""

    name = "fig5"

    def shard_count(self) -> int:
        return len(fig5.INJECT_DELAYS_NS)

    def run_shard(self, index: int) -> float:
        delay_ns = fig5.INJECT_DELAYS_NS[index]
        return fig5._one_point(DEFAULT, delay_ns, fig5.PACKETS_PER_POINT, 16)

    def merge(self, payloads: List[Any]) -> fig5.Fig5Result:
        return fig5.Fig5Result(
            bandwidth_gbps=dict(zip(fig5.INJECT_DELAYS_NS, payloads))
        )


class _Fig11Shards(ShardedExperiment):
    """One task per (config, size) cell of the Fig. 11 latency matrix."""

    name = "fig11"

    def __init__(self) -> None:
        self.sizes = tuple(
            sorted(set(fig11.PACKET_SIZES) | set(fig11.QUOTED_SIZES))
        )
        self.cells = [
            (config, size) for config in fig11.CONFIGS for size in self.sizes
        ]

    def shard_count(self) -> int:
        return len(self.cells)

    def run_shard(self, index: int):
        config, size = self.cells[index]
        return measure_one_way(config, size, DEFAULT)

    def merge(self, payloads: List[Any]) -> fig11.Fig11Result:
        return fig11.Fig11Result(
            results=dict(zip(self.cells, payloads)), sizes=self.sizes
        )


class _Fig12aShards(ShardedExperiment):
    """One task per (cluster, switch latency, config) trace replay."""

    name = "fig12a"

    def __init__(self) -> None:
        from repro.workloads.traces import ClusterKind

        self.cells = [
            (cluster, switch_ns, config)
            for cluster in ClusterKind
            for switch_ns in fig12a.SWITCH_LATENCIES_NS
            for config in fig12a.CONFIGS
        ]

    def shard_count(self) -> int:
        return len(self.cells)

    def run_shard(self, index: int) -> float:
        cluster, switch_ns, config = self.cells[index]
        params = DEFAULT
        trace = TraceGenerator(cluster, seed=2019).generate(
            fig12a.PACKETS_PER_CLUSTER
        )
        fabric = ClosTopology(
            params=params.with_switch_latency(ns(switch_ns)).network
        )
        host_cache: Dict[int, int] = {}
        total = 0
        for packet in trace:
            bucket = fig12a._size_bucket(packet.size_bytes)
            if bucket not in host_cache:
                host_cache[bucket] = measure_one_way(
                    config, bucket, params
                ).host_ticks()
            endhost_wire = (
                2 * params.network.mac_phy_latency
                + fabric.params.propagation
                + fig12a._serialization(packet.size_bytes, params)
            )
            total += (
                host_cache[bucket]
                + endhost_wire
                + fabric.path_latency(packet.size_bytes, packet.locality)
            )
        return total / len(trace)

    def merge(self, payloads: List[Any]) -> fig12a.Fig12aResult:
        mean_latency = {
            (cluster, config, switch_ns): payload
            for (cluster, switch_ns, config), payload in zip(self.cells, payloads)
        }
        return fig12a.Fig12aResult(mean_latency=mean_latency)


class _LoadedLatencyShards(ShardedExperiment):
    """Tasks: one DRAM probe per pressure level + one one-way baseline
    per (config, size); merged with the serial run's exact formula."""

    name = "loaded_latency"

    def __init__(self) -> None:
        self.probes = list(loaded_latency.PRESSURES)
        self.bases = [
            (config, size)
            for config in loaded_latency.CONFIGS
            for size in loaded_latency.SIZES
        ]

    def shard_count(self) -> int:
        return len(self.probes) + len(self.bases)

    def run_shard(self, index: int) -> float:
        if index < len(self.probes):
            pressure = self.probes[index]
            return loaded_latency._probe_dram_latency(
                DEFAULT, loaded_latency._DELAYS[pressure]
            )
        config, size = self.bases[index - len(self.probes)]
        return measure_one_way(config, size, DEFAULT).total_ticks

    def merge(self, payloads: List[Any]) -> loaded_latency.LoadedLatencyResult:
        dram_latency = dict(zip(self.probes, payloads))
        bases = dict(zip(self.bases, payloads[len(self.probes) :]))
        idle_dram = dram_latency["idle"]
        latency: Dict[Tuple[str, str, int], float] = {}
        for config in loaded_latency.CONFIGS:
            for size in loaded_latency.SIZES:
                base = bases[(config, size)]
                for pressure in loaded_latency.PRESSURES:
                    extra_per_line = (
                        max(0.0, dram_latency[pressure] - idle_dram) * 1000
                    )
                    latency[(pressure, config, size)] = base + (
                        extra_per_line
                        * loaded_latency.host_dram_lines(config, size)
                    )
        return loaded_latency.LoadedLatencyResult(
            latency=latency, dram_latency_ns=dram_latency
        )


def _sharded_experiments() -> Dict[str, ShardedExperiment]:
    return {
        spec.name: spec
        for spec in (
            _Fig5Shards(),
            _Fig11Shards(),
            _Fig12aShards(),
            _LoadedLatencyShards(),
        )
    }


# ---------------------------------------------------------------------------
# Task execution: the "experiment" runtime kind.
# ---------------------------------------------------------------------------


def _experiment_executor(args: Dict[str, Any]) -> Any:
    """Run one experiment task (whole experiment or one sweep shard).

    The executor for the ``"experiment"`` runtime kind: metering,
    failure capture, and checkpointing are the runtime's job
    (:func:`repro.runtime.tasks.execute`); this only maps JSON args
    onto experiment code.
    """
    name = args["name"]
    shard = args.get("shard")
    if shard is None:
        run, _format = EXPERIMENTS[name]
        return run()
    return _sharded_experiments()[name].run_shard(int(shard))


def _task_experiment_name(task_id: str) -> str:
    """``"fig5[3]"`` → ``"fig5"``; unsharded ids pass through."""
    return task_id.partition("[")[0]


# ---------------------------------------------------------------------------
# The harness run.
# ---------------------------------------------------------------------------


@dataclass
class ExperimentRun:
    """One experiment's merged result plus aggregated run metadata."""

    name: str
    result: Any
    report: str
    wall_seconds: float
    events_fired: int
    shards: int

    @property
    def events_per_sec(self) -> float:
        """Simulator event throughput (0 when nothing fired)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.events_fired / self.wall_seconds

    def timing_dict(self) -> Dict[str, float]:
        """The timing section entry (kept out of the result section)."""
        return {
            "wall_seconds": round(self.wall_seconds, 6),
            "events_fired": self.events_fired,
            "events_per_sec": round(self.events_per_sec, 3),
            "shards": self.shards,
        }


@dataclass
class HarnessRun:
    """A completed harness invocation over one or more experiments."""

    jobs: int
    names: List[str]
    records: Dict[str, ExperimentRun]
    wall_seconds: float = 0.0

    def report_text(self) -> str:
        """The concatenated text reports (the runner's classic output)."""
        sections = [
            f"{'=' * 72}\n{self.records[name].report}\n" for name in self.names
        ]
        return "\n".join(sections)

    def to_artifact(self) -> Dict[str, Any]:
        """The versioned, JSON-safe artifact (schema v1).

        ``experiments`` holds only deterministic content; wall-clock and
        event-rate metadata live under ``timing`` so that two runs of
        the same code diff clean regardless of machine speed.
        """
        experiments: Dict[str, Any] = {}
        timing: Dict[str, Any] = {}
        for name in self.names:
            record = self.records[name]
            result = record.result
            experiments[name] = {
                "result": result.to_dict() if hasattr(result, "to_dict") else None,
                "metrics": result.metrics() if hasattr(result, "metrics") else {},
                "report_sha256": hashlib.sha256(
                    record.report.encode("utf-8")
                ).hexdigest(),
            }
            timing[name] = record.timing_dict()
        return {
            "schema": SCHEMA,
            "schema_version": SCHEMA_VERSION,
            "run": {"jobs": self.jobs, "experiments": list(self.names)},
            "experiments": experiments,
            "timing": {
                "total_wall_seconds": round(self.wall_seconds, 6),
                "per_experiment": timing,
            },
        }

    def write_artifact(self, path: str) -> Dict[str, Any]:
        """Serialize :meth:`to_artifact` to ``path``; returns the dict."""
        artifact = self.to_artifact()
        try:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(artifact, handle, indent=2, sort_keys=False)
                handle.write("\n")
        except OSError as error:
            raise ValueError(
                f"{path}: cannot write artifact ({error.strerror})"
            ) from error
        return artifact


def plan_tasks(
    names: Sequence[str], base_seed: int = 0
) -> List[Task]:
    """Expand experiment names into runtime tasks, sharding sweeps.

    Task ids name the sweep point (``"fig5[3]"``) — they are the seed
    param ids and the merge keys — and task index order is merge order.
    """
    sharded = _sharded_experiments()
    tasks: List[Task] = []
    for name in names:
        if name in sharded:
            for shard in range(sharded[name].shard_count()):
                tasks.append(
                    Task(
                        kind="experiment",
                        task_id=f"{name}[{shard}]",
                        args={"name": name, "shard": shard},
                        index=len(tasks),
                        base_seed=base_seed,
                    )
                )
        else:
            tasks.append(
                Task(
                    kind="experiment",
                    task_id=name,
                    args={"name": name, "shard": None},
                    index=len(tasks),
                    base_seed=base_seed,
                )
            )
    return tasks


def submit_experiments(
    names: Optional[Sequence[str]] = None,
    config: Optional[SweepConfig] = None,
    base_seed: int = 0,
) -> Job:
    """The named experiments as a runtime :class:`Job` (not yet run).

    The job-oriented front door: ``submit_experiments(...).run()``
    executes on the configured backend, ``.result()`` assembles the
    deterministic sweep artifact, ``.manifest()`` the provenance
    sidecar.  :func:`run_experiments` remains the convenience wrapper
    returning a :class:`HarnessRun`.
    """
    names = normalize_names(names)
    return Job(
        kind="experiment",
        meta={"names": list(names), "base_seed": base_seed},
        tasks=plan_tasks(names, base_seed),
        config=config,
    )


def _records_from(
    names: Sequence[str], results: Sequence[ShardResult]
) -> Dict[str, ExperimentRun]:
    """Merge per-shard results (in task-index order) into run records."""
    sharded = _sharded_experiments()
    grouped: Dict[str, List[ShardResult]] = {}
    for result in results:
        grouped.setdefault(_task_experiment_name(result.task_id), []).append(
            result
        )
    records: Dict[str, ExperimentRun] = {}
    for name in names:
        mine = grouped.get(name, [])
        if not mine:
            raise ValueError(f"no shard results for experiment {name!r}")
        payloads = [shard.payload for shard in mine]
        if name in sharded:
            merged = sharded[name].merge(payloads)
        else:
            merged = payloads[0]
        _run, format_report = EXPERIMENTS[name]
        records[name] = ExperimentRun(
            name=name,
            result=merged,
            report=format_report(merged),
            wall_seconds=sum(shard.wall_seconds for shard in mine),
            events_fired=sum(shard.events_fired for shard in mine),
            shards=len(mine),
        )
    return records


def _experiment_assembler(
    meta: Dict[str, Any], results: List[ShardResult]
) -> Dict[str, Any]:
    """Assemble the deterministic sweep artifact from shard results.

    Same schema as :meth:`HarnessRun.to_artifact`, minus the ``timing``
    section: wall-clock and event-rate metadata are provenance, and
    live in the run's manifest sidecar instead — which is what makes
    serial, pooled, and distributed sweep artifacts byte-identical.
    """
    names = meta["names"]
    records = _records_from(names, results)
    experiments: Dict[str, Any] = {}
    for name in names:
        record = records[name]
        merged = record.result
        experiments[name] = {
            "result": merged.to_dict() if hasattr(merged, "to_dict") else None,
            "metrics": merged.metrics() if hasattr(merged, "metrics") else {},
            "report_sha256": hashlib.sha256(
                record.report.encode("utf-8")
            ).hexdigest(),
        }
    return {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "run": {
            "experiments": list(names),
            "base_seed": meta.get("base_seed", 0),
        },
        "experiments": experiments,
    }


register_kind("experiment", _experiment_executor)
register_assembler("experiment", _experiment_assembler)


def run_experiments(
    names: Optional[Sequence[str]] = None,
    *,
    config: Optional[SweepConfig] = None,
) -> HarnessRun:
    """Run the named experiments (all by default); returns a HarnessRun.

    ``config`` (:class:`~repro.runtime.backends.SweepConfig`) picks the
    backend: the default ``SweepConfig()`` executes every task inline
    (no subprocesses — the debuggable fallback);
    ``SweepConfig(backend="pool", jobs=N)`` fans tasks over a process
    pool; ``SweepConfig(backend="workers", ...)`` runs the distributed
    worker pool.  Any backend produces identical per-experiment
    results: tasks are deterministic and merged in task-index order.

    Raises :class:`ValueError` for unknown experiment names, and
    :class:`RuntimeError` for a shard failure (the job surface —
    :func:`submit_experiments` — instead records failures as
    structured diagnostics).
    """
    if config is None:
        config = SweepConfig()

    names = normalize_names(names)
    tasks = plan_tasks(names)

    start = time.perf_counter()
    with make_backend(config) as backend:
        outcomes = backend.run(tasks)
    total_wall = time.perf_counter() - start

    failures = [outcome for outcome in outcomes if not outcome.ok]
    if failures:
        lines = "\n  ".join(failure.summary() for failure in failures)
        raise RuntimeError(f"{len(failures)} experiment shard(s) failed:\n  {lines}")
    records = _records_from(names, outcomes)
    return HarnessRun(
        jobs=config.jobs if config.backend == "pool" else 1,
        names=list(names),
        records=records,
        wall_seconds=total_wall,
    )


# ---------------------------------------------------------------------------
# Artifact loading and diffing.
# ---------------------------------------------------------------------------


def load_artifact(path: str) -> Dict[str, Any]:
    """Load and validate an artifact file.

    Accepts both artifact kinds the toolkit writes: the experiment
    artifact (:class:`HarnessRun`, schema v1) and the scenario artifact
    (``run-scenario``/``run-chaos`` ``--json``, schema v2–v3).  Either
    can be handed to :func:`diff_artifacts` — scenario artifacts are
    viewed through :func:`_experiment_view` so per-flow and (v3)
    per-segment metrics diff the same way experiment metrics do.  See
    ``docs/artifacts.md`` for the schema histories.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            artifact = json.load(handle)
    except OSError as error:
        raise ValueError(f"{path}: cannot read artifact ({error.strerror})") from error
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: not valid JSON ({error})") from error
    schema = artifact.get("schema") if isinstance(artifact, dict) else None
    if schema == SCENARIO_SCHEMA:
        version = artifact.get("schema_version")
        if not isinstance(version, int) or not 2 <= version <= SCENARIO_SCHEMA_VERSION:
            raise ValueError(
                f"{path}: artifact schema_version {version!r} unsupported "
                f"(this build reads {SCENARIO_SCHEMA} versions "
                f"2..{SCENARIO_SCHEMA_VERSION})"
            )
        return artifact
    if schema != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} artifact")
    version = artifact.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: artifact schema_version {version!r} unsupported "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    return artifact


@dataclass
class ArtifactDiff:
    """The comparison of a current artifact against a baseline."""

    notes: List[str] = field(default_factory=list)
    regressions: List[str] = field(default_factory=list)

    @property
    def has_regressions(self) -> bool:
        return bool(self.regressions)

    def format(self) -> str:
        lines = ["artifact diff vs. baseline:"]
        lines.extend(f"  {note}" for note in self.notes)
        if self.regressions:
            lines.append(f"REGRESSIONS ({len(self.regressions)}):")
            lines.extend(f"  - {regression}" for regression in self.regressions)
        else:
            lines.append("no regressions")
        return "\n".join(lines)


def _target_ok(name: str, value: float) -> Optional[bool]:
    """Band check when the metric name is a paper target, else None."""
    target = PAPER_TARGETS.get(name)
    if target is None:
        return None
    return target.check(value)


def _experiment_view(artifact: Dict[str, Any]) -> Dict[str, Any]:
    """A scenario artifact viewed through the experiment-diff lens.

    Each scenario becomes one "experiment" whose metrics are the
    per-flow latency summaries plus (schema v3) the per-segment means
    — so when a scenario's latency regresses, the diff names the path
    segment (``scenario.<name>.segment.<seg>.mean_us``) that moved.
    Experiment artifacts pass through unchanged.
    """
    if artifact.get("schema") != SCENARIO_SCHEMA:
        return artifact
    experiments: Dict[str, Any] = {}
    for name, entry in artifact.get("scenarios", {}).items():
        result = entry.get("result", {})
        metrics: Dict[str, float] = {}
        for label, stats in sorted(result.get("flows", {}).items()):
            for key in ("mean", "p50", "p99", "p999"):
                if key in stats:
                    metrics[f"scenario.{name}.{label}.{key}_us"] = stats[key]
        for segment, stats in sorted(result.get("segment_latency", {}).items()):
            if "mean" in stats:
                metrics[f"scenario.{name}.segment.{segment}.mean_us"] = stats[
                    "mean"
                ]
        experiments[name] = {"result": result, "metrics": metrics}
    return {"experiments": experiments, "timing": {}}


def reject_partial_artifact(
    artifact: Dict[str, Any], allow_partial: bool = False, context: str = ""
) -> List[Dict[str, Any]]:
    """Refuse an artifact carrying shard failures unless explicitly allowed.

    Sweep artifacts assembled with ``allow_partial`` carry a
    ``failures`` section of structured :class:`ShardFailure`
    diagnostics.  Consumers that would otherwise treat such an artifact
    as a complete run (:func:`diff_artifacts`, ``check_artifact``)
    call this first: it raises :class:`ValueError` naming the failed
    shards, unless the caller opted in with ``allow_partial`` — in
    which case it returns the failure records for reporting.
    """
    failures = artifact.get("failures") or []
    if failures and not allow_partial:
        shards = ", ".join(
            f"{entry.get('task_id', '?')} ({entry.get('exception_type', '?')})"
            for entry in failures
        )
        where = f"{context}: " if context else ""
        raise ValueError(
            f"{where}artifact is partial — {len(failures)} shard(s) "
            f"failed: {shards}; pass allow_partial/--allow-partial to "
            "proceed on the surviving shards"
        )
    return failures


def diff_artifacts(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = 0.0,
    allow_partial: bool = False,
) -> ArtifactDiff:
    """Compare two artifacts; flag regressions.

    A *regression* is: an experiment present in the baseline but absent
    now; a paper-target metric that passed its acceptance band in the
    baseline but fails it now; or a metric drifting more than
    ``tolerance`` (relative) while its band check worsens.  Pure drift
    within bands and result-dict changes are reported as notes.

    Scenario artifacts are accepted on either side (converted via
    :func:`_experiment_view`), so ``diff_artifacts(load_artifact(a),
    load_artifact(b))`` localizes a scenario regression down to the
    breakdown segment whose mean moved.

    An artifact carrying a ``failures`` section (a partial sweep) is
    refused with :class:`ValueError` unless ``allow_partial`` — a diff
    against missing data would report bogus regressions.
    """
    reject_partial_artifact(current, allow_partial, context="current")
    reject_partial_artifact(baseline, allow_partial, context="baseline")
    current = _experiment_view(current)
    baseline = _experiment_view(baseline)
    diff = ArtifactDiff()
    current_experiments = current.get("experiments", {})
    baseline_experiments = baseline.get("experiments", {})

    for name, baseline_entry in baseline_experiments.items():
        current_entry = current_experiments.get(name)
        if current_entry is None:
            diff.regressions.append(f"{name}: missing from current run")
            continue
        if current_entry.get("result") == baseline_entry.get("result"):
            diff.notes.append(f"{name}: identical")
        else:
            diff.notes.append(f"{name}: result changed")
        baseline_metrics = baseline_entry.get("metrics", {})
        current_metrics = current_entry.get("metrics", {})
        for metric, baseline_value in baseline_metrics.items():
            if metric not in current_metrics:
                diff.regressions.append(f"{name}: metric {metric} disappeared")
                continue
            current_value = current_metrics[metric]
            scale = max(1.0, abs(baseline_value))
            drifted = abs(current_value - baseline_value) > tolerance * scale
            was_ok = _target_ok(metric, baseline_value)
            now_ok = _target_ok(metric, current_value)
            if was_ok and now_ok is False:
                target = PAPER_TARGETS[metric]
                diff.regressions.append(
                    f"{name}: {metric} left its paper band "
                    f"[{target.low:g}, {target.high:g}]: "
                    f"{baseline_value:.6g} -> {current_value:.6g}"
                )
            elif drifted and current_value != baseline_value:
                diff.notes.append(
                    f"{name}: {metric} drifted "
                    f"{baseline_value:.6g} -> {current_value:.6g}"
                )
    for name in current_experiments:
        if name not in baseline_experiments:
            diff.notes.append(f"{name}: new experiment (not in baseline)")

    current_timing = current.get("timing", {}).get("per_experiment", {})
    baseline_timing = baseline.get("timing", {}).get("per_experiment", {})
    for name, baseline_entry in baseline_timing.items():
        current_entry = current_timing.get(name)
        if not current_entry:
            continue
        base_rate = baseline_entry.get("events_per_sec") or 0
        now_rate = current_entry.get("events_per_sec") or 0
        if base_rate > 0 and now_rate > 0 and now_rate < base_rate / 2:
            diff.notes.append(
                f"{name}: events/sec dropped {base_rate:.0f} -> {now_rate:.0f} "
                "(perf, informational)"
            )
    return diff


# ---------------------------------------------------------------------------
# Bench-trajectory emitter (BENCH_runner.json).
# ---------------------------------------------------------------------------


def append_bench_run(
    path: str,
    records: List[Dict[str, Any]],
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Append one benchmark run (a list of per-test records) to ``path``.

    The file accumulates a perf trajectory across sessions::

        {"schema": ..., "schema_version": 1,
         "runs": [{"timestamp": ..., "records": [...]}, ...]}

    A missing file starts a fresh trajectory.  An *unreadable* file
    (malformed JSON, wrong shape, I/O error) is preserved: it is moved
    aside to ``<path>.corrupt`` and a warning is emitted before the
    fresh trajectory is written, so a perf history is never silently
    destroyed.

    Timestamps are timezone-aware UTC ISO-8601
    (``datetime.now(timezone.utc).isoformat()``).  Older trajectories
    with local-time ``strftime`` stamps remain valid — timestamps are
    informational and never parsed by the regression gate.
    """
    document: Dict[str, Any] = {
        "schema": "netdimm-repro/bench-trajectory",
        "schema_version": 1,
        "runs": [],
    }
    corrupt_reason: Optional[str] = None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            existing = json.load(handle)
        if isinstance(existing, dict) and isinstance(existing.get("runs"), list):
            document = existing
        else:
            corrupt_reason = "not a bench-trajectory document"
    except FileNotFoundError:
        pass
    except (OSError, ValueError) as error:
        corrupt_reason = str(error)
    if corrupt_reason is not None:
        backup = f"{path}.corrupt"
        try:
            os.replace(path, backup)
        except OSError:
            backup = None
        warnings.warn(
            f"bench trajectory {path} is unreadable ({corrupt_reason}); "
            + (
                f"backed it up to {backup} and starting fresh"
                if backup
                else "could not back it up; starting fresh"
            ),
            RuntimeWarning,
            stacklevel=2,
        )
    run_entry: Dict[str, Any] = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "records": records,
    }
    if meta:
        run_entry["meta"] = meta
    document["runs"].append(run_entry)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    return document


def check_bench_regression(
    document: Dict[str, Any],
    threshold: float = 0.25,
    expect_improvement: Optional[Dict[str, Any]] = None,
) -> List[str]:
    """Compare the newest bench run against the previous one.

    ``document`` is a bench-trajectory (the :func:`append_bench_run`
    schema).  Each test present in the previous run must appear in the
    newest run and keep ``events_per_sec`` within ``threshold``
    (fractional drop) of the previous value; a test that *vanishes*
    from the newest run is itself a failure — a silently-dropped
    benchmark is how regressions hide.  Violations come back as
    human-readable strings; an empty list means the gate passes.
    Fewer than two runs passes (a fresh trajectory has nothing to
    regress against), as do tests that are *new* in the latest run.

    ``expect_improvement`` maps test name → required speedup.  A plain
    float ratio compares against the same test in the *previous* run:
    the newest ``events_per_sec`` must be at least ``ratio`` times the
    previous one.  A ``(ratio, baseline_test)`` tuple compares against
    a *different test in the newest run* — how a fast-path bench pins
    its speedup over its own slow-path twin recorded in the same
    session.  A test named in the map but missing a positive rate in
    the newest run is a failure, as is a missing baseline test — a
    declared speedup cannot be waved through on absent data.  The one
    exception: a previous-run expectation for a test that is *new* in
    the newest run passes — its first recorded rate seeds the baseline
    the next run will be held to — so a new benchmark can land in the
    same change as its gate.
    """
    runs = document.get("runs") or []
    if len(runs) < 2:
        return []

    def by_test(run: Dict[str, Any]) -> Dict[str, float]:
        rates: Dict[str, float] = {}
        for record in run.get("records") or []:
            rate = record.get("events_per_sec")
            test = record.get("test")
            if test and isinstance(rate, (int, float)) and rate > 0:
                rates[test] = float(rate)
        return rates

    previous, current = by_test(runs[-2]), by_test(runs[-1])
    failures: List[str] = []
    for test, base_rate in sorted(previous.items()):
        now_rate = current.get(test)
        if now_rate is None:
            failures.append(
                f"{test}: present in previous run "
                f"({base_rate:.0f} events/sec) but missing from newest run"
            )
            continue
        drop = (base_rate - now_rate) / base_rate
        if drop > threshold:
            failures.append(
                f"{test}: events/sec fell {drop:.0%} "
                f"({base_rate:.0f} -> {now_rate:.0f}, "
                f"threshold {threshold:.0%})"
            )
    for test, expectation in sorted((expect_improvement or {}).items()):
        if isinstance(expectation, tuple):
            ratio, baseline_test = expectation
        else:
            ratio, baseline_test = expectation, None
        now_rate = current.get(test)
        if now_rate is None:
            failures.append(
                f"{test}: expected {ratio:g}x improvement but the test has "
                f"no rate in the newest run"
            )
            continue
        if baseline_test is not None:
            base_rate = current.get(baseline_test)
            if base_rate is None:
                failures.append(
                    f"{test}: expected >= {ratio:g}x vs {baseline_test}, "
                    f"but {baseline_test} has no rate in the newest run"
                )
                continue
            if now_rate < base_rate * ratio:
                failures.append(
                    f"{test}: expected >= {ratio:g}x vs {baseline_test}, "
                    f"got {now_rate / base_rate:.2f}x "
                    f"({base_rate:.0f} -> {now_rate:.0f})"
                )
            continue
        base_rate = previous.get(test)
        if base_rate is None:
            # A test new in the newest run: nothing to improve against
            # yet.  The rate just recorded becomes the baseline its
            # next run is held to, so new benches land gate-first.
            continue
        if now_rate < base_rate * ratio:
            failures.append(
                f"{test}: expected >= {ratio:g}x improvement, got "
                f"{now_rate / base_rate:.2f}x "
                f"({base_rate:.0f} -> {now_rate:.0f})"
            )
    return failures
