"""The unified public facade — the one import the toolkit asks you for.

Everything a user (or the CLI) does goes through a handful of verbs::

    from repro import api

    spec = api.load_spec("examples/incast_mixed.json")
    result = api.simulate(spec)
    print(api.format_report(result))

    job = api.submit(["fig4", "table1"], backend="pool", jobs=2)
    artifact = job.result()

    diff = api.diff_artifacts(api.load_artifact("old.json"), artifact)

* :func:`load_spec` — a scenario spec from a JSON file or mapping.
* :func:`simulate` — one spec → one :class:`ScenarioResult`, optionally
  under a :class:`FaultSpec` (chaos mode).
* :func:`submit` — experiments *or* scenario specs as a
  :class:`~repro.runtime.Job` on a named backend (``"local"``,
  ``"pool"``, ``"workers"``); ``Job.status()`` / ``Job.result()`` /
  ``Job.artifact()`` drive it, :func:`collect` gathers many, and
  :func:`resume` picks a killed sweep back up from its run directory.
* :func:`run_experiment` — the classic convenience wrapper around the
  experiment harness; returns a :class:`HarnessRun` (parallel and
  distributed runs go through :func:`submit`).
* :func:`diff_artifacts` — compare two experiment artifacts
  metric-by-metric against the paper-target bands.
* :func:`format_report` — the human-readable report for either result
  kind.

Another verb, :func:`trace_scenario`, is :func:`simulate` with the
per-packet span tracer attached: it returns the result *and* a
Chrome-trace/Perfetto JSON document of every packet's timeline (see
``docs/observability.md``)::

    result, trace = api.trace_scenario(spec)
    open("trace.json", "w").write(api.dump_trace(trace))

A miniature you can run right here (two NetDIMM nodes on a direct
wire, one measured packet):

>>> from repro import api
>>> spec = api.ScenarioSpec.two_node("netdimm", 256)
>>> api.simulate(spec).packets_delivered
1

And the job surface in one line (an inline experiment sweep):

>>> api.submit("table1").result()["run"]["experiments"]
['table1']

The deeper modules remain importable (this facade is a thin veneer, not
a wall).
"""

from __future__ import annotations

import json
from typing import Any, List, Mapping, Optional, Sequence, Union

from repro.analysis.targets import PAPER_TARGETS, aggregate_loss, registry_markdown
from repro.calib import (
    ARTIFACT_NAME,
    CALIBRATABLE,
    Axis,
    CalibrationReport,
    SearchSpace,
    write_calibration,
)
from repro.calib import calibrate as _calibrate
from repro.driver.registry import NIC_KINDS, make_node
from repro.experiments.harness import (
    ArtifactDiff,
    HarnessRun,
    append_bench_run,
    check_bench_regression,
    reject_partial_artifact,
    submit_experiments,
)
from repro.experiments.harness import diff_artifacts as _diff_artifacts
from repro.experiments.harness import load_artifact
from repro.experiments.harness import run_experiments as _run_experiments
from repro.experiments.oneway import OneWayResult, measure_one_way
from repro.experiments.runner import (
    EXPERIMENTS,
    add_runner_arguments,
    positive_int,
)
from repro.experiments.runner import run_cli as run_experiment_cli
from repro.faults import (
    FAULT_SWITCH_MODES,
    FaultInjector,
    FaultSpec,
    LinkFaultSpec,
    LinkKillSpec,
    RecoverySpec,
    StallSpec,
)
from repro.params import DEFAULT, SystemParams, apply_overrides
from repro.scenario.builder import (
    Scenario,
    ScenarioResult,
    build_scenario,
    dump_artifact,
    scenario_artifact,
)
from repro.scenario.builder import format_report as _format_scenario_report
from repro.runtime import (
    BACKENDS,
    Job,
    JobError,
    LocalBackend,
    ProcessPoolBackend,
    RunState,
    SweepConfig,
    WorkerPoolBackend,
)
from repro.runtime import collect as _collect
from repro.runtime import derive as derive_seed
from repro.runtime import resume as _resume
from repro.runtime.worker import main as sweep_worker_main
from repro.scenario.runner import (
    build_fault_overlay,
    parse_kill,
    run_chaos_cli,
    run_chaos_files,
    run_scenario_files,
    run_traced,
    submit_scenarios,
)
from repro.scenario.runner import run_cli as run_scenario_cli
from repro.scenario.spec import FabricSpec, NodeSpec, ScenarioSpec, TrafficSpec
from repro.telemetry import (
    SpanTracer,
    calibration_trace,
    chrome_trace,
    dump_trace,
    runtime_trace,
    segment_totals,
)
from repro.workloads.trace_io import save_trace
from repro.workloads.traces import ClusterKind, TraceGenerator

__all__ = [
    # the facade verbs
    "load_spec",
    "simulate",
    "trace_scenario",
    "submit",
    "collect",
    "resume",
    "run_experiment",
    "diff_artifacts",
    "format_report",
    "calibrate",
    # calibration toolkit
    "ARTIFACT_NAME",
    "CALIBRATABLE",
    "Axis",
    "CalibrationReport",
    "SearchSpace",
    "aggregate_loss",
    "registry_markdown",
    "write_calibration",
    # the sweep runtime
    "BACKENDS",
    "Job",
    "JobError",
    "LocalBackend",
    "ProcessPoolBackend",
    "WorkerPoolBackend",
    "RunState",
    "SweepConfig",
    "derive_seed",
    "reject_partial_artifact",
    "submit_experiments",
    "submit_scenarios",
    "sweep_worker_main",
    # telemetry
    "SpanTracer",
    "calibration_trace",
    "chrome_trace",
    "dump_trace",
    "run_traced",
    "runtime_trace",
    "segment_totals",
    # scenario toolkit
    "FabricSpec",
    "NodeSpec",
    "Scenario",
    "ScenarioResult",
    "ScenarioSpec",
    "TrafficSpec",
    "build_scenario",
    "dump_artifact",
    "run_scenario_cli",
    "run_scenario_files",
    "scenario_artifact",
    # faults / chaos
    "FAULT_SWITCH_MODES",
    "FaultInjector",
    "FaultSpec",
    "LinkFaultSpec",
    "LinkKillSpec",
    "RecoverySpec",
    "StallSpec",
    "build_fault_overlay",
    "parse_kill",
    "run_chaos_cli",
    "run_chaos_files",
    # experiments
    "EXPERIMENTS",
    "HarnessRun",
    "OneWayResult",
    "add_runner_arguments",
    "append_bench_run",
    "check_bench_regression",
    "load_artifact",
    "measure_one_way",
    "positive_int",
    "run_experiment_cli",
    # params / registry / workloads
    "DEFAULT",
    "NIC_KINDS",
    "PAPER_TARGETS",
    "ClusterKind",
    "SystemParams",
    "TraceGenerator",
    "apply_overrides",
    "make_node",
    "save_trace",
]


def load_spec(source: Union[str, Mapping[str, Any]]) -> ScenarioSpec:
    """A :class:`ScenarioSpec` from a JSON file path or a mapping."""
    if isinstance(source, Mapping):
        return ScenarioSpec.from_dict(source)
    with open(source, "r", encoding="utf-8") as handle:
        return ScenarioSpec.from_dict(json.load(handle))


def simulate(
    spec: ScenarioSpec,
    base_params: Optional[SystemParams] = None,
    faults: Optional[FaultSpec] = None,
) -> ScenarioResult:
    """Build and run one scenario; returns its result.

    ``faults`` (when given) replaces the spec's own ``faults`` section —
    the quick way to re-run an existing scenario under chaos.
    """
    if faults is not None:
        from dataclasses import replace

        spec = replace(spec, faults=faults)
    return build_scenario(spec, base_params=base_params).run()


def trace_scenario(
    spec: ScenarioSpec,
    base_params: Optional[SystemParams] = None,
    faults: Optional[FaultSpec] = None,
):
    """:func:`simulate` with the span tracer on.

    Returns ``(result, trace_document)`` where ``trace_document`` is a
    Chrome-trace/Perfetto JSON document of every measured packet's
    per-hop timeline (serialize it with :func:`dump_trace`).  The
    simulation's event stream — and therefore the result — is identical
    to an untraced :func:`simulate` of the same spec.
    """
    if faults is not None:
        from dataclasses import replace

        spec = replace(spec, faults=faults)
    tracer = SpanTracer()
    result = build_scenario(spec, base_params=base_params, tracer=tracer).run()
    return result, chrome_trace([(spec.name, tracer.to_payload())])


def submit(
    spec_or_experiment: Any,
    backend: str = "local",
    *,
    jobs: int = 1,
    workers: int = 2,
    run_dir: Optional[str] = None,
    base_seed: int = 0,
    chaos: bool = False,
    faults: Optional[FaultSpec] = None,
) -> Job:
    """Submit experiments or scenarios as a :class:`Job` on a backend.

    ``spec_or_experiment`` is an experiment name (or list of names, or
    ``None``/``"all"`` for every experiment), a scenario spec file path
    (or list of paths), or a :class:`ScenarioSpec` (or list of specs).
    ``backend`` selects by name: ``"local"`` (inline), ``"pool"``
    (``jobs`` processes), ``"workers"`` (``workers`` detached worker
    processes over ``run_dir`` — the resumable, distributable path).

    The returned job has not run yet: ``job.run()`` executes it,
    ``job.status()`` reports shard counts, ``job.result()`` assembles
    the artifact (refusing partial runs unless asked), and
    ``job.manifest()`` is the provenance sidecar.
    """
    config = SweepConfig(
        backend=backend, jobs=jobs, workers=workers, run_dir=run_dir
    )
    items = (
        list(spec_or_experiment)
        if isinstance(spec_or_experiment, (list, tuple))
        else [spec_or_experiment]
    )
    if spec_or_experiment is None or all(
        isinstance(item, str) and (item in EXPERIMENTS or item == "all")
        for item in items
    ):
        names = None if spec_or_experiment is None else items
        if chaos or faults is not None:
            raise ValueError("chaos/faults only apply to scenario submissions")
        return submit_experiments(names, config=config, base_seed=base_seed)
    if all(isinstance(item, (str, ScenarioSpec)) for item in items):
        unknown = [
            item
            for item in items
            if isinstance(item, str) and not item.endswith(".json")
        ]
        if unknown:
            raise ValueError(
                f"{unknown[0]!r} is neither a known experiment "
                f"({', '.join(sorted(EXPERIMENTS))}) nor a scenario "
                "spec file (*.json)"
            )
        # A fault overlay implies a chaos run, same as run_traced.
        return submit_scenarios(
            items,
            config=config,
            chaos=chaos or faults is not None,
            faults=faults,
        )
    raise ValueError(
        "submit() takes experiment names, scenario spec paths, or "
        "ScenarioSpec objects (not a mixture)"
    )


def collect(
    jobs: Sequence[Job], allow_partial: bool = False
) -> List[Mapping[str, Any]]:
    """Run every job and return their artifact documents, in order."""
    return _collect(jobs, allow_partial=allow_partial)


def resume(
    run_dir: str,
    config: Optional[SweepConfig] = None,
    retry_failed: bool = False,
) -> Job:
    """Resume an interrupted sweep from its run directory.

    Stale claims (shards a killed worker held) are re-enqueued and
    everything pending re-executes; the completed job's artifact is
    byte-identical to an uninterrupted run's.
    """
    return _resume(run_dir, config=config, retry_failed=retry_failed)


def calibrate(
    space: Union[str, Mapping[str, Any], SearchSpace],
    *,
    targets: Optional[Sequence[str]] = None,
    budget: int = 16,
    backend: str = "local",
    jobs: int = 1,
    workers: int = 2,
    run_dir: Optional[str] = None,
    base_seed: int = 0,
    out_dir: Optional[str] = None,
    strategy: Optional[Any] = None,
) -> CalibrationReport:
    """Fit the *Calibrated* constants to paper targets; see
    ``docs/calibration.md``.

    ``space`` is a :class:`SearchSpace`, its mapping form, or the path
    of a search-space JSON file; ``targets`` selects ``PAPER_TARGETS``
    entries by name or figure prefix (default ``fig4`` + ``fig11``);
    ``budget`` caps the number of evaluated trials.  ``backend`` /
    ``jobs`` / ``workers`` / ``run_dir`` mean exactly what they mean
    for :func:`submit` — trials are ordinary sweep shards, and with a
    ``run_dir`` a killed calibration re-run with the same arguments
    resumes from its per-round checkpoints.  With ``out_dir`` the
    winning candidate is persisted as a versioned calibrated-params
    artifact (plus sidecar manifest and full trial log) via
    :func:`write_calibration` — into a fresh directory, never over an
    existing file.

    >>> from repro import api
    >>> report = api.calibrate(
    ...     {"axes": [{"param": "software.flush_base",
    ...                "low_ns": 35, "high_ns": 55, "step_ns": 10}]},
    ...     targets=["fig11.netdimm_total_us.64B"], budget=2)
    >>> report.best.targets_total
    1
    """
    if isinstance(space, str):
        with open(space, "r", encoding="utf-8") as handle:
            space = json.load(handle)
    config = SweepConfig(
        backend=backend, jobs=jobs, workers=workers, run_dir=run_dir
    )
    report = _calibrate(
        space,
        targets=targets,
        budget=budget,
        base_seed=base_seed,
        config=config,
        strategy=strategy,
    )
    if out_dir is not None:
        write_calibration(report, out_dir)
    return report


def run_experiment(names: Optional[Sequence[str]] = None) -> HarnessRun:
    """Run the paper's experiments (all when ``names`` is None), inline.

    A thin wrapper over the harness; use :func:`submit` (or
    ``run_experiments(config=SweepConfig(...))``) for parallel and
    distributed runs.
    """
    return _run_experiments(names, config=SweepConfig())


def diff_artifacts(
    current: Mapping[str, Any],
    baseline: Mapping[str, Any],
    tolerance: float = 0.0,
    allow_partial: bool = False,
) -> ArtifactDiff:
    """Metric-by-metric comparison of two experiment artifacts
    (:func:`repro.experiments.harness.diff_artifacts` argument order:
    current first, baseline second).  Artifacts carrying shard
    failures are refused unless ``allow_partial``."""
    return _diff_artifacts(current, baseline, tolerance, allow_partial)


def format_report(result: Union[ScenarioResult, HarnessRun]) -> str:
    """The human-readable report for either result kind."""
    if isinstance(result, ScenarioResult):
        return _format_scenario_report(result)
    if isinstance(result, HarnessRun):
        return result.report_text()
    raise TypeError(
        f"cannot format a {type(result).__name__}; "
        "expected ScenarioResult or HarnessRun"
    )
