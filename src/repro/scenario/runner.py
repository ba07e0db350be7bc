"""Run scenario spec files, serially or fanned over worker processes.

Each spec file is an independent simulation, so a scenario run is a
natural :mod:`repro.runtime` sweep: one task per spec, executed on any
backend — inline, a process pool (``--jobs N``), or a detached worker
pool over a resumable run directory.  Per-scenario results are
deterministic and the artifact is assembled in input order, so the
artifacts from every backend are byte-identical — pinned by the
scenario determinism tests.

``run-chaos`` is the fault-injecting sibling: the same machinery, but
every spec gets a :class:`~repro.faults.FaultSpec` attached (built from
CLI flags, or the spec file's own ``faults`` section, or an all-zero
default that still arms the recovery path).  Fault verdicts are keyed
on the spec seed and packet identity — never on process layout — so
chaos artifacts are backend-independent too.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.faults import FaultSpec, LinkFaultSpec, LinkKillSpec, RecoverySpec
from repro.runtime.backends import SweepConfig, make_backend
from repro.runtime.job import Job, register_assembler
from repro.runtime.tasks import (
    ShardResult,
    Task,
    encode_payload,
    decode_payload,
    register_kind,
)
from repro.scenario.builder import (
    SCENARIO_SCHEMA,
    SCENARIO_SCHEMA_VERSION,
    build_scenario,
    dump_artifact,
    format_report,
)
from repro.scenario.spec import ScenarioSpec
from repro.telemetry import SpanTracer, chrome_trace, dump_trace


def _run_one(
    spec: ScenarioSpec,
    faults: Optional[FaultSpec] = None,
    chaos: bool = False,
    trace: bool = False,
) -> Tuple[Dict[str, Any], Dict[str, Any], str, Optional[Dict[str, Any]]]:
    """One spec → (spec, result, report, trace), all JSON-safe.

    Chaos mode: ``faults`` (when given) replaces the spec's own
    ``faults`` section; when neither exists, a default
    :class:`FaultSpec` — zero fault probability, recovery armed — is
    attached so the run exercises the reliable-delivery path end to
    end.
    """
    if chaos:
        if faults is not None:
            spec = replace(spec, faults=faults)
        elif spec.faults is None:
            spec = replace(spec, faults=FaultSpec())
    tracer = SpanTracer() if trace else None
    scenario = build_scenario(spec, tracer=tracer)
    result = scenario.run()
    payload = tracer.to_payload() if tracer is not None else None
    return spec.to_dict(), result.to_dict(), format_report(result), payload


def run_spec_file(
    path: str, trace: bool = False
) -> Tuple[Dict[str, Any], Dict[str, Any], str, Optional[Dict[str, Any]]]:
    """Worker entry point: one spec file → (spec, result, report, trace).

    Module-level (picklable) so a process pool can run it; returns only
    JSON-safe payloads so results cross process boundaries unchanged.
    The fourth element is the span-tracer payload when ``trace`` is on,
    else ``None``.
    """
    return _run_one(ScenarioSpec.load(path), trace=trace)


def run_chaos_file(
    path: str, faults: Optional[FaultSpec] = None, trace: bool = False
) -> Tuple[Dict[str, Any], Dict[str, Any], str, Optional[Dict[str, Any]]]:
    """Worker entry point for chaos runs: one spec file under faults."""
    return _run_one(
        ScenarioSpec.load(path), faults=faults, chaos=True, trace=trace
    )


# ---------------------------------------------------------------------------
# The "scenario" runtime kind: one task per spec, any backend.
# ---------------------------------------------------------------------------


def _scenario_executor(args: Dict[str, Any]) -> Any:
    """Run one scenario task from its JSON args.

    A task names its spec by file (``"path"``) or carries it inline
    (``"spec"``, a :meth:`ScenarioSpec.to_dict` document); the optional
    fault overlay rides as an encoded payload (FaultSpec is not
    JSON-native).
    """
    if args.get("spec") is not None:
        spec = ScenarioSpec.from_dict(args["spec"])
    else:
        spec = ScenarioSpec.load(args["path"])
    faults = args.get("faults")
    return _run_one(
        spec,
        faults=decode_payload(faults) if faults is not None else None,
        chaos=bool(args.get("chaos")),
        trace=bool(args.get("trace")),
    )


def scenario_tasks(
    sources: Sequence[Union[str, ScenarioSpec]],
    chaos: bool = False,
    faults: Optional[FaultSpec] = None,
    trace: bool = False,
) -> List[Task]:
    """One runtime task per spec (file path or in-memory spec)."""
    tasks: List[Task] = []
    for index, source in enumerate(sources):
        if isinstance(source, ScenarioSpec):
            args: Dict[str, Any] = {"spec": source.to_dict()}
            label = source.name
        else:
            args = {"path": source}
            label = os.path.basename(source)
        args["chaos"] = chaos
        args["trace"] = trace
        args["faults"] = encode_payload(faults) if faults is not None else None
        tasks.append(
            Task(
                kind="scenario",
                task_id=f"scenario[{index}:{label}]",
                args=args,
                index=index,
            )
        )
    return tasks


def submit_scenarios(
    sources: Sequence[Union[str, ScenarioSpec]],
    config: Optional[SweepConfig] = None,
    chaos: bool = False,
    faults: Optional[FaultSpec] = None,
) -> Job:
    """A scenario sweep as a runtime :class:`Job` (not yet run).

    ``Job.result()`` assembles the versioned scenario artifact —
    byte-identical across backends; ``Job.manifest()`` the provenance
    sidecar.
    """
    tasks = scenario_tasks(sources, chaos=chaos, faults=faults)
    return Job(
        kind="scenario",
        meta={"names": [task.task_id for task in tasks], "base_seed": 0},
        tasks=tasks,
        config=config,
    )


def _scenario_assembler(
    meta: Dict[str, Any], results: List[ShardResult]
) -> Dict[str, Any]:
    """Assemble the scenario artifact from shard payloads (input order)."""
    document, _reports, _trace = _assemble(
        [shard.payload for shard in results]
    )
    return document


register_kind("scenario", _scenario_executor)
register_assembler("scenario", _scenario_assembler)


def _assemble(
    outcomes,
) -> Tuple[Dict[str, Any], List[str], Optional[Dict[str, Any]]]:
    reports = [report for _spec, _result, report, _trace in outcomes]
    document = {
        "schema": SCENARIO_SCHEMA,
        "schema_version": SCENARIO_SCHEMA_VERSION,
        "scenarios": {
            spec["name"]: {"spec": spec, "result": result}
            for spec, result, _report, _trace in outcomes
        },
    }
    # Traces merge in input order, so pids (and the whole Chrome-trace
    # document) are byte-identical between serial and --jobs N runs.
    entries = [
        (spec["name"], payload)
        for spec, _result, _report, payload in outcomes
        if payload is not None
    ]
    trace_document = chrome_trace(entries) if entries else None
    return document, reports, trace_document


def _run_files(
    paths: Sequence[str],
    jobs: int,
    chaos: bool = False,
    faults: Optional[FaultSpec] = None,
    trace: bool = False,
    config: Optional[SweepConfig] = None,
):
    """Execute one task per spec on a runtime backend and assemble.

    ``jobs`` maps onto ``SweepConfig(backend="pool", jobs=N)`` (inline
    for 1) unless an explicit ``config`` overrides it.  A shard failure
    raises — the scenario CLI keeps its fail-loud contract; the job
    surface (:func:`submit_scenarios`) records failures instead.
    """
    if config is None:
        config = SweepConfig(
            backend="pool" if jobs > 1 else "local", jobs=max(jobs, 1)
        )
    tasks = scenario_tasks(paths, chaos=chaos, faults=faults, trace=trace)
    with make_backend(config) as backend:
        outcomes = backend.run(tasks)
    failures = [outcome for outcome in outcomes if not outcome.ok]
    if failures:
        lines = "\n  ".join(failure.summary() for failure in failures)
        raise ValueError(f"{len(failures)} scenario(s) failed:\n  {lines}")
    return _assemble([outcome.payload for outcome in outcomes])


def run_scenario_files(
    paths: Sequence[str],
    jobs: int = 1,
    config: Optional[SweepConfig] = None,
) -> Tuple[Dict[str, Any], List[str]]:
    """Run every spec file; returns (artifact document, reports).

    ``jobs=1`` runs inline (the debuggable fallback); more jobs fan the
    files over a process pool; an explicit ``config`` selects any
    runtime backend.  Output order always follows input order.
    """
    document, reports, _trace = _run_files(paths, jobs, config=config)
    return document, reports


def run_chaos_files(
    paths: Sequence[str],
    faults: Optional[FaultSpec] = None,
    jobs: int = 1,
    config: Optional[SweepConfig] = None,
) -> Tuple[Dict[str, Any], List[str]]:
    """The chaos twin of :func:`run_scenario_files`.

    The (picklable, frozen) fault spec rides inside each task's args,
    so every backend — pool workers included — applies the same
    overlay; output order always follows input order.
    """
    document, reports, _trace = _run_files(
        paths, jobs, chaos=True, faults=faults, config=config
    )
    return document, reports


def run_traced(
    paths: Sequence[str],
    jobs: int = 1,
    faults: Optional[FaultSpec] = None,
    chaos: bool = False,
) -> Tuple[Dict[str, Any], List[str], Dict[str, Any]]:
    """Run spec files with span tracing on; returns
    ``(artifact document, reports, Chrome-trace document)``.

    One trace process per scenario (pid = input order), merged into one
    Chrome/Perfetto document.  Like the artifact, the trace is assembled
    in input order from per-scenario deterministic payloads, so serial
    and ``jobs > 1`` runs produce byte-identical trace JSON.
    """
    document, reports, trace_document = _run_files(
        paths, jobs, chaos=chaos or faults is not None, faults=faults, trace=True
    )
    if trace_document is None:  # no paths at all
        trace_document = chrome_trace([])
    return document, reports, trace_document


def _check_unique_names(paths: Sequence[str]) -> None:
    names = set()
    for path in paths:
        spec = ScenarioSpec.load(path)
        if spec.name in names:
            raise ValueError(f"duplicate scenario name {spec.name!r} in inputs")
        names.add(spec.name)


def _emit(
    document: Dict[str, Any],
    reports: List[str],
    json_path: str,
    trace_document: Optional[Dict[str, Any]] = None,
    trace_path: str = "",
) -> Tuple[str, int]:
    output = "\n\n".join(reports)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            handle.write(dump_artifact(document))
        output += f"\nwrote artifact: {json_path}"
    if trace_path and trace_document is not None:
        with open(trace_path, "w", encoding="utf-8") as handle:
            handle.write(dump_trace(trace_document))
        output += f"\nwrote trace: {trace_path}"
    return output, 0


def run_cli(
    paths: Sequence[str], jobs: int = 1, json_path: str = "", trace_path: str = ""
) -> Tuple[str, int]:
    """CLI body for ``repro run-scenario``; returns (output, exit code)."""
    _check_unique_names(paths)
    if trace_path:
        document, reports, trace_document = run_traced(paths, jobs=jobs)
    else:
        document, reports = run_scenario_files(paths, jobs=jobs)
        trace_document = None
    return _emit(document, reports, json_path, trace_document, trace_path)


def parse_kill(text: str) -> LinkKillSpec:
    """Parse a ``--kill`` argument: ``LINK@AT_NS`` or ``LINK@AT_NS..RESTORE_NS``."""
    link, sep, when = text.rpartition("@")
    if not sep or not link:
        raise ValueError(
            f"bad --kill {text!r} (expected LINK@AT_NS or LINK@AT_NS..RESTORE_NS)"
        )
    restore: Optional[float] = None
    if ".." in when:
        at_text, _, restore_text = when.partition("..")
        restore = float(restore_text)
    else:
        at_text = when
    return LinkKillSpec(link=link, at_ns=float(at_text), restore_ns=restore)


def build_fault_overlay(
    drop: float = 0.0,
    corrupt: float = 0.0,
    switch_mode: str = "backpressure",
    kills: Sequence[LinkKillSpec] = (),
    timeout_ns: float = 50_000.0,
    backoff: float = 2.0,
    budget: int = 5,
) -> FaultSpec:
    """Assemble the ``run-chaos`` CLI flags into one :class:`FaultSpec`."""
    links: Tuple[LinkFaultSpec, ...] = ()
    if drop or corrupt:
        links = (
            LinkFaultSpec(
                link="*", drop_probability=drop, corrupt_probability=corrupt
            ),
        )
    return FaultSpec(
        links=links,
        kills=tuple(kills),
        switch_drop_mode=switch_mode,
        recovery=RecoverySpec(
            timeout_ns=timeout_ns, backoff=backoff, max_retransmits=budget
        ),
    )


def run_chaos_cli(
    paths: Sequence[str],
    faults: Optional[FaultSpec] = None,
    jobs: int = 1,
    json_path: str = "",
    trace_path: str = "",
) -> Tuple[str, int]:
    """CLI body for ``repro run-chaos``; returns (output, exit code).

    ``faults=None`` defers to each spec file's own ``faults`` section
    (falling back to the zero-fault default with recovery armed).
    """
    _check_unique_names(paths)
    if trace_path:
        document, reports, trace_document = run_traced(
            paths, jobs=jobs, faults=faults, chaos=True
        )
    else:
        document, reports = run_chaos_files(paths, faults=faults, jobs=jobs)
        trace_document = None
    return _emit(document, reports, json_path, trace_document, trace_path)
