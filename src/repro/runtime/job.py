"""Jobs: the handle a sweep submission returns.

A :class:`Job` owns one sweep — its task list, its
:class:`~repro.runtime.backends.SweepConfig`, and (after :meth:`run`)
its outcomes.  The public surface is deliberately small:

``status()``
    Where the job stands — counts of done/failed/pending shards, read
    live from the run directory when one exists (so ``repro status``
    can watch a sweep another machine is executing).

``result(allow_partial=False)``
    The assembled artifact document.  Raises :class:`JobError` while
    shards are pending or failed, unless ``allow_partial`` — partial
    data is never silently passed off as complete.

``artifact(path, allow_partial=False)``
    ``result()`` serialized to disk, plus the provenance manifest as a
    ``<path>.manifest.json`` sidecar (or ``manifest.json`` inside the
    run directory when checkpointing).

Artifact assembly is kind-specific — experiment shards merge through
the harness, scenario shards through the scenario runner — so each
layer registers an *assembler* for its kind, exactly mirroring the
executor registry in :mod:`repro.runtime.tasks`.  Because the job file
stores only JSON (kind, names, seeds, tasks), :func:`resume` can
rebuild a Job in a fresh interpreter from the run directory alone.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.runtime.backends import Backend, SweepConfig, make_backend
from repro.runtime.provenance import build_manifest
from repro.runtime.state import RunState
from repro.runtime.tasks import (
    Outcome,
    ShardFailure,
    ShardResult,
    Task,
)

__all__ = [
    "Job",
    "JobError",
    "collect",
    "resume",
    "register_assembler",
]


class JobError(RuntimeError):
    """A job cannot deliver what was asked of it (failed/pending shards)."""


Assembler = Callable[[Dict[str, Any], List[ShardResult]], Dict[str, Any]]

JOB_ASSEMBLERS: Dict[str, Assembler] = {}


def register_assembler(kind: str, assembler: Assembler) -> None:
    """Register the artifact assembler for a task kind."""
    JOB_ASSEMBLERS[kind] = assembler


def _ensure_assembler(kind: str) -> Assembler:
    assembler = JOB_ASSEMBLERS.get(kind)
    if assembler is None:
        # Same lazy-import trick as the executor registry: the layers
        # that own each kind register theirs at import time.
        import repro.calib  # noqa: F401
        import repro.experiments.harness  # noqa: F401
        import repro.scenario.runner  # noqa: F401

        assembler = JOB_ASSEMBLERS.get(kind)
    if assembler is None:
        raise ValueError(
            f"no artifact assembler for kind {kind!r}; "
            f"registered: {sorted(JOB_ASSEMBLERS)}"
        )
    return assembler


class Job:
    """One sweep: tasks + config in, outcomes + artifact out."""

    def __init__(
        self,
        *,
        kind: str,
        meta: Dict[str, Any],
        tasks: Sequence[Task],
        config: Optional[SweepConfig] = None,
    ):
        self.kind = kind
        self.meta = dict(meta)
        self.tasks = list(tasks)
        self.config = config or SweepConfig()
        self._state: Optional[RunState] = None
        self._outcomes: Optional[List[Outcome]] = None

    # -- construction from a run directory ------------------------------------

    @classmethod
    def from_state(
        cls, state: RunState, config: Optional[SweepConfig] = None
    ) -> "Job":
        meta = {
            key: value
            for key, value in state.job.items()
            if key not in ("schema", "schema_version", "tasks", "kind")
        }
        job = cls(
            kind=state.job.get("kind", ""),
            meta=meta,
            tasks=state.tasks(),
            config=config or SweepConfig(run_dir=state.run_dir),
        )
        job._state = state
        return job

    # -- execution ------------------------------------------------------------

    def run(self, backend: Optional[Backend] = None) -> "Job":
        """Execute every pending shard; idempotent once complete.

        ``backend`` lends an open backend (and its warm worker
        processes) to this job, e.g. one pool across every round of a
        calibration; the caller closes it.  Without one the job builds
        a backend from its config and closes it before returning.
        """
        if self._outcomes is not None:
            return self
        state = self._ensure_state()
        if backend is None:
            with make_backend(self.config) as owned:
                return self.run(owned)
        if state is None:
            self._outcomes = backend.run(self.tasks)
        else:
            backend.run(state.pending(), state)
            self._outcomes = state.outcomes()
            state.write_manifest(self.manifest())
        return self

    def _ensure_state(self) -> Optional[RunState]:
        if self._state is not None:
            return self._state
        run_dir = self.config.run_dir
        if run_dir is None and self.config.backend == "workers":
            raise ValueError(
                "the workers backend checkpoints through a run "
                "directory; pass SweepConfig(run_dir=...)"
            )
        if run_dir is None:
            return None
        if os.path.exists(os.path.join(run_dir, "job.json")):
            self._state = RunState.load(run_dir)
        else:
            self._state = RunState.create(
                run_dir,
                {"kind": self.kind, **self.meta},
                self.tasks,
            )
        return self._state

    # -- inspection -----------------------------------------------------------

    def outcomes(self) -> List[Outcome]:
        """Every recorded outcome so far, in task order (no execution)."""
        if self._outcomes is not None:
            return list(self._outcomes)
        if self._state is not None:
            return self._state.outcomes()
        return []

    def failures(self) -> List[ShardFailure]:
        return [o for o in self.outcomes() if isinstance(o, ShardFailure)]

    def status(self) -> Dict[str, Any]:
        """Shard counts plus a one-word state, read live when on disk."""
        if self._state is not None:
            counts = self._state.counts()
        else:
            outcomes = self._outcomes or []
            done = sum(1 for o in outcomes if o.ok)
            failed = len(outcomes) - done
            counts = {
                "total": len(self.tasks),
                "done": done,
                "failed": failed,
                "claimed": 0,
                "queued": len(self.tasks) - len(outcomes),
                "pending": len(self.tasks) - done - failed,
            }
        if counts["pending"] > 0:
            word = "running" if counts["claimed"] else "pending"
        else:
            word = "failed" if counts["failed"] else "done"
        return {"state": word, "kind": self.kind, **counts}

    # -- results --------------------------------------------------------------

    def result(self, allow_partial: bool = False) -> Dict[str, Any]:
        """The assembled artifact document for this job's outcomes.

        Refuses partial data by default: pending shards always raise,
        and failed shards raise unless ``allow_partial`` — the caller
        must opt in to an artifact that carries a ``failures`` section
        instead of pretending the sweep succeeded.
        """
        self.run()
        outcomes = self.outcomes()
        pending = len(self.tasks) - len(outcomes)
        if pending:
            raise JobError(
                f"{pending} shard(s) still pending; resume the run "
                "directory before assembling results"
            )
        failures = [o for o in outcomes if not o.ok]
        if failures and not allow_partial:
            lines = "\n  ".join(f.summary() for f in failures)
            raise JobError(
                f"{len(failures)} shard(s) failed:\n  {lines}\n"
                "(pass allow_partial/--allow-partial to assemble the "
                "surviving shards anyway)"
            )
        assembler = _ensure_assembler(self.kind)
        results = [o for o in outcomes if isinstance(o, ShardResult)]
        document = assembler(self.meta, results)
        if failures:
            document["failures"] = [f.to_dict() for f in failures]
        return document

    def artifact(
        self, path: str, allow_partial: bool = False
    ) -> Dict[str, Any]:
        """Write the artifact JSON to ``path`` (plus manifest sidecar)."""
        document = self.result(allow_partial=allow_partial)
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        manifest = self.manifest()
        if self._state is not None:
            self._state.write_manifest(manifest)
        else:
            with open(f"{path}.manifest.json", "w", encoding="utf-8") as handle:
                json.dump(manifest, handle, indent=2, sort_keys=True)
                handle.write("\n")
        return document

    def manifest(self) -> Dict[str, Any]:
        """The provenance manifest for the outcomes recorded so far."""
        return build_manifest(
            {"kind": self.kind, **self.meta},
            self.tasks,
            self.outcomes(),
            backend=self.config.backend,
        )


def collect(
    jobs: Sequence[Job], allow_partial: bool = False
) -> List[Dict[str, Any]]:
    """Run every job and return their artifact documents, in order."""
    return [job.run().result(allow_partial=allow_partial) for job in jobs]


def resume(
    run_dir: str,
    config: Optional[SweepConfig] = None,
    retry_failed: bool = False,
) -> Job:
    """Pick an interrupted sweep back up from its run directory.

    Recovers stale claims (shards a killed worker took with it), then
    executes everything still pending.  Because shards re-execute
    deterministically, the resumed job's artifact is byte-identical to
    the one an uninterrupted run would have produced.
    """
    state = RunState.load(run_dir)
    state.recover_stale_claims()
    if retry_failed:
        state.retry_failed()
    if config is not None and config.run_dir not in (None, run_dir):
        raise ValueError(
            f"config.run_dir {config.run_dir!r} contradicts resume "
            f"target {run_dir!r}"
        )
    if config is None:
        config = SweepConfig(run_dir=run_dir)
    elif config.run_dir is None:
        from dataclasses import replace

        config = replace(config, run_dir=run_dir)
    return Job.from_state(state, config).run()
