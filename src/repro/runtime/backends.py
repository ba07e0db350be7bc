"""Execution backends: where a job's shards actually run.

Three backends, one contract — given the job's task list they produce
the *same* outcomes in the *same* (task-index) order, so the artifact
assembled from them is byte-identical regardless of which one ran:

``local``
    Executes shards inline, one at a time, in this process.  The
    reference backend: zero parallelism, zero moving parts.

``pool``
    Fans shards across a ``ProcessPoolExecutor`` (up to ``jobs``
    workers, never more than this process may run on).
    ``executor.map`` preserves submission order, so merge order never
    depends on completion order.  The executor lives as long as the
    backend: later ``run`` calls reuse its warm workers until
    :meth:`Backend.close`.

``workers``
    Spawns ``workers`` independent ``python -m repro sweep-worker``
    processes over a shared run directory.  Nothing but the filesystem
    coordinates them — which is exactly why the same command pointed at
    a network filesystem shards a sweep across *machines*.  Requires a
    ``run_dir``.

A backend is a context manager; leaving the block (or calling
:meth:`Backend.close`) releases whatever processes it still holds.
Any backend checkpoints through :class:`~repro.runtime.state.RunState`
when the sweep names a run directory (``workers`` always does); the
backends only ever execute the tasks they are handed, so a resume can
pass just the pending shards.

Configuration travels as a :class:`SweepConfig`, a keyword-only
dataclass.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Type

from repro.runtime.state import RunState
from repro.runtime.tasks import Outcome, Task, execute

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "SweepConfig",
    "Backend",
    "LocalBackend",
    "ProcessPoolBackend",
    "WorkerPoolBackend",
    "BACKENDS",
    "make_backend",
]


def usable_cpus() -> int:
    """How many CPUs this process may run on (its affinity mask)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True, kw_only=True)
class SweepConfig:
    """How to run a sweep: which backend, how wide, where to checkpoint.

    Keyword-only on purpose: call sites read as
    ``SweepConfig(backend="pool", jobs=4)``, and new knobs never
    reshuffle positional arguments.
    """

    backend: str = "local"
    jobs: int = 1
    """Process-pool width (``pool`` backend only)."""

    workers: int = 2
    """Worker-process count (``workers`` backend only)."""

    run_dir: Optional[str] = None
    """Checkpoint/resume directory; required by the ``workers`` backend."""

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"choose from {sorted(BACKENDS)}"
            )
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


class Backend:
    """Base: run tasks, checkpoint each outcome if a RunState is given."""

    name = "abstract"

    def __init__(self, config: SweepConfig):
        self.config = config

    def run(
        self, tasks: Sequence[Task], state: Optional[RunState] = None
    ) -> List[Outcome]:
        """Execute ``tasks``; return their outcomes in task order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any processes the backend holds (idempotent)."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def _checkpoint(
        outcome: Outcome, state: Optional[RunState]
    ) -> Outcome:
        if state is not None:
            state.record(outcome)
        return outcome


class LocalBackend(Backend):
    """Inline, serial execution — the determinism reference."""

    name = "local"

    def run(
        self, tasks: Sequence[Task], state: Optional[RunState] = None
    ) -> List[Outcome]:
        return [self._checkpoint(execute(task), state) for task in tasks]


class ProcessPoolBackend(Backend):
    """Forked workers on this machine via one reused ProcessPoolExecutor.

    A run is ``min(jobs, tasks, usable CPUs)`` wide; at width 1 it runs
    inline, as a one-wide pool is pure fork overhead.  The executor is
    created by the first wider run and kept for later ones, so a
    calibration pays process start-up once rather than once per round;
    a run wider than the current executor replaces it.  After a worker
    dies (``BrokenProcessPool``) the executor is discarded, and the
    next run starts a fresh one.
    """

    name = "pool"

    def __init__(self, config: SweepConfig):
        super().__init__(config)
        self._executor: Optional["ProcessPoolExecutor"] = None
        self._width = 0

    def run(
        self, tasks: Sequence[Task], state: Optional[RunState] = None
    ) -> List[Outcome]:
        tasks = list(tasks)
        width = min(self.config.jobs, len(tasks), usable_cpus())
        if width <= 1:
            return LocalBackend(self.config).run(tasks, state)
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        if width > self._width:
            self.close()
            self._executor = ProcessPoolExecutor(max_workers=width)
            self._width = width
        try:
            # map preserves submission order: the merge sees shard i
            # at position i no matter which worker finished first.
            return [
                self._checkpoint(outcome, state)
                for outcome in self._executor.map(execute, tasks)
            ]
        except BrokenProcessPool:
            # A worker died; this executor can run nothing more.
            self.close()
            raise

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
            self._width = 0


class WorkerPoolBackend(Backend):
    """``workers`` independent sweep-worker processes over a run dir.

    The parent does no execution: it launches the workers, waits, and
    reads the checkpoints back.  Workers coordinate purely through the
    run directory's atomic renames, so extra workers — on this machine
    or any machine sharing the filesystem — can join the same run
    directory at any time.
    """

    name = "workers"

    def run(
        self, tasks: Sequence[Task], state: Optional[RunState] = None
    ) -> List[Outcome]:
        if state is None:
            raise ValueError("the workers backend requires a run_dir")
        tasks = list(tasks)
        if not tasks:
            return []
        wanted = {task.index for task in tasks}
        procs = [self._spawn(state.run_dir) for _ in range(self.config.workers)]
        failures = []
        for proc in procs:
            stdout, stderr = proc.communicate()
            if proc.returncode != 0:
                failures.append(
                    f"worker pid {proc.pid} exited {proc.returncode}: "
                    f"{(stderr or stdout).strip()}"
                )
        # Dead workers are survivable as long as the queue drained —
        # surviving siblings (or a later resume) pick up their claims.
        remaining = [t for t in state.pending() if t.index in wanted]
        if remaining:
            detail = "; ".join(failures) if failures else "queue not drained"
            raise RuntimeError(
                f"worker pool left {len(remaining)} shard(s) unfinished "
                f"({detail}); resume with: python -m repro resume "
                f"{state.run_dir}"
            )
        return [
            outcome
            for outcome in state.outcomes()
            if outcome.index in wanted
        ]

    @staticmethod
    def _spawn(run_dir: str) -> "subprocess.Popen[str]":
        env = dict(os.environ)
        src_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        # Workers must import repro the same way we did, even when the
        # parent was launched via PYTHONPATH=src rather than an install.
        parts = [src_root] + [
            p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p
        ]
        env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep-worker", run_dir],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )


BACKENDS: Dict[str, Type[Backend]] = {
    "local": LocalBackend,
    "pool": ProcessPoolBackend,
    "workers": WorkerPoolBackend,
}


def make_backend(config: SweepConfig) -> Backend:
    """The configured backend instance (config validates the name)."""
    return BACKENDS[config.backend](config)
