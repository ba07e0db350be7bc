"""The budgeted calibration search, on top of the sweep runtime.

One calibration run is a sequence of *rounds*; each round is an
ordinary sweep :class:`~repro.runtime.job.Job` of ``"calib"`` task
shards (one per candidate), so every property the runtime guarantees
for sweeps holds for calibration unchanged: any backend
(``SweepConfig(backend="local" | "pool" | "workers")``), byte-identical
trial results across backends, run-directory checkpoints, and
SIGKILL-then-rerun resume.  With a ``run_dir``, round *k* checkpoints
under ``<run_dir>/round-000k``; re-running the same calibration
replays completed rounds from their checkpoints (the search is a
deterministic function of the trial results) and resumes the
interrupted one.

The strategy is pluggable (:class:`Strategy`); the default
:class:`CoordinateDescent` is a pattern search with grid refinement:
evaluate the ± one-step neighbors of the incumbent along every axis,
move to the best trial seen so far, and halve the step when no
neighbor improves.  Crude, but the loss surface here is a handful of
monotone timing knobs — and the point of the design is that a better
strategy slots in without touching the trial plumbing.

A trial that raises — a candidate that breaks the simulation, a
missing metric — becomes a *failed* :class:`Trial` carrying the
shard's structured diagnostics under ``diagnostics["error"]``.  It
never scores: no fabricated ``inf`` loss, no placeholder result
(SNIPPETS.md Snippet 2's rule), and the search simply routes around
it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.calib.evaluate import select_targets
from repro.calib.space import SearchSpace, param_id
from repro.runtime.backends import Backend, SweepConfig, make_backend
from repro.runtime.job import Job
from repro.runtime.state import RunState
from repro.runtime.tasks import Outcome, ShardResult, Task

__all__ = [
    "Trial",
    "Strategy",
    "CoordinateDescent",
    "CalibrationReport",
    "REPORT_SCHEMA",
    "REPORT_SCHEMA_VERSION",
    "calibrate",
]

REPORT_SCHEMA = "netdimm-repro/calib-report"
REPORT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Trial:
    """One evaluated candidate — successful or failed, never faked.

    ``status == "ok"``: ``loss``/``targets_passed`` are set and
    ``diagnostics["targets"]`` carries the per-target breakdown.
    ``status == "failed"``: the scores are ``None`` (absent from the
    document, not fabricated) and ``diagnostics["error"]`` carries the
    shard's exception type, message, and traceback.
    """

    param_id: str
    overrides: Dict[str, int]
    seed: int
    round_index: int
    status: str
    loss: Optional[float] = None
    targets_passed: Optional[int] = None
    targets_total: Optional[int] = None
    diagnostics: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "param_id": self.param_id,
            "overrides": {k: self.overrides[k] for k in sorted(self.overrides)},
            "seed": self.seed,
            "round": self.round_index,
            "status": self.status,
            "diagnostics": self.diagnostics,
        }
        if self.ok:
            document["loss"] = self.loss
            document["targets_passed"] = self.targets_passed
            document["targets_total"] = self.targets_total
        return document


def _trial_from_outcome(
    outcome: Outcome, overrides: Mapping[str, int], round_index: int
) -> Trial:
    if isinstance(outcome, ShardResult):
        payload = outcome.payload
        return Trial(
            param_id=payload["param_id"],
            overrides=dict(payload["overrides"]),
            seed=outcome.seed,
            round_index=round_index,
            status="ok",
            loss=payload["loss"],
            targets_passed=payload["targets_passed"],
            targets_total=payload["targets_total"],
            diagnostics={"targets": payload["targets"]},
        )
    return Trial(
        param_id=outcome.task_id,
        overrides=dict(overrides),
        seed=outcome.seed,
        round_index=round_index,
        status="failed",
        diagnostics={
            "error": {
                "exception_type": outcome.exception_type,
                "message": outcome.message,
                "traceback": outcome.traceback,
            }
        },
    )


def _best_trial(trials: Sequence[Trial]) -> Optional[Trial]:
    """Most bands passed, then lowest loss, then stable id order."""
    scored = [t for t in trials if t.ok]
    if not scored:
        return None
    return min(
        scored, key=lambda t: (-t.targets_passed, t.loss, t.param_id)
    )


class Strategy:
    """A search strategy: trials so far in, next candidate batch out.

    :meth:`propose` is called once per round with *every* trial
    evaluated so far (in evaluation order) and returns the next
    round's candidates as flat ``{"section.field": ticks}`` points —
    or ``[]`` to end the search.  Implementations must be
    deterministic functions of the trial sequence: that is what makes
    a killed-and-rerun calibration replay to the same answer.
    """

    def propose(
        self, space: SearchSpace, trials: Sequence[Trial]
    ) -> List[Dict[str, int]]:
        raise NotImplementedError


class CoordinateDescent(Strategy):
    """Pattern search with grid refinement (the default strategy)."""

    def __init__(self, shrink: float = 2.0, min_scale: float = 0.05):
        if shrink <= 1:
            raise ValueError("shrink must be > 1")
        self.shrink = shrink
        self.min_scale = min_scale
        self._scale = 1.0

    def _full_point(
        self, space: SearchSpace, trial: Trial
    ) -> Optional[Dict[str, int]]:
        names = {axis.param for axis in space.axes}
        if set(trial.overrides) != names:
            return None  # e.g. the {} reference trial of an off-grid default
        return dict(trial.overrides)

    def propose(
        self, space: SearchSpace, trials: Sequence[Trial]
    ) -> List[Dict[str, int]]:
        seen = {trial.param_id for trial in trials}
        anchored = [
            trial
            for trial in trials
            if trial.ok and self._full_point(space, trial) is not None
        ]
        best = _best_trial(anchored)
        current = (
            self._full_point(space, best) if best else space.defaults()
        )
        while self._scale >= self.min_scale:
            candidates: List[Dict[str, int]] = []
            batch_ids = set()
            for axis in space.axes:
                step = max(1, round(axis.step_ticks * self._scale))
                for delta in (-step, step):
                    point = dict(current)
                    point[axis.param] = axis.clamp(
                        current[axis.param] + delta
                    )
                    identity = param_id(point)
                    if identity in seen or identity in batch_ids:
                        continue
                    batch_ids.add(identity)
                    candidates.append(point)
            if candidates:
                return candidates
            self._scale /= self.shrink
        return []


@dataclass(frozen=True)
class CalibrationReport:
    """Everything one calibration run decided, deterministically.

    The report deliberately contains nothing wall-clock- or
    machine-dependent — trials in evaluation order, losses, and the
    search inputs — so :meth:`to_dict` renders byte-identically for
    serial, pooled, and killed-then-rerun executions of the same
    calibration.  Run-dependent provenance lives in the artifact's
    sidecar manifest (:mod:`repro.calib.artifact`).
    """

    space: SearchSpace
    targets: List[str]
    base_seed: int
    budget: int
    rounds: int
    trials: List[Trial]

    @property
    def best(self) -> Optional[Trial]:
        """The winning trial: most target bands, then lowest loss."""
        return _best_trial(self.trials)

    @property
    def baseline(self) -> Optional[Trial]:
        """The trial that evaluated the shipped defaults."""
        for trial in self.trials:
            if not trial.overrides:
                return trial
            if all(
                trial.overrides.get(axis.param) == axis.default_ticks
                for axis in self.space.axes
            ) and set(trial.overrides) == {
                axis.param for axis in self.space.axes
            }:
                return trial
        return None

    def failures(self) -> List[Trial]:
        return [trial for trial in self.trials if not trial.ok]

    def to_dict(self) -> Dict[str, Any]:
        best = self.best
        baseline = self.baseline
        return {
            "schema": REPORT_SCHEMA,
            "schema_version": REPORT_SCHEMA_VERSION,
            "base_seed": self.base_seed,
            "budget": self.budget,
            "rounds": self.rounds,
            "targets": list(self.targets),
            "search_space": self.space.to_dict(),
            "trials": [trial.to_dict() for trial in self.trials],
            "best": best.param_id if best else None,
            "baseline": baseline.param_id if baseline else None,
        }


def _run_round(
    candidates: Sequence[Mapping[str, int]],
    round_index: int,
    target_names: Sequence[str],
    base_seed: int,
    config: SweepConfig,
    backend: Backend,
) -> List[Outcome]:
    """Execute one candidate batch as a sweep job on ``backend``;
    outcomes in order."""
    tasks = [
        Task(
            kind="calib",
            task_id=param_id(candidate),
            args={
                "param_id": param_id(candidate),
                "overrides": {
                    name: int(candidate[name]) for name in sorted(candidate)
                },
                "targets": list(target_names),
            },
            index=index,
            base_seed=base_seed,
        )
        for index, candidate in enumerate(candidates)
    ]
    meta = {
        "names": [task.task_id for task in tasks],
        "base_seed": base_seed,
        "targets": list(target_names),
        "round": round_index,
    }
    round_config = config
    if config.run_dir is not None:
        round_dir = os.path.join(config.run_dir, f"round-{round_index:04d}")
        round_config = replace(config, run_dir=round_dir)
        if os.path.exists(os.path.join(round_dir, "job.json")):
            state = RunState.load(round_dir)
            recorded = [task.task_id for task in state.tasks()]
            expected = [task.task_id for task in tasks]
            if recorded != expected:
                raise ValueError(
                    f"{round_dir} belongs to a different calibration: "
                    f"its tasks are {recorded}, this search planned "
                    f"{expected}; point --run-dir at a fresh directory"
                )
            state.recover_stale_claims()
            job = Job.from_state(state, round_config)
        else:
            job = Job(
                kind="calib", meta=meta, tasks=tasks, config=round_config
            )
    else:
        job = Job(kind="calib", meta=meta, tasks=tasks, config=round_config)
    job.run(backend)
    return sorted(job.outcomes(), key=lambda outcome: outcome.index)


def calibrate(
    space: Union[SearchSpace, Mapping[str, Any]],
    *,
    targets: Optional[Sequence[str]] = None,
    budget: int = 16,
    base_seed: int = 0,
    config: Optional[SweepConfig] = None,
    strategy: Optional[Strategy] = None,
) -> CalibrationReport:
    """Fit the whitelisted constants to paper targets; return the report.

    ``space`` is a :class:`SearchSpace` (or its mapping form);
    ``targets`` selects registry targets by name or figure prefix
    (default: the ``fig4`` + ``fig11`` set the shipped constants were
    hand-fit against); ``budget`` caps the total number of evaluated
    trials; ``config`` picks the sweep backend exactly as for
    :func:`repro.api.submit`.  The shipped defaults are always
    evaluated as the reference trial, so the report's ``best`` can
    never pass fewer target bands than the defaults do.

    Use :func:`repro.calib.artifact.write_calibration` (or
    ``api.calibrate(..., out_dir=...)``) to persist the result as a
    calibrated-params artifact.
    """
    if not isinstance(space, SearchSpace):
        space = SearchSpace.from_dict(space)
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    config = config or SweepConfig()
    target_names = select_targets(targets)
    strategy = strategy or CoordinateDescent()

    start = space.defaults()
    first_round: List[Dict[str, int]] = []
    if any(
        start[axis.param] != axis.default_ticks for axis in space.axes
    ):
        # The defaults fall outside the search bounds: evaluate them
        # anyway (as the {} reference trial) so the best-vs-shipped
        # comparison is always against the real defaults.
        first_round.append({})
    first_round.append(start)

    trials: List[Trial] = []
    round_index = 0
    pending: List[Dict[str, int]] = first_round
    # One backend for every round: a pool's workers start once.
    with make_backend(config) as backend:
        while pending and len(trials) < budget:
            batch = pending[: budget - len(trials)]
            outcomes = _run_round(
                batch, round_index, target_names, base_seed, config, backend
            )
            for candidate, outcome in zip(batch, outcomes):
                trials.append(
                    _trial_from_outcome(outcome, candidate, round_index)
                )
            round_index += 1
            if len(trials) >= budget:
                break
            pending = strategy.propose(space, trials)
    return CalibrationReport(
        space=space,
        targets=list(target_names),
        base_seed=base_seed,
        budget=budget,
        rounds=round_index,
        trials=trials,
    )
