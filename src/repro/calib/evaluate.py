"""Candidate evaluation: one parameter set → per-target losses.

A calibration trial is one full experiment pass under a candidate
:class:`~repro.params.SystemParams` (the shipped defaults patched by
the candidate's overrides), scored against the selected subset of the
``PAPER_TARGETS`` registry with :meth:`Target.loss` — normalized so 0
is the paper's value, 1 the band edge.

Only experiments that (a) take a ``params`` argument and (b) publish
registry-named metrics can constrain a fit; :data:`SUPPORTED_FIGURES`
lists them.  Target selection is by full registry name or by figure
prefix (``"fig11"`` selects every ``fig11.*`` target); the default
set — ``fig4`` + ``fig11`` — is the same pair of figures the shipped
constants were hand-calibrated against (``docs/calibration.md``).

The module registers the ``"calib"`` task kind with the sweep
runtime, so a trial is an ordinary shard: executed by any backend,
checkpointed in run directories, SIGKILL-survivable, and — on
failure — recorded as a structured :class:`ShardFailure`, never a
fabricated ``inf`` loss.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.analysis.targets import PAPER_TARGETS, aggregate_loss
from repro.calib.space import nested_overrides
from repro.experiments.oneway import one_way_memo
from repro.params import DEFAULT, apply_overrides

__all__ = [
    "SUPPORTED_FIGURES",
    "DEFAULT_TARGET_SELECTORS",
    "select_targets",
    "experiments_for",
    "evaluate_candidate",
]

SUPPORTED_FIGURES = (
    "fig4",
    "fig5",
    "fig7",
    "fig11",
    "fig12a",
    "fig12b",
    "bandwidth",
)
"""Target-name prefixes whose owning experiments accept ``params``."""

DEFAULT_TARGET_SELECTORS = ("fig4", "fig11")
"""The figures the shipped constants were calibrated against."""


def select_targets(
    selectors: Optional[Sequence[str]] = None,
) -> List[str]:
    """Resolve target selectors to registry names, in registry order.

    Each selector is either a full ``PAPER_TARGETS`` name or a figure
    prefix (everything before the first ``.``).  ``None`` selects the
    default ``fig4`` + ``fig11`` set.  Unknown selectors — and
    selectors whose experiment cannot be re-run under candidate
    params (e.g. a name outside :data:`SUPPORTED_FIGURES`) — raise.

    >>> select_targets(["fig7"])
    ['fig7.lines_per_burst', 'fig7.third_burst_ns']
    """
    chosen = list(selectors) if selectors else list(DEFAULT_TARGET_SELECTORS)
    names: List[str] = []
    for selector in chosen:
        if selector in PAPER_TARGETS:
            matches = [selector]
        else:
            matches = [
                name
                for name in PAPER_TARGETS
                if name.split(".", 1)[0] == selector
            ]
        if not matches:
            figures = sorted({n.split(".", 1)[0] for n in PAPER_TARGETS})
            raise ValueError(
                f"unknown target selector {selector!r}; use a registry "
                f"name or a figure prefix from {figures}"
            )
        for name in matches:
            if name.split(".", 1)[0] not in SUPPORTED_FIGURES:
                raise ValueError(
                    f"target {name!r} cannot constrain a calibration: "
                    f"its experiment does not take candidate params "
                    f"(supported figures: {list(SUPPORTED_FIGURES)})"
                )
            if name not in names:
                names.append(name)
    return names


def experiments_for(target_names: Sequence[str]) -> List[str]:
    """The experiments that must run to measure these targets."""
    seen: List[str] = []
    for name in target_names:
        figure = name.split(".", 1)[0]
        if figure not in seen:
            seen.append(figure)
    return seen


def evaluate_candidate(
    overrides: Mapping[str, int], target_names: Sequence[str]
) -> Dict[str, Any]:
    """Run one candidate's experiments and score them.

    ``overrides`` is the flat ``{"section.field": ticks}`` candidate
    (empty = shipped defaults); ``target_names`` the registry names to
    score.  Returns the JSON-safe trial payload: the aggregate
    normalized loss, how many targets landed in band, and per-target
    diagnostics (measured value, loss, band, verdict).  Any failure —
    a candidate that breaks the simulation, a metric the experiment
    did not emit — propagates as an exception for the runtime's shard
    fence to capture as structured diagnostics.

    The experiments run inside one :func:`one_way_memo`, so a one-way
    point that two figures share (Fig. 4 and Fig. 11 both measure dNIC
    and iNIC at 10–2000 B) is simulated once per call.
    """
    params = apply_overrides(DEFAULT, nested_overrides(overrides))
    metrics: Dict[str, float] = {}
    with one_way_memo():
        for figure in experiments_for(target_names):
            module = importlib.import_module(f"repro.experiments.{figure}")
            metrics.update(module.run(params=params).metrics())
    loss, per_target = aggregate_loss(metrics, names=target_names)
    return {
        "overrides": {name: int(overrides[name]) for name in sorted(overrides)},
        "loss": loss,
        "targets_passed": sum(1 for t in per_target.values() if t["ok"]),
        "targets_total": len(per_target),
        "targets": per_target,
    }


def _calib_executor(args: Dict[str, Any]) -> Dict[str, Any]:
    """The ``"calib"`` task-kind executor: args in, trial payload out."""
    payload = evaluate_candidate(
        args.get("overrides") or {}, args["targets"]
    )
    payload["param_id"] = args.get("param_id", "")
    return payload


def _calib_assembler(
    meta: Dict[str, Any], results: Sequence[Any]
) -> Dict[str, Any]:
    """Assemble one round's shard payloads into a trials document."""
    ordered = sorted(results, key=lambda result: result.index)
    return {
        "schema": "netdimm-repro/calib-trials",
        "schema_version": 1,
        "job": {
            "base_seed": meta.get("base_seed", 0),
            "targets": meta.get("targets", []),
        },
        "trials": [result.payload for result in ordered],
    }
