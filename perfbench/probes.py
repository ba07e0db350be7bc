"""Measurement from outside the simulator: phase timers, simulated
counts and per-module self time.

Nothing here edits ``repro``.  A :class:`Probe` swaps public entry
points (``ClosFabric.route_paths``, ``FlowSource.install``,
``Scenario.__init__``/``run``, ``Simulator.run``/``run_until``,
``ProcessPoolBackend.run``) for timing wrappers while a ``with`` block
runs and puts the originals back afterwards.  :func:`self_times` folds
a ``cProfile`` run into host seconds per ``repro`` package.
"""

from __future__ import annotations

import cProfile
import dataclasses
import functools
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.analysis.statsdump import find_components
from repro.cache.cache import SetAssociativeCache
from repro.core.rowclone import CloneMode
from repro.flow.source import FlowSource
from repro.net.fabric import ClosFabric
from repro.runtime import ProcessPoolBackend, ShardResult
from repro.scenario.builder import Scenario
from repro.sim.engine import Simulator

import repro

REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

SELF_TIME_MODULES = (
    "sim", "dram", "core", "net", "flow", "driver", "nic", "pcie", "cache",
    "mem", "scenario", "runtime", "calib", "experiments", "analysis",
)
"""Packages whose self time is a per-layer metric (the ROADMAP's layers)."""

SIM_COUNTS = {
    # metric -> (owner package, component stat names summed into it)
    "dram.reads": ("dram", ("reads",)),
    "dram.writes": ("dram", ("writes",)),
    "dram.bus_busy_ticks": ("dram", ("bus_busy_ticks",)),
    "cache.hits": ("cache", ("hits",)),
    "cache.misses": ("cache", ("misses",)),
    "cache.fills": ("cache", ("fills",)),
    "cache.invalidations": ("cache", ("invalidations",)),
    "core.ncache_hits": ("core", ("ncache_hits",)),
    "core.ncache_misses": ("core", ("ncache_misses",)),
    "core.clones": ("core", tuple(f"clones_{mode.value}" for mode in CloneMode)),
    "pcie.mmio_reads": ("pcie", ("mmio_reads",)),
    "pcie.posted_writes": ("pcie", ("posted_writes",)),
}


def package_of(module_or_file: str) -> Optional[str]:
    """``repro.dram.controller`` or ``.../repro/dram/controller.py`` ->
    ``"dram"``; top-level modules map to their own name (``api``);
    anything outside ``repro`` -> ``None``."""
    if module_or_file.startswith(REPRO_DIR):
        head = module_or_file[len(REPRO_DIR):].split(os.sep)[0]
        return head[:-3] if head.endswith(".py") else head
    parts = module_or_file.split(".")
    if parts[0] == "repro" and len(parts) > 1:
        return parts[1]
    return None


class Probe:
    """Phase timers and simulated counts over one ``with`` block.

    ``times[name]``/``calls[name]`` accumulate host seconds and call
    counts per phase; a phase re-entered while already running (a
    nested ``Simulator.run``) counts the call but not the time twice.
    Every finished ``Scenario.run`` adds its fabric counters to
    :attr:`counts`; with ``collect=True`` also its ``sim_ticks`` and
    component statistics.  Collecting walks every model object and
    slows the rest of the run down, so only untimed runs collect.
    With ``phases=False`` only the set-up phases (scenario build, flow
    install, pool back-end runs) are timed, which is all an untraced
    iteration needs for ``setup_s``.
    """

    def __init__(self, *, phases: bool = True, collect: bool = False):
        self.times: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.backend_runs: List[Tuple[float, float, list]] = []
        """Per ``ProcessPoolBackend.run``: (unix start, host seconds,
        outcomes)."""
        self._collect = collect
        self._depth: Dict[str, int] = defaultdict(int)
        self._saved: List[Tuple[Any, str, Any]] = []
        self._targets = [
            (Scenario, "__init__", "scenario.build", None),
            (FlowSource, "install", "flow.install", self._count_demands),
            (ProcessPoolBackend, "run", "runtime.backend_run", None),
        ]
        if phases or collect:
            self._targets.append(
                (Scenario, "run", "scenario.run", self._after_scenario)
            )
        if phases:
            self._targets += [
                (ClosFabric, "route_paths", "net.route", None),
                (Simulator, "run", "sim.run", None),
                (Simulator, "run_until", "sim.run", None),
            ]

    def __enter__(self) -> "Probe":
        for owner, attr, name, after in self._targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._timed(original, name, after))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _timed(self, fn: Callable, name: str, after: Optional[Callable]):
        backend = name == "runtime.backend_run"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            self._depth[name] += 1
            started_at = time.time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._depth[name] -= 1
                if self._depth[name] == 0:
                    self.times[name] += elapsed
            if backend:
                self.backend_runs.append((started_at, elapsed, list(result)))
            if after is not None:
                after(args[0], result)
            return result

        return wrapper

    def _count_demands(self, _source, windows: int) -> None:
        self.counts["flow.demands"] += windows

    def _after_scenario(self, scenario: Scenario, result) -> None:
        self.counts["net.switch_forwards"] += result.fabric["switch_forwards"]
        self.counts["net.egress_stalls"] += result.fabric["egress_stalls"]
        if not self._collect:
            return
        self.counts["sim_ticks"] += result.sim_ticks
        for package, stats in component_stats(scenario):
            for stat, value in stats.items():
                self.counts[f"{package}:{stat}"] += value

    def sim_counts(self) -> Dict[str, int]:
        """The :data:`SIM_COUNTS` metrics from the collected statistics."""
        return {
            metric: sum(self.counts[f"{package}:{stat}"] for stat in stats)
            for metric, (package, stats) in SIM_COUNTS.items()
        }

    def runtime_summary(self, width: int) -> Dict[str, float]:
        """Parent-side runtime figures over every pool back-end run."""
        run_s = sum(elapsed for _start, elapsed, _outcomes in self.backend_runs)
        shards = [o for _s, _e, outcomes in self.backend_runs for o in outcomes]
        exec_s = sum(o.wall_seconds for o in shards)
        lag_s = sum(
            min(o.started_at for o in outcomes) - started_at
            for started_at, _e, outcomes in self.backend_runs
            if outcomes
        )
        return {
            "runtime.backend_run_s": run_s,
            "runtime.backend_calls": len(self.backend_runs),
            "runtime.shard_exec_s": exec_s,
            "runtime.startup_lag_s": lag_s,
            "runtime.parallel_efficiency": (
                exec_s / (width * run_s) if run_s > 0 else 0.0
            ),
            "runtime.shards_failed": sum(
                1 for o in shards if not isinstance(o, ShardResult)
            ),
        }

    def shard_events(self) -> int:
        """Simulated events fired by every shard the pool back-end ran."""
        return sum(
            o.events_fired
            for _s, _e, outcomes in self.backend_runs
            for o in outcomes
            if isinstance(o, ShardResult)
        )


def component_stats(root: Any) -> Iterable[Tuple[str, Dict[str, int]]]:
    """``(owner package, integer stats)`` for every model object under
    ``root``: each component :func:`~repro.analysis.statsdump.find_components`
    reaches, with its recorder report, and each
    :class:`SetAssociativeCache` a component holds directly or through
    one helper object, charged to the package of the object that holds
    the cache (a DDIO partition is ``cache``; the nCache array inside
    NetDIMM is ``core``)."""
    caches = {}
    for component in find_components(root):
        yield package_of(type(component).__module__), {
            stat: value
            for stat, value in component.stats.report().items()
            if isinstance(value, int)
        }
        for holder in (component, *vars(component).values()):
            for value in getattr(holder, "__dict__", {}).values():
                if isinstance(value, SetAssociativeCache):
                    caches[id(value)] = (type(holder).__module__, value)
    for module, cache in caches.values():
        yield package_of(module), dataclasses.asdict(cache.stats)


def self_times(run: Callable[[], Any]) -> Tuple[Dict[str, float], float]:
    """Run ``run()`` under ``cProfile``; return (host seconds of self
    time per ``repro`` package, wall seconds of the profiled call).

    Time in functions outside ``repro`` (stdlib, networkx, builtins) is
    charged to the ``repro`` package that called them.  cProfile keeps
    each function's self time per calling function, so a non-``repro``
    function's self time splits exactly over its direct callers; past
    that one level, a non-``repro`` caller passes it on in proportion
    to the cumulative time each of its own callers spent in it.  Time
    no ``repro`` frame is above lands in ``"other"``.
    """
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
    wall = time.perf_counter() - start
    profiler.create_stats()
    return fold_self_times(profiler.stats), wall


def fold_self_times(stats: Dict[tuple, tuple]) -> Dict[str, float]:
    """Fold ``cProfile`` stats (``Profile.stats``) by ``repro`` package."""
    owners: Dict[tuple, Dict[str, float]] = {}
    in_progress = set()

    def owner_shares(key: tuple) -> Dict[str, float]:
        """Which packages a call to ``key`` is made on behalf of."""
        package = package_of(key[0])
        if package is not None:
            return {package: 1.0}
        if key in owners:
            return owners[key]
        if key in in_progress or key not in stats:
            return {}
        in_progress.add(key)
        shares: Dict[str, float] = defaultdict(float)
        for caller, edge in stats[key][4].items():
            for owner, share in owner_shares(caller).items():
                shares[owner] += edge[3] * share
        in_progress.discard(key)
        total = sum(shares.values())
        if total > 0:
            owners[key] = {o: value / total for o, value in shares.items()}
        elif not stats[key][4]:
            owners[key] = {"other": 1.0}
        else:
            return {}  # only reached through a cycle still being resolved
        return owners[key]

    folded: Dict[str, float] = defaultdict(float)
    for key, (_cc, _nc, tottime, _ct, callers) in stats.items():
        package = package_of(key[0])
        if package is not None:
            folded[package] += tottime
            continue
        charged = 0.0
        for caller, edge in callers.items():
            for owner, share in (owner_shares(caller) or {"other": 1.0}).items():
                folded[owner] += edge[2] * share
            charged += edge[2]
        folded["other"] += max(0.0, tottime - charged)
    return dict(folded)
