"""Drive a simulator one event per kernel call.

:func:`per_event` replaces a simulator's ``run`` and ``run_until`` with
versions that reach the same place through ``Simulator.run(max_events=1)``
calls, one event each: the kernel leaves its loop and re-enters it
between every pair of events, mid-tick included.  A stream recorded
that way must equal one recorded through a single ``run``/``run_until``
call, which drains whole ticks; tests parametrized over :data:`DRIVES`
check both.
"""

from types import GeneratorType

import pytest

from repro.sim import SimulationError, Simulator

DRIVES = pytest.mark.parametrize("drive", ["batched", "per-event"])
"""``batched``: one kernel call drains whole ticks.  ``per-event``: every
event is its own ``run(max_events=1)`` call (see :func:`per_event`)."""


def per_event(sim: Simulator) -> Simulator:
    """Make ``sim.run``/``sim.run_until`` execute one event per kernel call."""
    step = Simulator.run

    def run(until=None, max_events=None):
        executed = 0
        while max_events is None or executed < max_events:
            before = sim.events_fired
            step(sim, until, 1)
            if sim.events_fired == before:
                return sim.now
            executed += 1
        # Budget spent: a zero-event call settles the clock exactly as
        # the single call would (advance to ``until`` when nothing is
        # due by then).
        return step(sim, until, 0)

    def run_until(future, max_events=None):
        if isinstance(future, GeneratorType):
            future = sim.spawn(future).done
        executed = 0
        while not future.done:
            if max_events is not None and executed >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
            before = sim.events_fired
            step(sim, None, 1)
            if sim.events_fired == before:
                raise SimulationError("event queue drained before future completed")
            executed += 1
        return future.value

    sim.run = run
    sim.run_until = run_until
    return sim


def driven(drive: str, sim: Simulator) -> Simulator:
    """``sim`` as the :data:`DRIVES` value ``drive`` runs it."""
    return per_event(sim) if drive == "per-event" else sim
