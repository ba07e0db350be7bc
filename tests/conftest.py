"""Shared fixtures for the test suite."""

import concurrent.futures

import pytest

from repro.experiments import oneway
from repro.params import SystemParams
from repro.sim import Simulator


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def params() -> SystemParams:
    """The default (Table 1) system parameters."""
    return SystemParams()


def run_process(sim: Simulator, body, max_events: int = 1_000_000):
    """Spawn a process and run the simulator until it finishes."""
    process = sim.spawn(body)
    return sim.run_until(process.done, max_events=max_events)


@pytest.fixture
def pool_executors(monkeypatch):
    """Every ``ProcessPoolExecutor`` created during the test, in order."""
    created = []
    real = concurrent.futures.ProcessPoolExecutor

    class Recorded(real):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
    return created


@pytest.fixture
def two_usable_cpus(monkeypatch):
    """The pool backend sees two usable CPUs, so its runs of two or
    more tasks fork a real pool on any machine."""
    monkeypatch.setattr("repro.runtime.backends.usable_cpus", lambda: 2)


@pytest.fixture
def one_way_builds(monkeypatch):
    """How many scenarios ``measure_one_way`` builds during the test:
    a one-element list holding the running count."""
    count = [0]
    real = oneway.build_scenario

    def spy(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(oneway, "build_scenario", spy)
    return count
