"""Declarative scenario layer: many-node simulations from one spec.

* :mod:`repro.scenario.spec` — :class:`ScenarioSpec` and friends: a
  JSON-round-trippable description of nodes (NIC kind + parameter
  overrides), fabric topology, and seeded traffic.
* :mod:`repro.scenario.traffic` — deterministic traffic planning
  (oneway / incast / uniform / Facebook-trace generators).
* :mod:`repro.scenario.builder` — instantiates the whole cluster into
  one simulator and replays the plan with per-flow latency histograms.
* :mod:`repro.scenario.runner` — spec files → artifact, serial or
  fanned over worker processes (``python -m repro run-scenario``).

The experiment layer sits on top: ``measure_one_way`` is the trivial
two-node scenario, and fig12a's ``mode="fabric"`` replays the cluster
traces over the live fabric built here.  Running a spec end to end
is :func:`repro.api.simulate`.
"""

from repro.scenario.builder import (
    SCENARIO_SCHEMA,
    SCENARIO_SCHEMA_VERSION,
    Scenario,
    ScenarioResult,
    build_scenario,
)
from repro.scenario.spec import (
    FabricSpec,
    NodeSpec,
    ScenarioSpec,
    TrafficSpec,
)
from repro.scenario.traffic import FlowPacket, plan_traffic

__all__ = [
    "FabricSpec",
    "FlowPacket",
    "NodeSpec",
    "SCENARIO_SCHEMA",
    "SCENARIO_SCHEMA_VERSION",
    "Scenario",
    "ScenarioResult",
    "ScenarioSpec",
    "TrafficSpec",
    "build_scenario",
    "plan_traffic",
]
