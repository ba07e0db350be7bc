"""Order identity of whole scenarios: the executed ``(time, seq)`` stream.

``tests/data/golden_scenario_streams.json`` pins, for a set of model-level
scenarios, the number of executed events, the final clock and a sha256
digest of the ``(time, seq)`` pair of every executed event.  The
scenarios cover every NIC kind's two-node one-way run (the
``measure_one_way`` setup), a mixed-NIC incast over a clos fabric, a
background-load scenario, a faulted two-node run (drops, a NIC stall,
retransmissions) and a small NetDIMM clos incast at three seeds, so
every memory, PCIe, clone and driver transaction path, and the driver's
recovery loop, is on the stream.

Callback owners are deliberately *not* part of the digest: owner labels
name the process a callback belongs to, and a refactor that runs a
sub-transaction inside its caller (instead of in a spawned process of
its own) changes the label while leaving every ``(time, seq)`` in
place.  The digest is what such a refactor must keep.

Regenerate (only after an *intentional* event-order change) with
``python scripts/record_golden_events.py --no-fig5``.
"""

import hashlib
import json
import pathlib
import struct

import pytest

from tests.drive import DRIVES, driven

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_PATH = REPO_ROOT / "tests" / "data" / "golden_scenario_streams.json"

ONE_WAY_SIZES = (64, 1514)
"""Packet sizes of the two-node one-way runs: one cacheline, and an MTU
frame that spans several pages' worth of DMA, clone and copy work."""

EXAMPLE_SPECS = ("incast_mixed.json", "background_load.json")


def _one_way_spec(nic_kind: str, size_bytes: int):
    from repro.scenario import ScenarioSpec

    return ScenarioSpec.two_node(nic_kind, size_bytes, warm_packets=1)


def _example_spec(file_name: str):
    from repro import api

    return api.load_spec(str(REPO_ROOT / "examples" / file_name))


def _chaos_spec():
    """Two NetDIMM nodes with 20% drops and a receive-side NIC stall."""
    from dataclasses import replace

    from repro.faults import FaultSpec, LinkFaultSpec, RecoverySpec, StallSpec
    from repro.scenario import ScenarioSpec

    base = ScenarioSpec.two_node("netdimm", 1024, packets=12)
    faults = FaultSpec(
        links=(LinkFaultSpec(link="*", drop_probability=0.2),),
        stalls=(StallSpec(node="rx", at_ns=2000.0, duration_ns=3000.0),),
        recovery=RecoverySpec(timeout_ns=20_000.0),
    )
    return replace(base, name="chaos-streams", seed=7, faults=faults)


CLOS_INCAST_SEEDS = (1, 11, 2019)
"""Seeds of the four-host NetDIMM clos incast: the traffic plan (and so
the queueing on the shared ToR egress) differs per seed."""


def _clos_incast_spec(seed: int):
    """Four NetDIMM hosts on one ToR, seeded incast into ``h0``."""
    from repro.scenario import FabricSpec, NodeSpec, ScenarioSpec, TrafficSpec

    return ScenarioSpec(
        name=f"clos4-incast-{seed}",
        seed=seed,
        nodes=tuple(
            NodeSpec(name=f"h{index}", nic_kind="netdimm") for index in range(4)
        ),
        fabric=FabricSpec(kind="clos", hosts_per_rack=4, queue_depth=8),
        traffic=(
            TrafficSpec(
                kind="incast",
                dst="h0",
                packets=8,
                size_bytes=1024,
                mean_interarrival_ns=2000.0,
                label="incast",
            ),
        ),
    )


def stream_cases():
    """``(case name, spec factory)`` for every pinned scenario."""
    from repro.driver.registry import NIC_KINDS

    cases = []
    for kind in NIC_KINDS:
        for size in ONE_WAY_SIZES:
            cases.append(
                (f"oneway/{kind}/{size}",
                 lambda kind=kind, size=size: _one_way_spec(kind, size))
            )
    for file_name in EXAMPLE_SPECS:
        cases.append(
            (f"examples/{file_name}",
             lambda file_name=file_name: _example_spec(file_name))
        )
    cases.append(("chaos/netdimm/1024", _chaos_spec))
    for seed in CLOS_INCAST_SEEDS:
        cases.append(
            (f"clos4_incast/netdimm/seed{seed}",
             lambda seed=seed: _clos_incast_spec(seed))
        )
    return cases


def record_case(make_spec, drive="batched") -> dict:
    """Run one scenario under a ``(time, seq)`` digest; return its record.

    ``drive`` is a :data:`tests.drive.DRIVES` value: ``per-event`` runs
    the scenario one event per kernel call.
    """
    from repro.scenario import build_scenario

    digest = hashlib.sha256()
    pack = struct.Struct("<qq").pack
    update = digest.update
    scenario = build_scenario(make_spec())
    sim = driven(drive, scenario.sim)
    sim._trace = lambda when, seq, _owner: update(pack(when, seq))
    scenario.run()
    return {
        "events": sim.events_fired,
        "final_now": sim.now,
        "sha256": digest.hexdigest(),
    }


def record_all() -> dict:
    """Every case's record, keyed by case name."""
    return {name: record_case(make_spec) for name, make_spec in stream_cases()}


_CASES = stream_cases()


@pytest.fixture(scope="module")
def golden():
    document = json.loads(GOLDEN_PATH.read_text())
    assert document["schema"] == "netdimm-repro/golden-scenario-streams"
    return document["streams"]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(name for name, _ in _CASES)


@DRIVES
@pytest.mark.parametrize("case", _CASES, ids=[name for name, _ in _CASES])
def test_stream_matches_golden(golden, case, drive):
    name, make_spec = case
    assert record_case(make_spec, drive) == golden[name]
