"""Determinism contract of the DES kernel: byte-for-byte event order.

The kernel promises that events at the same tick fire in scheduling
order (the ``(time, seq)`` total order), and that kernel-internal
optimizations (the same-tick ring, single-hop resume, the future pool)
never change which event fires when.  These tests pin that promise:

* ``test_event_order_matches_golden`` replays a mixed workload —
  processes, sleeps, zero-delay yields, futures, timeouts, ``all_of``,
  prioritized resources, pipes, queues — under a trace hook and compares
  the executed ``(time, seq, owner)`` stream against a golden recorded
  on the pre-optimization kernel (``tests/data/golden_event_order.json``).
* ``test_both_drain_modes_match_golden`` replays it once through single
  kernel calls that drain whole ticks and once one event per kernel
  call, and requires the golden stream from both.
* ``test_fig5_artifact_matches_baseline`` runs the fig5 experiment
  through the harness and diffs its artifact against a baseline written
  by the pre-optimization kernel — metric-for-metric equality, not just
  "no regressions".

Regenerate the goldens (only after an *intentional* event-order change)
with ``python scripts/record_golden_events.py``.
"""

import json
import pathlib

import pytest

from repro.sim import Pipe, Queue, Resource, Simulator
from tests.drive import driven

DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"
GOLDEN_PATH = DATA_DIR / "golden_event_order.json"
FIG5_BASELINE_PATH = DATA_DIR / "fig5_baseline.json"


def mixed_workload(sim: Simulator):
    """Schedule a deterministic workload touching every kernel feature.

    Returns the root process whose completion gates :func:`drive`'s
    ``run_until`` leg.
    """
    port = Resource(sim, "mc_port")
    wire = Pipe(sim, "wire", latency=100, bytes_per_ps=0.01)
    mailbox = Queue(sim, "mailbox")
    log = []

    def producer():
        for i in range(40):
            yield 3 + (i % 5)
            mailbox.put(i)
            if i % 7 == 0:
                yield None
        return "produced"

    def consumer(k):
        total = 0
        for _ in range(20):
            item = yield mailbox.get()
            total += item
            yield from port.use(2 + (item % 3), priority=item % 2)
        return total

    def pipe_user(k):
        for i in range(10):
            payload = yield wire.send(64 + 32 * k + i, payload=(k, i))
            log.append((sim.now, payload))
            yield 5 * k + 1

    def child():
        yield 7
        yield 0
        return "ok"

    def waiter():
        ticks = [sim.timeout(50 * i, i) for i in range(1, 6)]
        values = yield sim.all_of(ticks)
        result = yield sim.spawn(child(), name="child")
        return (sum(values), result)

    sim.spawn(producer(), name="producer")
    for k in range(2):
        sim.spawn(consumer(k), name=f"consumer{k}")
    for k in range(2):
        sim.spawn_at(10 * k, pipe_user(k), name=f"pipe{k}")
    root = sim.spawn(waiter(), name="waiter")
    sim.schedule(500, log.append, (500, "timer"))
    sim.schedule_at(750, log.append, (750, "timer2"))
    return root


def drive(sim: Simulator, root) -> int:
    """Drive the workload through every run-loop entry point."""
    sim.run(until=200)
    sim.run(max_events=25)
    sim.run_until(root.done)
    sim.run(max_events=100)
    sim.run()
    return sim.now


def record_stream(mode="batched"):
    """Execute the workload under trace; return (events, final_now, count).

    ``mode`` is a :data:`tests.drive.DRIVES` value.
    """
    events = []
    sim = driven(
        mode,
        Simulator(trace=lambda when, seq, owner: events.append([when, seq, owner])),
    )
    root = mixed_workload(sim)
    final_now = drive(sim, root)
    return events, final_now, sim.events_fired


class TestGoldenEventOrder:
    def test_event_order_matches_golden(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        events, final_now, fired = record_stream()
        assert final_now == golden["final_now"]
        assert fired == golden["events_fired"]
        assert len(events) == len(golden["events"])
        for index, (seen, expected) in enumerate(zip(events, golden["events"])):
            assert seen == expected, (
                f"event #{index} diverged: got {seen}, golden {expected}"
            )

    def test_stream_is_repeatable(self):
        assert record_stream() == record_stream()

    @pytest.mark.parametrize("stepped", [True, False])
    def test_both_drain_modes_match_golden(self, stepped):
        golden = json.loads(GOLDEN_PATH.read_text())
        events, final_now, fired = record_stream(
            "per-event" if stepped else "batched"
        )
        assert final_now == golden["final_now"]
        assert fired == golden["events_fired"]
        assert events == golden["events"]


class TestFig5ArtifactEquality:
    @pytest.mark.slow
    def test_fig5_artifact_matches_baseline(self):
        from repro.experiments import harness
        from repro.runtime import SweepConfig

        baseline = harness.load_artifact(str(FIG5_BASELINE_PATH))
        run = harness.run_experiments(["fig5"], config=SweepConfig())
        current = run.to_artifact()
        diff = harness.diff_artifacts(current, baseline)
        assert not diff.has_regressions, diff.format()
        assert (
            current["experiments"]["fig5"]["result"]
            == baseline["experiments"]["fig5"]["result"]
        )
        assert (
            current["experiments"]["fig5"]["metrics"]
            == baseline["experiments"]["fig5"]["metrics"]
        )
