"""Kernel microbenchmarks: pure event dispatch, no hardware models.

The experiment benches (``test_bench_fig*``) measure whole-model
throughput, where per-event cost is dominated by model code.  These
benches isolate the DES kernel itself — the heap/ring loop, process
stepping, future resume, sub-transaction calls and resource
arbitration — so kernel optimizations show up undiluted.  Like every
bench in this directory, each test appends a ``(wall_seconds,
events_fired, events_per_sec)`` record to ``BENCH_runner.json`` via the
session fixture in ``conftest.py``; the events/sec trajectory of these
tests is the acceptance metric for kernel-performance PRs.

Workload shapes (all deterministic):

* **scheduling** — a self-rescheduling callback chain cycling delays
  ``(0, 0, 0, 1)``: 75% same-tick events, matching the zero-delay-heavy
  profile of real process stepping, with enough nonzero delays to keep
  the heap path honest.
* **ping-pong** — two processes exchanging a counter through a pair of
  queues: every event is a future completion + process resume, the
  hottest path in the driver/NIC models.
* **contention** — many processes hammering one prioritized
  :class:`~repro.sim.resource.Resource` so the waiter queue stays deep
  (~200 entries), exercising waiter insertion and grant hand-off.
* **call** / **spawn-await** — overlapping transactions, each a
  two-level chain of sub-transactions (the shape of a driver step
  calling a memory-port read that calls a device access).  The call
  bench yields each sub-transaction generator (it runs inside the
  caller); its twin spawns each one and waits on its done-future.  Both
  execute the identical event stream, so their events/sec ratio is the
  wall-time saving of a call over a spawned process.  They share one
  interleaved measurement (see ``_call_timings``).
"""

import functools
import gc
import time
from typing import Dict, Tuple

from repro.sim.engine import Simulator
from repro.sim.resource import Queue, Resource

from benchmarks.conftest import report, report_rate

SCHEDULING_EVENTS = 300_000
PINGPONG_ROUNDS = 60_000
CONTENTION_WORKERS = 200
CONTENTION_ITERATIONS = 120
CALL_TRANSACTIONS = 4_000
CALL_REPEATS = 7


def test_bench_kernel_scheduling():
    """Pure scheduling: one callback chain, 75% same-tick events."""
    sim = Simulator()
    delays = (0, 0, 0, 1)
    fired = 0

    def tick():
        nonlocal fired
        fired += 1
        if fired < SCHEDULING_EVENTS:
            sim.schedule(delays[fired & 3], tick)

    sim.schedule(0, tick)
    sim.run()
    assert fired == SCHEDULING_EVENTS
    report(
        "kernel microbenchmark: pure scheduling",
        f"{fired} callback events, final tick {sim.now}",
    )


def test_bench_kernel_pingpong():
    """Process ping-pong: every event is a future completion + resume."""
    sim = Simulator()
    ping = Queue(sim, "ping")
    pong = Queue(sim, "pong")

    def player(inbox, outbox, rounds):
        ball = 0
        for _ in range(rounds):
            ball = yield inbox.get()
            outbox.put(ball + 1)
        return ball

    first = sim.spawn(player(ping, pong, PINGPONG_ROUNDS), name="ping")
    sim.spawn(player(pong, ping, PINGPONG_ROUNDS), name="pong")
    ping.put(0)
    sim.run()
    assert first.done.done
    assert first.done.value == 2 * PINGPONG_ROUNDS - 2
    report(
        "kernel microbenchmark: process ping-pong",
        f"{PINGPONG_ROUNDS} round trips, {sim.events_fired} events",
    )


def test_bench_kernel_contention():
    """Resource contention: a deep prioritized waiter queue."""
    sim = Simulator()
    bus = Resource(sim, "bus")

    def worker(priority):
        for _ in range(CONTENTION_ITERATIONS):
            yield from bus.use(1, priority=priority)

    for index in range(CONTENTION_WORKERS):
        sim.spawn(worker(index & 3), name=f"worker{index}")
    sim.run()
    expected = CONTENTION_WORKERS * CONTENTION_ITERATIONS
    assert bus.total_acquisitions == expected
    report(
        "kernel microbenchmark: resource contention",
        f"{expected} acquisitions, {sim.events_fired} events, "
        f"total wait {bus.total_wait_ticks} ticks",
    )


def _transaction_chain(sim: Simulator, spawned: bool) -> int:
    """Run CALL_TRANSACTIONS overlapping three-level transactions.

    ``spawned`` selects how each sub-transaction is awaited: ``False``
    yields the generator (a call), ``True`` yields the done-future of a
    spawned process.  Returns the sum of all transaction results.
    """

    def awaiting(body):
        return sim.spawn(body).done if spawned else body

    def device_access(address):
        yield 2
        yield None
        return address & 7

    def port_read(address):
        yield 1
        first = yield awaiting(device_access(address))
        second = yield awaiting(device_access(address + 1))
        return first + second

    def transaction(index):
        total = 0
        for offset in range(4):
            total += yield awaiting(port_read(index + offset))
        return total

    def source():
        for index in range(CALL_TRANSACTIONS):
            done.append(sim.spawn(transaction(index)).done)
            yield 3

    done = []
    sim.spawn(source(), name="source")
    sim.run()
    return sum(future.value for future in done)


@functools.lru_cache(maxsize=None)
def _call_timings() -> Tuple[int, float, float, int]:
    """Interleaved repeats of both variants: (events per run, fastest
    call run, fastest spawn-await run, checksum).

    Alternating the variants and keeping each one's fastest run means a
    host that changes speed for a few seconds slows both alike, so the
    call/spawn-await ratio the CI gate pins does not depend on which
    variant happened to run during a slow spell.  Both bench tests
    report from this one measurement.
    """
    walls: Dict[bool, list] = {False: [], True: []}
    for _ in range(CALL_REPEATS):
        for spawned in (False, True):
            gc.collect()
            sim = Simulator()
            start = time.perf_counter()
            total = _transaction_chain(sim, spawned)
            walls[spawned].append(time.perf_counter() - start)
    return sim.events_fired, min(walls[False]), min(walls[True]), total


def _bench_call(spawned: bool, title: str) -> None:
    events, call_wall, spawn_wall, total = _call_timings()
    wall = spawn_wall if spawned else call_wall
    report_rate(events, wall)
    report(
        f"kernel microbenchmark: {title}",
        f"{CALL_TRANSACTIONS} transactions (checksum {total}), "
        f"{events} events, fastest of {CALL_REPEATS} runs {wall * 1e3:.1f} ms "
        f"(call / spawn-await wall: {spawn_wall / call_wall:.2f}x)",
    )


def test_bench_kernel_call():
    """Sub-transactions as calls: ``yield body`` runs inside the caller."""
    _bench_call(spawned=False, title="sub-transaction calls")


def test_bench_kernel_call_spawn_await():
    """The call bench's twin: each sub-transaction a spawned process."""
    _bench_call(spawned=True, title="sub-transactions spawned and awaited")
