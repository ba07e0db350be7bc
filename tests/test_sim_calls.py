"""Call semantics: a yielded generator runs inside its caller.

``yield g`` (a *call*) must execute the identical ``(time, seq)`` event
stream, and return the identical values, as ``yield sim.spawn(g).done``
(spawn the sub-transaction as a process of its own, then wait for it):
the callee's first step takes the ring slot the spawn took, and its
return takes the slot the done-future's resume took.  These tests pin
that on random process trees under both kernel lanes, plus nested calls
and exception propagation.
"""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Future, SimulationError, Simulator

LANES = pytest.mark.parametrize("batch", [True, False], ids=["batched", "per-event"])


class TreeError(Exception):
    """Raised by a ``raise`` step of a random process tree."""


# A tree is a list of steps; a step is one of
#   ("sleep", ticks) | ("floor",) | ("raise",)
#   ("call", tree)        -- awaited sub-transaction (the caller catches)
#   ("background", tree)  -- a concurrent, never-awaited process
#   ("wait", ticks)       -- wait on a timeout future
_leaf = st.one_of(
    st.tuples(st.just("sleep"), st.integers(0, 6)),
    st.tuples(st.just("floor")),
    st.tuples(st.just("wait"), st.integers(0, 4)),
    st.tuples(st.just("raise")),
)
trees = st.recursive(
    st.lists(_leaf, max_size=4),
    lambda children: st.lists(
        st.one_of(
            _leaf,
            st.tuples(st.just("call"), children),
            st.tuples(st.just("background"), children),
        ),
        max_size=4,
    ),
    max_leaves=30,
)


def tree_body(sim, tree, mode, path="r"):
    """The generator interpreting ``tree``; ``mode`` picks how a
    ``call`` step awaits its sub-transaction."""
    log = []
    for index, step in enumerate(tree):
        kind = step[0]
        if kind == "sleep":
            yield step[1]
        elif kind == "floor":
            yield None
        elif kind == "wait":
            log.append((yield sim.timeout(step[1], index)))
        elif kind == "raise":
            raise TreeError(f"{path}.{index}")
        elif kind == "call":
            callee = tree_body(sim, step[1], mode, f"{path}.{index}")
            awaitable = callee if mode == "call" else sim.spawn(callee).done
            try:
                log.append((yield awaitable))
            except TreeError as exc:
                log.append(("caught", str(exc), sim.now))
        else:
            sim.spawn(tree_body(sim, step[1], mode, f"{path}.{index}"))
    return (path, sim.now, log)


def run_forest(forest, mode, batch):
    """Run each tree as a root process; return (stream, outcomes)."""
    stream = []
    sim = Simulator(trace=lambda when, seq, _owner: stream.append((when, seq)),
                    batch=batch)
    roots = [
        sim.spawn(tree_body(sim, tree, mode, f"r{index}"))
        for index, tree in enumerate(forest)
    ]
    sim.run()
    outcomes = []
    for root in roots:
        exc = root.done._exception
        outcomes.append(("raised", str(exc)) if exc else root.done.value)
    return stream, outcomes, sim.now


class TestCallMatchesSpawnAwait:
    @LANES
    @settings(max_examples=150, deadline=None)
    @given(forest=st.lists(trees, min_size=1, max_size=3))
    def test_random_trees_identical(self, forest, batch):
        called = run_forest(forest, "call", batch)
        spawned = run_forest(forest, "spawn", batch)
        assert called == spawned

    @LANES
    def test_fixed_tree_identical_and_nontrivial(self, batch):
        tree = [
            ("sleep", 3),
            ("call", [("floor",), ("call", [("sleep", 2)]), ("wait", 1)]),
            ("background", [("sleep", 1), ("floor",)]),
            ("call", [("sleep", 1), ("raise",)]),
            ("call", []),
        ]
        called = run_forest([tree, tree], "call", batch)
        assert called == run_forest([tree, tree], "spawn", batch)
        stream, outcomes, _now = called
        assert len(stream) > 20
        path, now, log = outcomes[0]
        assert path == "r0"
        assert log[1] == ("caught", "r0.3.1", now)


class TestNestedCalls:
    @LANES
    def test_values_flow_back_through_every_level(self, batch):
        sim = Simulator(batch=batch)

        def leaf(value):
            yield 10
            return value

        def middle(value):
            first = yield leaf(value)
            second = yield leaf(value + 1)
            return first + second

        def top():
            total = yield middle(1)
            total += yield middle(10)
            return (total, sim.now)

        assert sim.run_until(top()) == (24, 40)

    @LANES
    def test_deep_recursion_stays_one_process(self, batch):
        sim = Simulator(batch=batch)
        spawned = []
        original = Simulator.spawn

        def countdown(depth):
            if depth == 0:
                yield 1
                return 0
            below = yield countdown(depth - 1)
            return below + 1

        def counting_spawn(self, body, name=""):
            spawned.append(body)
            return original(self, body, name)

        sim.spawn = counting_spawn.__get__(sim)
        assert sim.run_until(countdown(300)) == 300
        assert sim.now == 1
        assert len(spawned) == 1  # run_until's own spawn of the root

    def test_run_until_accepts_a_generator(self, sim):
        def body():
            yield 5
            return "ok"

        assert sim.run_until(body()) == "ok"
        assert sim.now == 5

    def test_call_yielding_a_future_and_process(self, sim):
        def inner():
            value = yield sim.timeout(4, "t")
            child = yield sim.spawn(leaf())
            return value + child

        def leaf():
            yield 1
            return "c"

        def outer():
            return (yield inner())

        assert sim.run_until(outer()) == "tc"
        assert sim.now == 5


class TestCalleeExceptions:
    @LANES
    def test_exception_surfaces_at_the_callers_yield(self, batch):
        sim = Simulator(batch=batch)

        def callee():
            yield 3
            raise ValueError("media fault")

        def caller():
            try:
                yield callee()
            except ValueError as exc:
                return (str(exc), sim.now)
            return "not raised"

        assert sim.run_until(caller()) == ("media fault", 3)

    @LANES
    def test_exception_passes_through_uncaught_frames(self, batch):
        sim = Simulator(batch=batch)

        def bottom():
            yield 1
            raise KeyError("deep")

        def middle():
            yield bottom()
            return "unreachable"

        def top():
            try:
                yield middle()
            except KeyError:
                return "caught at top"

        assert sim.run_until(top()) == "caught at top"

    def test_uncaught_callee_exception_fails_the_process(self, sim):
        def callee():
            yield 1
            raise RuntimeError("boom")

        def caller():
            yield callee()

        process = sim.spawn(caller())
        sim.run()
        with pytest.raises(RuntimeError, match="boom"):
            process.done.value

    def test_run_until_raises_the_original_exception(self, sim):
        def callee():
            yield 1
            raise ZeroDivisionError("original")

        def caller():
            yield callee()

        with pytest.raises(ZeroDivisionError, match="original"):
            sim.run_until(caller())

    def test_caller_continues_after_catching(self, sim):
        def callee():
            raise LookupError("immediately")
            yield  # pragma: no cover

        def caller():
            try:
                yield callee()
            except LookupError:
                pass
            yield 7
            return sim.now

        assert sim.run_until(caller()) == 7

    def test_bad_yield_inside_callee_is_thrown_into_it(self, sim):
        def callee():
            yield "not a valid thing"

        def caller():
            try:
                yield callee()
            except SimulationError as exc:
                return "unsupported" in str(exc)

        assert sim.run_until(caller()) is True


def test_future_is_still_an_awaitable(sim):
    future = Future(sim)
    sim.schedule(9, future.set_result, "f")

    def body():
        return (yield future)

    assert sim.run_until(body()) == "f"


def test_finished_processes_are_freed_without_the_cyclic_collector():
    """A finished process drops its pre-bound methods, so it is not a
    reference cycle: with automatic collection off, nothing is left for
    ``gc.collect`` to find once the processes are dropped."""

    def body():
        yield 1
        yield None
        return 3

    gc.collect()
    gc.disable()
    try:
        sim = Simulator()
        processes = [sim.spawn(body()) for _ in range(200)]
        sim.run()
        assert [process.done.value for process in processes] == [3] * 200
        del processes
        assert gc.collect() == 0
    finally:
        gc.enable()
