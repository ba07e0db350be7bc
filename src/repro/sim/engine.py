"""The event loop: simulator clock, callback events, futures, processes.

Design notes
------------

Logically the simulator executes one totally-ordered stream of
``(time, seq)`` events: ``seq`` is a monotonically increasing counter so
that two events scheduled for the same tick fire in the order they were
scheduled.  That total order is the determinism contract — it is what
makes whole-system runs byte-for-byte reproducible, and it is pinned by
the golden event-order test in ``tests/test_sim_determinism.py``.

Physically the kernel keeps *two* queues behind that single logical
order:

* a binary heap for events with a nonzero delay, and
* a **same-tick ring** (a deque) for zero-delay events — the bulk of
  process stepping (``yield None``, ``yield 0``, future resumes,
  ``spawn``), which would otherwise pay a heap push *and* pop each.

Heap entries are ``(time, seq, fn, args)``; ring entries drop the
redundant time field and are just ``(seq, fn, args)``, because a ring
entry is created at the current tick (``schedule`` only routes
``delay == 0`` there) and the ring is drained before the clock
advances.  Those two invariants also collapse the head-to-head merge:
a heap entry can only precede the ring when it is due at the *current*
tick, and such an entry was necessarily pushed before the clock
reached this tick, i.e. before any live ring entry was created — so
its ``seq`` is always smaller.  The merge test is therefore just
"does the heap hold an entry for the current tick", no tuple
comparison, and the executed ``(time, seq)`` order stays bit-identical
to a single heap.

Processes are plain Python generators.  A process may yield five kinds
of awaitable:

* an ``int`` — sleep for that many ticks;
* ``None`` — yield the floor (resume in the same tick, after already
  scheduled same-tick events);
* a :class:`Future` — suspend until the future completes, receiving the
  future's value as the result of the ``yield``;
* a :class:`Process` — equivalent to yielding its ``done`` future;
* a generator — a **call**: the generator (a sub-transaction such as a
  memory-port read) runs inside the calling process, and its ``return``
  value (or exception) becomes the result of the ``yield``.

A process's ``return`` value becomes the result of its ``done`` future, so
processes compose: a parent can ``yield child.done``.  When the child is
not concurrent with the parent — the parent waits for it right away —
the parent yields the child's generator instead and no process is
created::

    >>> sim = Simulator()
    >>> def read(address):
    ...     yield 30                      # the sub-transaction's latency
    ...     return address + 1
    >>> def driver():
    ...     first = yield read(10)        # a call, not a spawned process
    ...     second = yield read(first)
    ...     return (second, sim.now)
    >>> sim.run_until(driver())
    (12, 60)

A call is order-identical to spawning the callee and waiting on its
done-future (``yield sim.spawn(g).done``): the two take the same
``seq`` slots.  The spawn queues one ring entry for the callee's first
step; the call queues one ring entry for it at the same point.  The
callee's completion resumes the waiting caller through one ring entry
(:meth:`Process._resume`); the call's return queues one ring entry that
sends the return value into the caller.  Nothing else allocates a
``seq``, so every executed ``(time, seq)`` stays where it was; only the
*owner* of the callee's events changes (they belong to the caller's
process).  An exception in the callee is thrown into the caller at its
``yield``, so a failing sub-transaction can no longer strand its caller.

Performance
-----------

Besides the ring, three kernel fast paths matter for events/sec (see
``benchmarks/bench_kernel.py`` for the microbenchmarks that meter them):

* ``run``/``run_until`` execute a tight loop with pre-bound locals when
  no instrumentation is active; ``Process._step`` inlines the dispatch
  of the common yields (``int`` sleep, ``None`` floor, ``Future`` wait)
  instead of paying a second call per step.
* A future resume is a **single queued event**: completing a future
  calls :meth:`Process._resume`, which appends one ring entry that
  sends the future's (already extracted) value straight into the
  generator — no intermediate ``schedule``/``value``-property round
  trip.
* :meth:`Simulator.future` recycles :class:`Future` objects through a
  per-simulator free-list pool; completed, no-longer-referenced futures
  are returned with :meth:`Simulator.recycle` (see
  ``repro.sim.resource`` for the recycle points).

Instrumentation is opt-in so the fast path stays clean:
``Simulator(profile=True)`` (or :func:`set_profile_default`) buckets
executed events per callback owner into ``Simulator.profile_counts``
and a process-wide total, and ``Simulator(trace=fn)`` streams
``(time, seq, owner)`` per executed event.  A third, model-level layer
— the per-packet span tracer of :mod:`repro.telemetry` — rides on the
:attr:`Simulator.tracer` attribute: the kernel never consults it (no
branch on the ring/heap paths), models do, so with ``tracer = None``
the event stream is bit-identical to an uninstrumented run.

Batched drain
-------------

The run loops come in two provably order-identical flavors, selected
per simulator (``Simulator(batch=...)``), process-wide
(:func:`set_batch_default`), or by the ``REPRO_KERNEL_BATCH``
environment variable (``0`` forces the fallback):

* the **per-event fallback** re-runs the ring/heap merge test before
  every single event — the original loop, kept verbatim as the
  reference implementation;
* the **batched drain** exploits the two queue invariants once per
  tick instead of once per event: every heap entry due at the current
  tick precedes every live ring entry (smaller ``seq`` — see above),
  so the loop first pops *all* due heap entries, and then — since an
  executed callback can only append ring entries (zero delay) or push
  strictly-future heap entries — drains the *entire* ring as one batch
  with no merge test at all.

Both flavors execute the identical ``(time, seq)`` stream; the golden
event-order test runs the same workload under each and compares the
streams element-for-element.  Model components (the switch's
aggregate-serialization path, the DRAM controller's batched issue)
consult :func:`batching_enabled` at construction so the whole stack
flips with one switch — ``REPRO_KERNEL_BATCH=0`` is the pure-Python
per-packet reference lane that CI benches against the batched lane.
"""

from __future__ import annotations

import heapq
import os
from collections import deque
from heapq import heappop, heappush
from sys import getrefcount
from types import GeneratorType
from typing import Any, Callable, Dict, Generator, Iterable, Optional, Tuple, Union

ProcessBody = Generator[Any, Any, Any]

_events_fired_total = 0
"""Events executed by every :class:`Simulator` in this OS process.

Experiments build many short-lived simulators; this monotonic total
lets a harness meter the event throughput of a whole experiment (the
delta across a call) without threading every simulator instance out.
"""

_profile_default = False
"""Whether new simulators profile by default (see :func:`set_profile_default`)."""

_batch_default = os.environ.get("REPRO_KERNEL_BATCH", "1").strip().lower() not in (
    "0",
    "false",
    "off",
    "no",
)
"""Whether new simulators use the batched drain loops by default.

``REPRO_KERNEL_BATCH=0`` in the environment selects the per-event
fallback for the whole process — the reference lane CI benches the
batched lane against.  See :func:`set_batch_default`.
"""

_profile_totals: Dict[str, int] = {}
"""Events per callback owner, aggregated across every profiling simulator."""

_FUTURE_POOL_CAP = 1024
"""Maximum recycled futures kept per simulator (bounds pool memory)."""


def process_events_total() -> int:
    """Monotonic count of events executed by all simulators in this process."""
    return _events_fired_total


def set_profile_default(enabled: bool) -> None:
    """Make every *subsequently created* simulator profile (or not).

    This is how a CLI flag reaches simulators buried inside experiment
    code: flip the default, run, read :func:`profile_totals`.
    """
    global _profile_default
    _profile_default = bool(enabled)


def set_batch_default(enabled: bool) -> None:
    """Make every *subsequently created* simulator batch (or not).

    Models that keep their own batch/per-packet mode (the switch's
    aggregate serialization, the DRAM controller's grouped issue) read
    :func:`batching_enabled` at construction, so flipping this default
    switches the entire stack, not just the kernel loop.
    """
    global _batch_default
    _batch_default = bool(enabled)


def batching_enabled() -> bool:
    """Whether new simulators (and model fast paths) batch by default."""
    return _batch_default


def profile_totals() -> Dict[str, int]:
    """A copy of the process-wide owner → events-fired profile."""
    return dict(_profile_totals)


def reset_profile_totals() -> None:
    """Clear the process-wide profile (start of a measured region)."""
    _profile_totals.clear()


def owner_label(fn: Callable[..., None]) -> str:
    """A stable label for an event callback's owner.

    Bound methods are attributed to their instance (``Type:name`` when
    the instance is named, e.g. ``Process:nic.rx``); plain functions to
    their qualified name.  Used by both the profiler buckets and the
    golden event-order trace, so it must depend only on the callback,
    never on memory addresses or execution history.
    """
    owner = getattr(fn, "__self__", None)
    if owner is None:
        return getattr(fn, "__qualname__", repr(fn))
    name = getattr(owner, "name", "")
    if name:
        return f"{type(owner).__name__}:{name}"
    return type(owner).__name__


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (not for model errors)."""


class Future:
    """A one-shot completion token.

    A future starts pending, and exactly once transitions to done with a
    value (or an exception).  Processes wait on it by yielding it;
    callbacks subscribe with :meth:`add_callback`.

    ``_callbacks`` is ``None`` (no subscriber), a single callable (the
    overwhelmingly common case: one waiting process), or a list — this
    avoids allocating a list per future on the hot path.
    """

    __slots__ = ("sim", "_done", "_value", "_exception", "_callbacks")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._done = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: Any = None

    @property
    def done(self) -> bool:
        """Whether the future has completed."""
        return self._done

    @property
    def value(self) -> Any:
        """The completed value.  Raises if still pending or failed."""
        if not self._done:
            raise SimulationError("future is still pending")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The exception the future failed with (``None`` while pending
        or after a successful completion)."""
        return self._exception

    def set_result(self, value: Any = None) -> None:
        """Complete the future; wakes all waiters in subscription order."""
        if self._done:
            raise SimulationError("future already completed")
        self._done = True
        self._value = value
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            if type(callbacks) is list:
                for fn in callbacks:
                    fn(self)
            else:
                callbacks(self)

    def set_exception(self, exc: BaseException) -> None:
        """Fail the future; waiters see the exception raised at the yield."""
        if self._done:
            raise SimulationError("future already completed")
        self._done = True
        self._exception = exc
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            if type(callbacks) is list:
                for fn in callbacks:
                    fn(self)
            else:
                callbacks(self)

    def add_callback(self, fn: Callable[["Future"], None]) -> None:
        """Run ``fn(self)`` when done (immediately if already done)."""
        if self._done:
            fn(self)
            return
        callbacks = self._callbacks
        if callbacks is None:
            self._callbacks = fn
        elif type(callbacks) is list:
            callbacks.append(fn)
        else:
            self._callbacks = [callbacks, fn]


class Timer:
    """A cancellable scheduled callback (see :meth:`Simulator.call_later`).

    The kernel's heap holds immutable entries, so cancellation never
    performs heap surgery: the queued entry stays where it is and the
    timer simply refuses to run its callback when it pops.  This keeps
    the executed ``(time, seq)`` order — and therefore determinism —
    identical whether or not anything was cancelled.  A cancelled entry
    that is never reached (the run ends first) costs nothing at all.

    Retransmission timeouts are the motivating user: the driver arms a
    timer per transmission attempt and cancels it on delivery, so only
    genuinely lost packets ever see the callback fire.
    """

    __slots__ = ("_fn", "_args", "_cancelled", "_fired")

    def __init__(self, fn: Callable[..., None], args: tuple):
        self._fn = fn
        self._args = args
        self._cancelled = False
        self._fired = False

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` disarmed the timer before it fired."""
        return self._cancelled

    @property
    def fired(self) -> bool:
        """Whether the callback has already run."""
        return self._fired

    @property
    def pending(self) -> bool:
        """Still armed: neither fired nor cancelled."""
        return not (self._fired or self._cancelled)

    def cancel(self) -> bool:
        """Disarm the timer; returns False if it already fired.

        Cancelling an already-cancelled timer is a no-op returning True.
        """
        if self._fired:
            return False
        self._cancelled = True
        self._fn = None
        self._args = ()
        return True

    def _fire(self) -> None:
        if self._cancelled:
            return
        self._fired = True
        fn = self._fn
        args = self._args
        self._fn = None
        self._args = ()
        if args:
            fn(*args)
        else:
            fn()


class Process:
    """A generator-based cooperative process.

    Created via :meth:`Simulator.spawn`.  The process's eventual return
    value (or exception) is exposed through :attr:`done`, itself a
    :class:`Future`.

    A process runs one generator at a time, ``body``.  When that
    generator yields another generator, the process *calls* it: the
    caller is pushed on ``_callers`` and the callee becomes ``body``
    until it returns (its value is sent back into the caller) or raises
    (the exception is thrown into the caller at its ``yield``).
    """

    __slots__ = (
        "sim",
        "name",
        "body",
        "done",
        "_send",
        "_step_bound",
        "_resume_bound",
        "_waiting",
        "_callers",
    )

    def __init__(self, sim: "Simulator", body: ProcessBody, name: str = ""):
        self.sim = sim
        self.name = name or getattr(body, "__name__", "process")
        self.body = body
        # Pool-backed like Simulator.future(): model layers spawn a
        # process per request/packet, so done-future churn feeds the
        # same free list the contention primitives recycle into.
        pool = sim._future_pool
        self.done = pool.pop() if pool else Future(sim)
        # Pre-bound callables: creating a bound method object per event
        # (every `self._step` placed in a queue entry, every
        # `self._resume` handed to add_callback) costs an allocation on
        # the hottest kernel paths; binding once at spawn removes it.
        self._send = body.send
        self._step_bound = self._step
        self._resume_bound = self._resume
        self._waiting: Optional[Future] = None
        self._callers: Optional[list] = None

    def _step(self, send_value: Any = None) -> None:
        try:
            yielded = self._send(send_value)
        except StopIteration as stop:
            self._return(stop.value)
            return
        except BaseException as exc:  # model bug: propagate to the caller
            self._raise(exc)
            return
        # Refcount-checked recycle of the future this step consumed.
        # Once ``send`` has resumed the generator, the frame's reference
        # to the yielded future is gone; if the refcount then shows that
        # only this function can still see the object (``w`` plus
        # getrefcount's own argument — no user variable, no container,
        # no pending callback), nobody can ever observe it again and it
        # can go straight back to the simulator's pool.  This is what
        # lets queue/timeout futures — whose creators cannot know when
        # the consumer is done with them — feed the pool at all.
        # CPython-specific by design; any extra reference (a debugger, a
        # user alias, an ``all_of`` closure) just skips the recycle.
        w = self._waiting
        if w is not None:
            self._waiting = None
            if w._done and getrefcount(w) == 2:
                w._done = False
                w._value = None
                w._exception = None
                pool = self.sim._future_pool
                if len(pool) < _FUTURE_POOL_CAP:
                    pool.append(w)
        # Dispatch is inlined for the common yields (exact int, None,
        # exact Future, generator); anything else takes _dispatch_slow.
        # The inline paths replicate Simulator.schedule(delay,
        # self._step) without the call: bump seq, append to the ring
        # (zero delay) or push on the heap (positive delay).
        sim = self.sim
        cls = type(yielded)
        if cls is int:
            if yielded > 0:
                seq = sim._seq + 1
                sim._seq = seq
                heappush(sim._queue, (sim._now + yielded, seq, self._step_bound, ()))
            elif yielded == 0:
                seq = sim._seq + 1
                sim._seq = seq
                sim._ring_append((seq, self._step_bound, ()))
            else:
                self._throw(SimulationError(f"negative delay: {yielded}"))
        elif yielded is None:
            seq = sim._seq + 1
            sim._seq = seq
            sim._ring_append((seq, self._step_bound, ()))
        elif cls is Future:
            # Inlined Future.add_callback(self._resume_bound): waiting on
            # a future is the second-hottest yield, and the extra call
            # frame is measurable at ping-pong rates.
            self._waiting = yielded
            if yielded._done:
                self._resume(yielded)
            else:
                callbacks = yielded._callbacks
                if callbacks is None:
                    yielded._callbacks = self._resume_bound
                elif type(callbacks) is list:
                    callbacks.append(self._resume_bound)
                else:
                    yielded._callbacks = [callbacks, self._resume_bound]
        elif cls is GeneratorType:
            self._call(yielded)
        else:
            self._dispatch_slow(yielded)

    def _dispatch_slow(self, yielded: Any) -> None:
        """The uncommon yields: subclasses, processes, and misuse."""
        if isinstance(yielded, int):  # bool / int subclasses
            if yielded < 0:
                self._throw(SimulationError(f"negative delay: {yielded}"))
            else:
                self.sim.schedule(yielded, self._step_bound)
        elif isinstance(yielded, Future):
            yielded.add_callback(self._resume_bound)
        elif isinstance(yielded, Process):
            yielded.done.add_callback(self._resume_bound)
        elif isinstance(yielded, GeneratorType):
            self._call(yielded)
        else:
            self._throw(
                SimulationError(
                    f"process {self.name!r} yielded unsupported {yielded!r}"
                )
            )

    def _call(self, callee: ProcessBody) -> None:
        """Run ``callee`` inside this process until it returns.

        Its first step is queued exactly where :meth:`Simulator.spawn`
        would queue a spawned callee's (one ring entry, same ``seq``).
        """
        callers = self._callers
        if callers is None:
            self._callers = [self.body]
        else:
            callers.append(self.body)
        self.body = callee
        self._send = callee.send
        sim = self.sim
        seq = sim._seq + 1
        sim._seq = seq
        sim._ring_append((seq, self._step_bound, ()))

    def _return(self, value: Any) -> None:
        """The running generator returned ``value``: send it into the
        caller, or complete :attr:`done` if there is none."""
        if self._callers:
            self._resume_caller(self._step_bound, value)
        else:
            self._release()
            self.done.set_result(value)

    def _raise(self, exc: BaseException) -> None:
        """The running generator raised ``exc``: throw it into the
        caller at its ``yield``, or fail :attr:`done` if there is none."""
        if self._callers:
            self._resume_caller(self._throw, exc)
        else:
            self._release()
            self.done.set_exception(exc)

    def _resume_caller(self, resume: Callable[[Any], None], arg: Any) -> None:
        """Make the innermost caller the running generator again and
        queue ``resume(arg)`` for it.

        That one ring entry is the one a spawned callee's completion
        would have queued through :meth:`_resume`.
        """
        caller = self._callers.pop()
        self.body = caller
        self._send = caller.send
        sim = self.sim
        seq = sim._seq + 1
        sim._seq = seq
        sim._ring_append((seq, resume, (arg,)))

    def _release(self) -> None:
        """Drop the pre-bound methods of a finished process.

        Each one refers back to the process, so while they are held a
        finished process is a reference cycle that only the cyclic
        garbage collector can free; dropping them lets it go as soon as
        the last outside reference does.
        """
        self._send = self._step_bound = self._resume_bound = None

    def _resume(self, future: Future) -> None:
        # Defer the resumption through the event queue: a future's
        # completion must never run waiter code re-entrantly inside the
        # completer (e.g. a Resource.release handing off mid-release).
        # Single hop: the queued event IS the step — the future's value
        # is extracted here (it is immutable once done) and sent
        # straight into the generator when the entry fires, with no
        # intermediate dispatch.
        sim = self.sim
        seq = sim._seq + 1
        sim._seq = seq
        exc = future._exception
        if exc is None:
            sim._ring_append((seq, self._step_bound, (future._value,)))
        else:
            sim._ring_append((seq, self._throw, (exc,)))

    def _throw(self, exc: BaseException) -> None:
        """Resume the generator by raising ``exc`` at its yield point.

        The cold half of :meth:`_step` — splitting it out keeps a
        ``throw``-argument check off the hot step path.  Dispatch of
        whatever the generator yields next goes through the generic
        :meth:`_dispatch_slow` (identical semantics to the inlined
        dispatch, minus the inlining).
        """
        try:
            yielded = self.body.throw(exc)
        except StopIteration as stop:
            self._return(stop.value)
            return
        except BaseException as raised:  # model bug: propagate to the caller
            self._raise(raised)
            return
        self._dispatch_slow(yielded)


class Simulator:
    """The discrete-event scheduler.

    The clock is an integer tick counter (picoseconds by convention, see
    :mod:`repro.units`).  Use :meth:`schedule` for callback events,
    :meth:`spawn` for processes, and :meth:`run` to execute.

    ``profile=True`` buckets executed events per callback owner into
    :attr:`profile_counts` (and the process-wide :func:`profile_totals`);
    ``trace`` is an optional ``fn(time, seq, owner)`` called for every
    executed event.  Both force the instrumented run loop, so leave them
    off for production runs.  :attr:`tracer` holds the per-packet span
    tracer (:class:`repro.telemetry.SpanTracer`) when one is attached;
    the kernel itself never touches it — model code checks
    ``sim.tracer is not None`` at its instrumentation points — so the
    attribute costs nothing when unset.

    The determinism contract in two events::

        >>> sim = Simulator()
        >>> order = []
        >>> sim.schedule(20, order.append, "second")
        >>> sim.schedule(10, order.append, "first")
        >>> sim.run()
        20
        >>> order
        ['first', 'second']
        >>> sim.events_fired
        2
    """

    __slots__ = (
        "_now",
        "_seq",
        "_queue",
        "_ring",
        "_ring_append",
        "_events_fired",
        "_future_pool",
        "profile",
        "profile_counts",
        "_trace",
        "tracer",
        "batch",
        "named",
        "__dict__",
    )

    def __init__(
        self,
        profile: bool = False,
        trace: Optional[Callable[[int, int, str], None]] = None,
        batch: Optional[bool] = None,
    ):
        self._now = 0
        self._seq = 0
        self._queue: list[tuple[int, int, Callable[..., None], tuple]] = []
        self._ring: deque[tuple[int, Callable[..., None], tuple]] = deque()
        self._ring_append = self._ring.append
        self._events_fired = 0
        self._future_pool: list[Future] = []
        self.profile = bool(profile) or _profile_default
        self.profile_counts: Dict[str, int] = {}
        self._trace = trace
        self.tracer = None
        self.batch = _batch_default if batch is None else bool(batch)
        # Process names only feed the kernel profiler and the raw event
        # trace; when neither is active, hot spawn sites can skip
        # building per-process name strings entirely.
        self.named = self.profile or trace is not None

    @property
    def now(self) -> int:
        """Current simulated time in ticks."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far."""
        return self._events_fired

    @property
    def pending_events(self) -> int:
        """Number of events still queued (heap + same-tick ring)."""
        return len(self._queue) + len(self._ring)

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: int, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` ticks."""
        if delay == 0:
            seq = self._seq + 1
            self._seq = seq
            self._ring_append((seq, fn, args))
        elif delay > 0:
            seq = self._seq + 1
            self._seq = seq
            heappush(self._queue, (self._now + delay, seq, fn, args))
        else:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")

    def schedule_at(self, when: int, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute tick ``when`` (must not be past)."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at past tick {when}: clock is already at {self._now}"
            )
        self.schedule(when - self._now, fn, *args)

    def schedule_batch(
        self, delay: int, calls: Iterable[Tuple[Callable[..., None], tuple]]
    ) -> int:
        """Schedule many callbacks for one tick in a single operation.

        ``calls`` is an iterable of ``(fn, args)`` pairs.  Consecutive
        ``seq`` numbers are allocated in iteration order, so the batch
        fires in exactly the order :meth:`schedule` would have produced
        for one call per pair — but a zero-delay batch lands on the
        same-tick ring with a single ``deque.extend`` instead of one
        append per event.  Returns the number of events scheduled.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        seq = self._seq
        if delay == 0:
            entries = []
            append = entries.append
            for fn, args in calls:
                seq += 1
                append((seq, fn, args))
            self._ring.extend(entries)
        else:
            queue = self._queue
            when = self._now + delay
            for fn, args in calls:
                seq += 1
                heappush(queue, (when, seq, fn, args))
        count = seq - self._seq
        self._seq = seq
        return count

    def schedule_batch_at(
        self, when: int, calls: Iterable[Tuple[Callable[..., None], tuple]]
    ) -> int:
        """Absolute-tick form of :meth:`schedule_batch`.

        Schedules every ``(fn, args)`` pair for tick ``when`` (must not
        be in the past) in one operation, preserving iteration order.
        The coarse-tick flow-level updates (:mod:`repro.flow`) install
        all window boundaries that land on one grid tick through this,
        so a thousand background flows cost a handful of batched
        scheduling operations instead of per-flow heap traffic.
        Returns the number of events scheduled.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at past tick {when}: clock is already at {self._now}"
            )
        return self.schedule_batch(when - self._now, calls)

    def future(self) -> Future:
        """Create a pending future bound to this simulator (pool-backed)."""
        pool = self._future_pool
        if pool:
            return pool.pop()
        return Future(self)

    def recycle(self, future: Future) -> None:
        """Return a completed, no-longer-referenced future to the pool.

        Only the creator of a future can know nobody else holds it, so
        recycling is explicit and opt-in (the contention primitives in
        :mod:`repro.sim.resource` recycle their internal futures).
        Recycling a pending future — which includes recycling the same
        future twice — is an error.
        """
        if future.sim is not self:
            raise SimulationError("cannot recycle a future from another simulator")
        if not future._done:
            raise SimulationError("cannot recycle a pending future")
        future._done = False
        future._value = None
        future._exception = None
        pool = self._future_pool
        if len(pool) < _FUTURE_POOL_CAP:
            pool.append(future)

    def completed(self, value: Any = None) -> Future:
        """Create an already-completed future (handy for fast paths)."""
        future = self.future()
        future.set_result(value)
        return future

    def spawn(self, body: ProcessBody, name: str = "") -> Process:
        """Start a process; its first step runs at the current tick."""
        process = Process(self, body, name)
        # Inlined schedule(0, ...): spawn is hot enough in the model
        # layers (a process per DRAM request / packet hop) for the call
        # to show up.
        seq = self._seq + 1
        self._seq = seq
        self._ring_append((seq, process._step_bound, ()))
        return process

    def spawn_at(self, when: int, body: ProcessBody, name: str = "") -> Process:
        """Start a process at absolute tick ``when``."""
        process = Process(self, body, name)
        self.schedule_at(when, process._step)
        return process

    def timeout(self, delay: int, value: Any = None) -> Future:
        """A future that completes ``delay`` ticks from now."""
        pool = self._future_pool
        future = pool.pop() if pool else Future(self)
        if delay > 0:
            seq = self._seq + 1
            self._seq = seq
            heappush(self._queue, (self._now + delay, seq, future.set_result, (value,)))
        elif delay == 0:
            seq = self._seq + 1
            self._seq = seq
            self._ring_append((seq, future.set_result, (value,)))
        else:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        return future

    def call_later(self, delay: int, fn: Callable[..., None], *args: Any) -> Timer:
        """Schedule ``fn(*args)`` after ``delay`` ticks, cancellably.

        Returns a :class:`Timer` whose :meth:`Timer.cancel` prevents the
        callback from ever running.  The queue entry itself is left in
        place (popping a cancelled timer is a deterministic no-op), so
        cancellation cannot perturb the event order of anything else.
        """
        timer = Timer(fn, args)
        self.schedule(delay, timer._fire)
        return timer

    def all_of(self, futures: Iterable[Future]) -> Future:
        """A future completing when every input has completed.

        The combined value is the list of individual values, in input
        order.  An empty input completes immediately with ``[]``.
        """
        futures = list(futures)
        combined = self.future()
        remaining = len(futures)
        if remaining == 0:
            combined.set_result([])
            return combined

        def on_done(_finished: Future) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                combined.set_result([f.value for f in futures])

        for future in futures:
            future.add_callback(on_done)
        return combined

    # -- execution ----------------------------------------------------------

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Execute events until the queue drains or limits are hit.

        ``until`` is an absolute tick: events scheduled strictly after it
        stay queued and the clock is left at ``until``.  An ``until``
        already in the past is clamped — the call is a no-op returning
        ``now``; the clock never rewinds.  ``max_events`` bounds the
        number of events executed in this call (a guard against
        accidental infinite event loops in tests).

        Returns the simulated time at exit.
        """
        global _events_fired_total
        if until is not None and until < self._now:
            return self._now
        if self.profile or self._trace is not None:
            if self.batch:
                return self._run_instrumented_batched(until, max_events)
            return self._run_instrumented(until, max_events)
        if self.batch:
            return self._run_batched(until, max_events)
        queue = self._queue
        ring = self._ring
        pop = heappop
        popleft = ring.popleft
        # Executed-event count is recovered in ``finally`` from the seq
        # and pending-entry deltas (every seq allocation accompanies
        # exactly one queue/ring push), keeping an increment out of the
        # per-event loop.
        seq_before = self._seq
        pending_before = len(queue) + len(ring)
        try:
            if max_events is None:
                # The common fast loop: no event budget to track.  A
                # heap entry precedes the ring only when it is due at
                # the current tick (its seq is then necessarily
                # smaller — see the module docstring); ring pops never
                # touch the clock, and ring events are always <= until.
                while True:
                    if ring:
                        if queue and queue[0][0] <= self._now:
                            _when, _s, fn, args = pop(queue)
                        else:
                            _s, fn, args = popleft()
                    elif queue:
                        if until is None:
                            when, _s, fn, args = pop(queue)
                            self._now = when
                        else:
                            head = queue[0]
                            when = head[0]
                            if when > until:
                                self._now = until
                                return until
                            pop(queue)
                            self._now = when
                            fn = head[2]
                            args = head[3]
                    else:
                        break
                    if args:
                        fn(*args)
                    else:
                        fn()
            else:
                budget = max_events
                while True:
                    if ring:
                        if budget == 0:
                            return self._now
                        budget -= 1
                        if queue and queue[0][0] <= self._now:
                            _when, _s, fn, args = pop(queue)
                        else:
                            _s, fn, args = popleft()
                    elif queue:
                        head = queue[0]
                        when = head[0]
                        if until is not None and when > until:
                            self._now = until
                            return until
                        if budget == 0:
                            return self._now
                        budget -= 1
                        pop(queue)
                        self._now = when
                        fn = head[2]
                        args = head[3]
                    else:
                        break
                    if args:
                        fn(*args)
                    else:
                        fn()
            if until is not None and until > self._now:
                self._now = until
            return self._now
        finally:
            executed = (self._seq - seq_before) + pending_before - len(queue) - len(ring)
            self._events_fired += executed
            _events_fired_total += executed

    def run_until(
        self, future: Union[Future, ProcessBody], max_events: Optional[int] = None
    ) -> Any:
        """Run until ``future`` completes and return its value.

        ``future`` may also be a generator, which is spawned first — so
        a sub-transaction like ``sim.run_until(port.read(0))`` runs to
        completion directly.  Raises :class:`SimulationError` if the
        event queue drains first.
        """
        global _events_fired_total
        if isinstance(future, GeneratorType):
            future = self.spawn(future).done
        if self.profile or self._trace is not None:
            if self.batch:
                return self._run_until_instrumented_batched(future, max_events)
            return self._run_until_instrumented(future, max_events)
        if self.batch:
            return self._run_until_batched(future, max_events)
        queue = self._queue
        ring = self._ring
        pop = heappop
        popleft = ring.popleft
        budget = -1 if max_events is None else max_events
        seq_before = self._seq
        pending_before = len(queue) + len(ring)
        try:
            while not future._done:
                if ring:
                    if budget == 0:
                        raise SimulationError(f"exceeded max_events={max_events}")
                    budget -= 1
                    if queue and queue[0][0] <= self._now:
                        _when, _s, fn, args = pop(queue)
                    else:
                        _s, fn, args = popleft()
                elif queue:
                    if budget == 0:
                        raise SimulationError(f"exceeded max_events={max_events}")
                    budget -= 1
                    when, _s, fn, args = pop(queue)
                    self._now = when
                else:
                    raise SimulationError("event queue drained before future completed")
                if args:
                    fn(*args)
                else:
                    fn()
            return future.value
        finally:
            executed = (self._seq - seq_before) + pending_before - len(queue) - len(ring)
            self._events_fired += executed
            _events_fired_total += executed

    # -- batched execution (see "Batched drain" in the module docstring) ----

    def _run_batched(self, until: Optional[int], max_events: Optional[int]) -> int:
        """The :meth:`run` loop draining whole ticks at a time.

        Order-identical to the per-event fallback: every heap entry due
        at the current tick precedes every live ring entry (smaller
        ``seq``), and executed callbacks only append ring entries or
        push strictly-future heap entries — so the due heap drains
        first, then the entire ring drains with no merge test per
        event.
        """
        global _events_fired_total
        queue = self._queue
        ring = self._ring
        pop = heappop
        popleft = ring.popleft
        seq_before = self._seq
        pending_before = len(queue) + len(ring)
        try:
            if max_events is None:
                while True:
                    now = self._now
                    while queue and queue[0][0] <= now:
                        _w, _s, fn, args = pop(queue)
                        if args:
                            fn(*args)
                        else:
                            fn()
                    # Nothing left can become due at this tick, so the
                    # ring drains unconditionally.
                    while ring:
                        _s, fn, args = popleft()
                        if args:
                            fn(*args)
                        else:
                            fn()
                    if queue:
                        when = queue[0][0]
                        if until is not None and when > until:
                            self._now = until
                            return until
                        self._now = when
                    else:
                        break
            else:
                budget = max_events
                while True:
                    now = self._now
                    while queue and queue[0][0] <= now:
                        if budget == 0:
                            return now
                        budget -= 1
                        _w, _s, fn, args = pop(queue)
                        if args:
                            fn(*args)
                        else:
                            fn()
                    while ring:
                        if budget == 0:
                            return self._now
                        budget -= 1
                        _s, fn, args = popleft()
                        if args:
                            fn(*args)
                        else:
                            fn()
                    if queue:
                        when = queue[0][0]
                        if until is not None and when > until:
                            self._now = until
                            return until
                        if budget == 0:
                            return self._now
                        self._now = when
                    else:
                        break
            if until is not None and until > self._now:
                self._now = until
            return self._now
        finally:
            executed = (self._seq - seq_before) + pending_before - len(queue) - len(ring)
            self._events_fired += executed
            _events_fired_total += executed

    def _run_until_batched(self, future: Future, max_events: Optional[int]) -> Any:
        """The :meth:`run_until` loop with the batched tick drain."""
        global _events_fired_total
        queue = self._queue
        ring = self._ring
        pop = heappop
        popleft = ring.popleft
        budget = -1 if max_events is None else max_events
        seq_before = self._seq
        pending_before = len(queue) + len(ring)
        try:
            while not future._done:
                now = self._now
                if queue and queue[0][0] <= now:
                    while queue and queue[0][0] <= now:
                        if future._done:
                            break
                        if budget == 0:
                            raise SimulationError(f"exceeded max_events={max_events}")
                        budget -= 1
                        _w, _s, fn, args = pop(queue)
                        if args:
                            fn(*args)
                        else:
                            fn()
                elif ring:
                    while ring:
                        if future._done:
                            break
                        if budget == 0:
                            raise SimulationError(f"exceeded max_events={max_events}")
                        budget -= 1
                        _s, fn, args = popleft()
                        if args:
                            fn(*args)
                        else:
                            fn()
                elif queue:
                    if budget == 0:
                        raise SimulationError(f"exceeded max_events={max_events}")
                    self._now = queue[0][0]
                else:
                    raise SimulationError("event queue drained before future completed")
            return future.value
        finally:
            executed = (self._seq - seq_before) + pending_before - len(queue) - len(ring)
            self._events_fired += executed
            _events_fired_total += executed

    def _run_instrumented_batched(
        self, until: Optional[int], max_events: Optional[int]
    ) -> int:
        """:meth:`_run_batched` with the per-event profile/trace hook.

        Exists so traced runs exercise the *batched* drain logic — the
        golden-stream equality tests compare this loop's event stream
        against :meth:`_run_instrumented`'s.
        """
        global _events_fired_total
        queue = self._queue
        ring = self._ring
        instrument = self._instrument
        executed = 0
        try:
            while True:
                now = self._now
                while queue and queue[0][0] <= now:
                    if max_events is not None and executed >= max_events:
                        return now
                    when, seq, fn, args = heapq.heappop(queue)
                    executed += 1
                    instrument(when, seq, fn)
                    fn(*args)
                while ring:
                    if max_events is not None and executed >= max_events:
                        return now
                    seq, fn, args = ring.popleft()
                    executed += 1
                    instrument(now, seq, fn)
                    fn(*args)
                if queue:
                    when = queue[0][0]
                    if until is not None and when > until:
                        self._now = until
                        return until
                    if max_events is not None and executed >= max_events:
                        return self._now
                    self._now = when
                else:
                    break
            if until is not None and until > self._now:
                self._now = until
            return self._now
        finally:
            self._events_fired += executed
            _events_fired_total += executed

    def _run_until_instrumented_batched(
        self, future: Future, max_events: Optional[int]
    ) -> Any:
        """:meth:`_run_until_batched` with the per-event instrumentation hook."""
        global _events_fired_total
        queue = self._queue
        ring = self._ring
        instrument = self._instrument
        executed = 0
        try:
            while not future._done:
                now = self._now
                if queue and queue[0][0] <= now:
                    while queue and queue[0][0] <= now:
                        if future._done:
                            break
                        if max_events is not None and executed >= max_events:
                            raise SimulationError(f"exceeded max_events={max_events}")
                        when, seq, fn, args = heapq.heappop(queue)
                        executed += 1
                        instrument(when, seq, fn)
                        fn(*args)
                elif ring:
                    while ring:
                        if future._done:
                            break
                        if max_events is not None and executed >= max_events:
                            raise SimulationError(f"exceeded max_events={max_events}")
                        seq, fn, args = ring.popleft()
                        executed += 1
                        instrument(now, seq, fn)
                        fn(*args)
                elif queue:
                    if max_events is not None and executed >= max_events:
                        raise SimulationError(f"exceeded max_events={max_events}")
                    self._now = queue[0][0]
                else:
                    raise SimulationError("event queue drained before future completed")
            return future.value
        finally:
            self._events_fired += executed
            _events_fired_total += executed

    # -- instrumented execution (profile / trace) ---------------------------

    def _instrument(self, when: int, seq: int, fn: Callable[..., None]) -> None:
        """Profile/trace one about-to-execute event."""
        if self.profile:
            label = owner_label(fn)
            counts = self.profile_counts
            counts[label] = counts.get(label, 0) + 1
            _profile_totals[label] = _profile_totals.get(label, 0) + 1
        trace = self._trace
        if trace is not None:
            trace(when, seq, owner_label(fn))

    def _run_instrumented(self, until: Optional[int], max_events: Optional[int]) -> int:
        """The :meth:`run` loop with per-event instrumentation.

        Semantically identical to the fast path — same ``(time, seq)``
        merge of ring and heap, same ``until``/``max_events`` handling —
        just with the profile/trace hook before each callback.
        """
        global _events_fired_total
        queue = self._queue
        ring = self._ring
        executed = 0
        try:
            while queue or ring:
                if ring and (not queue or queue[0][0] > self._now):
                    from_ring = True
                    head = ring[0]
                    when = self._now
                    seq, fn, args = head
                else:
                    from_ring = False
                    head = queue[0]
                    when, seq, fn, args = head
                if until is not None and when > until:
                    self._now = until
                    return until
                if max_events is not None and executed >= max_events:
                    return self._now
                if from_ring:
                    ring.popleft()
                else:
                    heapq.heappop(queue)
                self._now = when
                executed += 1
                self._instrument(when, seq, fn)
                fn(*args)
            if until is not None and until > self._now:
                self._now = until
            return self._now
        finally:
            self._events_fired += executed
            _events_fired_total += executed

    def _run_until_instrumented(self, future: Future, max_events: Optional[int]) -> Any:
        """The :meth:`run_until` loop with per-event instrumentation."""
        global _events_fired_total
        queue = self._queue
        ring = self._ring
        executed = 0
        try:
            while not future._done:
                if not ring and not queue:
                    raise SimulationError("event queue drained before future completed")
                if max_events is not None and executed >= max_events:
                    raise SimulationError(f"exceeded max_events={max_events}")
                if ring and (not queue or queue[0][0] > self._now):
                    seq, fn, args = ring.popleft()
                    when = self._now
                else:
                    when, seq, fn, args = heapq.heappop(queue)
                    self._now = when
                executed += 1
                self._instrument(when, seq, fn)
                fn(*args)
            return future.value
        finally:
            self._events_fired += executed
            _events_fired_total += executed
