"""An FR-FCFS DRAM memory controller model.

Modelled after the gem5 event-driven DRAM controller the paper cites
([37] Hansson et al., ISPASS 2014): per-bank state machines, a
first-ready first-come-first-served scheduler, separate read and write
queues with a write-drain watermark, and a shared data bus that caps
channel bandwidth at one cacheline per ``tBURST``.

The controller issues commands in a pipelined fashion — picking the next
request only costs command-bus time (``tCMD``) — so independent banks
overlap their ACT/PRE latencies and the channel can sustain its full
data-bus bandwidth under row-hit streams.  This matters for the Fig. 5
reproduction, where an MLC-style injector drives the channel to
saturation.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import List, Optional

from repro.dram.bank import Bank
from repro.dram.geometry import PAGE_OFFSET_BITS, DRAMGeometry
from repro.params import DRAMTimingParams
from repro.sim import Component, Future, Simulator
from repro.units import CACHELINE, PAGE


@dataclass
class MemRequest:
    """One memory request, possibly spanning multiple cachelines."""

    address: int
    is_write: bool
    size_bytes: int = CACHELINE
    priority: int = 0
    arrival: int = 0
    completion: Optional[Future] = None
    issue_started: bool = dataclass_field(default=False, repr=False)
    runs: Optional[list] = dataclass_field(default=None, repr=False)
    """``(bank, global_row, line_count)`` per same-row run, precomputed
    once at :meth:`MemoryController.access`."""

    @property
    def num_lines(self) -> int:
        """Cachelines touched (requests are line-aligned in this model)."""
        return max(1, -(-self.size_bytes // CACHELINE))


class MemoryController(Component):
    """One channel's memory controller plus its DRAM banks.

    Parameters
    ----------
    sim, name:
        Simulation bindings.
    timing:
        The channel's DDR timing table.
    geometry:
        DRAM organization for address decoding.  Addresses given to
        :meth:`access` are *channel-local* physical addresses.
    write_watermark:
        Write-queue depth beyond which writes are drained even while
        reads are pending.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        timing: DRAMTimingParams,
        geometry: Optional[DRAMGeometry] = None,
        write_watermark: int = 16,
        hit_streak_limit: int = 4,
        refresh_enabled: bool = False,
    ):
        super().__init__(sim, name)
        self.timing = timing
        self.geometry = geometry or DRAMGeometry()
        self.write_watermark = write_watermark
        self.hit_streak_limit = hit_streak_limit
        self.refresh_enabled = refresh_enabled
        """When enabled, an all-bank refresh blocks every bank for tRFC
        once per tREFI — the classic source of memory-latency tail
        spikes.  Off by default: the paper's latency experiments, like
        most point measurements, sit between refreshes; turn it on for
        tail-latency studies."""
        """Starvation guard: after this many consecutive row-hit-first
        picks, the scheduler serves the oldest request regardless of its
        row state (standard FR-FCFS fairness cap)."""
        self._banks: dict[int, Bank] = {}
        self._read_queue: List[MemRequest] = []
        self._write_queue: List[MemRequest] = []
        self._bus_free = 0
        self._scheduler_running = False
        self._busy_until = 0
        self._hit_streak = 0
        # Requests carry precomputed (bank, row, count) runs, so the
        # scheduler never decodes an address per line.  The page-level
        # coords cache is valid because every DRAM coordinate above the
        # cacheline sits above the 4 KB page offset, so one page maps to
        # exactly one (bank, global_row).
        self._coords_cache: dict[int, tuple[Bank, int]] = {}
        if refresh_enabled:
            self.sim.spawn(self._refresh_loop(), name=f"{name}.refresh")

    def _refresh_loop(self):
        """Issue an all-bank refresh every tREFI, forever."""
        while True:
            yield self.timing.tREFI
            for bank in self._banks.values():
                bank.block_for_refresh(self.now)
            self.stats.count("refreshes")

    # -- public API ----------------------------------------------------------

    def access(
        self,
        address: int,
        is_write: bool,
        size_bytes: int = CACHELINE,
        priority: int = 0,
    ) -> Future:
        """Submit a request; the future completes when data is transferred.

        For reads the completion tick is when the last cacheline has
        crossed the data bus; for writes it is when the last line has been
        written to the array (callers modelling posted writes simply do
        not wait on the future).
        """
        sim = self.sim
        pool = sim._future_pool
        request = MemRequest(
            address=address,
            is_write=is_write,
            size_bytes=size_bytes,
            priority=priority,
            arrival=sim._now,
            completion=pool.pop() if pool else Future(sim),
        )
        request.runs = self._request_runs(request)
        queue = self._write_queue if is_write else self._read_queue
        queue.append(request)
        self.stats.count("writes" if is_write else "reads")
        self.stats.sample(
            "write_queue_depth" if is_write else "read_queue_depth", len(queue)
        )
        self._ensure_scheduler()
        return request.completion

    def read(self, address: int, size_bytes: int = CACHELINE, priority: int = 0) -> Future:
        """Convenience wrapper for a read access."""
        return self.access(address, is_write=False, size_bytes=size_bytes, priority=priority)

    def write(self, address: int, size_bytes: int = CACHELINE, priority: int = 0) -> Future:
        """Convenience wrapper for a write access."""
        return self.access(address, is_write=True, size_bytes=size_bytes, priority=priority)

    @property
    def queued_requests(self) -> int:
        """Requests waiting to be issued."""
        return len(self._read_queue) + len(self._write_queue)

    def _coords(self, address: int) -> tuple[Bank, int]:
        """(bank, global_row) for ``address``, cached per 4 KB page."""
        page = address >> PAGE_OFFSET_BITS
        entry = self._coords_cache.get(page)
        if entry is None:
            decoded = self.geometry.decode(address)
            key = decoded.global_bank
            bank = self._banks.get(key)
            if bank is None:
                bank = Bank(self.timing)
                self._banks[key] = bank
            entry = (bank, decoded.global_row)
            self._coords_cache[page] = entry
        return entry

    def _request_runs(self, request: MemRequest) -> list:
        """Split a request into same-row ``(bank, row, count)`` runs.

        Lines within one page share (bank, row); a run breaks only at a
        page boundary.
        """
        base = request.address - (request.address % CACHELINE)
        remaining = request.num_lines
        runs = []
        while remaining:
            bank, row = self._coords(base)
            in_page = (PAGE - (base & (PAGE - 1))) // CACHELINE
            take = in_page if in_page < remaining else remaining
            runs.append((bank, row, take))
            base += take * CACHELINE
            remaining -= take
        return runs

    def busy_fraction(self, since: int = 0) -> float:
        """Fraction of [since, now] during which the data bus was busy.

        A coarse utilization proxy: data-bus busy ticks divided by
        elapsed ticks.
        """
        elapsed = self.now - since
        if elapsed <= 0:
            return 0.0
        busy = self.stats.get_counter("bus_busy_ticks")
        return min(1.0, busy / elapsed)

    # -- scheduling ------------------------------------------------------------

    def _ensure_scheduler(self) -> None:
        if not self._scheduler_running:
            self._scheduler_running = True
            self.sim.schedule(0, self._schedule_next)

    def _schedule_next(self) -> None:
        """Pick the next request and issue it one command slot later.

        The scheduler is two callbacks, not a process: this pick (first
        queued at zero delay by :meth:`_ensure_scheduler`) and the issue
        after ``tCMD`` of command-bus occupancy, which picks again while
        requests remain.
        """
        if self._read_queue or self._write_queue:
            self.sim.schedule(self.timing.tCMD, self._issue_next, self._pick())
        else:
            self._scheduler_running = False

    def _issue_next(self, request: MemRequest) -> None:
        self._issue(request)
        self._schedule_next()

    def _pick(self) -> MemRequest:
        """FR-FCFS: prefer row hits, then lowest priority value, then oldest.

        Reads go before writes unless the write queue is past its
        watermark (or there are no reads).
        """
        drain_writes = (
            len(self._write_queue) > self.write_watermark or not self._read_queue
        )
        queue = self._write_queue if drain_writes else self._read_queue

        # Starvation guard: past the streak limit, fall back to pure
        # (priority, age) order so open-row streams cannot monopolize.
        honor_row_hits = self._hit_streak < self.hit_streak_limit

        best_index = 0
        best_key = None
        best_was_hit = False
        # The row-hit test is two attribute loads on the precomputed
        # head run — no decode, no bank lookup.
        for index, request in enumerate(queue):
            bank, row, _count = request.runs[0]
            row_hit = bank.open_row == row
            hit_rank = 0 if (row_hit and honor_row_hits) else 1
            key = (hit_rank, request.priority, request.arrival, index)
            if best_key is None or key < best_key:
                best_key = key
                best_index = index
                best_was_hit = row_hit
        request = queue.pop(best_index)
        if best_was_hit:
            # Streak is counted in cachelines, not requests, so a single
            # multi-line streaming request consumes its fair share of the
            # row-hit budget.
            self._hit_streak += request.num_lines
        else:
            self._hit_streak = 0
        return request

    def _issue(self, request: MemRequest) -> None:
        """Walk the request's lines through bank timing and the data bus."""
        now = self.now
        finish = now
        tBURST = self.timing.tBURST
        # One access_ready_batch call per same-row run, bus occupancy
        # folded in with plain arithmetic, one counter update per request.
        bus_free = self._bus_free
        is_write = request.is_write
        for bank, row, count in request.runs:
            for data_time in bank.access_ready_batch(now, row, is_write, count):
                transfer_end = bus_free + tBURST
                if data_time > transfer_end:
                    transfer_end = data_time
                bus_free = transfer_end
        self._bus_free = bus_free
        if transfer_end > finish:
            finish = transfer_end
        num_lines = request.num_lines
        self.stats.count("bus_busy_ticks", tBURST * num_lines)
        self.stats.sample("request_latency_ns", (finish - request.arrival) / 1000)
        self.stats.count("lines_transferred", num_lines)
        self._busy_until = max(self._busy_until, finish)
        self.sim.schedule_at(finish, request.completion.set_result, finish)
