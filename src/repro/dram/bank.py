"""Per-bank DRAM state machine.

A bank tracks its open row and the earliest tick each command class may
issue, enforcing the core DDR timing constraints (tRCD, tRP, tRAS, tCL,
tWR).  The controller consults banks to cost out each access; the shared
data-bus occupancy (tBURST per cacheline) is modelled by the controller,
not here.
"""

from __future__ import annotations

from typing import Optional

from repro.params import DRAMTimingParams


class Bank:
    """One DRAM bank's row-buffer state and timing obligations."""

    __slots__ = (
        "timing",
        "open_row",
        "_activate_time",
        "_ready_time",
        "_write_recovery_until",
        "row_hits",
        "row_misses",
        "row_conflicts",
    )

    def __init__(self, timing: DRAMTimingParams):
        self.timing = timing
        self.open_row: Optional[int] = None
        self._activate_time = -(10**18)
        self._ready_time = 0
        self._write_recovery_until = 0
        self.row_hits = 0
        self.row_misses = 0
        self.row_conflicts = 0

    def classify(self, row: int) -> str:
        """'hit' (row open), 'miss' (bank idle), or 'conflict' (other row)."""
        if self.open_row is None:
            return "miss"
        if self.open_row == row:
            return "hit"
        return "conflict"

    def access_ready_time(self, now: int, row: int, is_write: bool) -> int:
        """Tick at which the data for an access to ``row`` is available.

        This *simulates* issuing the necessary PRE/ACT/CAS sequence and
        updates bank state; call it once per scheduled access.
        """
        timing = self.timing
        start = max(now, self._ready_time)
        kind = self.classify(row)
        if kind == "hit":
            self.row_hits += 1
        elif kind == "miss":
            self.row_misses += 1
            start = start + timing.tRCD  # ACT then CAS
            self._activate_time = max(now, self._ready_time)
            self.open_row = row
        else:  # conflict: PRE (honoring tRAS and write recovery), then ACT
            self.row_conflicts += 1
            precharge_at = max(
                start,
                self._activate_time + timing.tRAS,
                self._write_recovery_until,
            )
            start = precharge_at + timing.tRP + timing.tRCD
            self._activate_time = precharge_at + timing.tRP
            self.open_row = row
        # CAS latency applies to reads; writes complete into the write
        # buffer after a CWL ~= CL write latency as well.  Back-to-back
        # column commands to the open row pipeline at tCCD, so the *bank*
        # is ready for the next CAS long before this access's data beat.
        data_time = start + timing.tCL
        self._ready_time = start + timing.tCCD
        if is_write:
            self._write_recovery_until = data_time + timing.tWR
        return data_time

    def access_ready_batch(
        self, now: int, row: int, is_write: bool, count: int
    ) -> list:
        """Data-availability ticks for ``count`` back-to-back accesses to ``row``.

        Byte-identical to calling :meth:`access_ready_time` ``count``
        times with the same arguments: the first access pays the full
        hit/miss/conflict classification, and every follow-up is by
        construction a row hit (the first access left ``row`` open), so
        it collapses to the pipelined tCCD/tCL arithmetic with no
        classification, no attribute churn, and one write-recovery
        update at the end.  This is the DRAM half of the batched drain
        path — the controller calls it once per same-row run instead of
        once per cacheline.
        """
        times = [self.access_ready_time(now, row, is_write)]
        if count > 1:
            timing = self.timing
            tCL = timing.tCL
            tCCD = timing.tCCD
            ready = self._ready_time
            append = times.append
            for _ in range(count - 1):
                start = ready if ready > now else now
                append(start + tCL)
                ready = start + tCCD
            self._ready_time = ready
            self.row_hits += count - 1
            if is_write:
                self._write_recovery_until = times[-1] + timing.tWR
        return times

    def precharge(self, now: int) -> None:
        """Close the open row (explicit precharge)."""
        if self.open_row is None:
            return
        self.open_row = None
        self._ready_time = (
            max(now, self._activate_time + self.timing.tRAS) + self.timing.tRP
        )

    def block_for_refresh(self, now: int) -> int:
        """An all-bank refresh: close the row, hold the bank for tRFC.

        Returns the tick at which the bank is usable again.
        """
        self.precharge(now)
        self._ready_time = max(self._ready_time, now) + self.timing.tRFC
        return self._ready_time

    @property
    def total_accesses(self) -> int:
        """All classified accesses so far."""
        return self.row_hits + self.row_misses + self.row_conflicts

    def hit_rate(self) -> float:
        """Row-buffer hit rate (0.0 when no accesses yet)."""
        total = self.total_accesses
        if total == 0:
            return 0.0
        return self.row_hits / total
