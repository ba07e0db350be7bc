"""In-memory buffer cloning: the extended RowClone engine (Sec. 4.1, Fig. 8).

Copying memory through the CPU costs two channel crossings per byte
(~1 us per 4 KB page over DDR3 [61]).  NetDIMM instead clones DMA
buffers to application buffers *inside* the DRAM, in one of three modes
chosen by where source and destination live:

* **FPM** (fast parallel mode) — source and destination rows share a
  bank sub-array: two back-to-back ACTIVATEs move a whole row
  (~90 ns/row [61]).  This is why ``__alloc_netdimm_pages`` tries so
  hard to co-locate buffers in a sub-array.
* **PSM** (pipeline serial mode) — same DRAM device (here: same rank),
  different bank/sub-array: cachelines stream over the device-internal
  bus.
* **GCM** (general cloning mode) — anything else: the buffer device
  reads the source up through the nMC and writes it back — a
  near-memory DMA engine, slowest but fully general.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.dram.controller import MemoryController
from repro.dram.geometry import DRAMGeometry, RANK_ROW_BYTES
from repro.params import NetDIMMParams
from repro.sim import Component, ProcessBody, Simulator
from repro.units import CACHELINE, PAGE, cachelines


class CloneMode(enum.Enum):
    """Which cloning mechanism a (src, dst) pair allows."""

    FPM = "fpm"
    PSM = "psm"
    GCM = "gcm"


class CloneEngine(Component):
    """The NetDIMM buffer device's clone executor."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        geometry: DRAMGeometry,
        nmc: MemoryController,
        params: Optional[NetDIMMParams] = None,
        zone_base: int = 0,
    ):
        super().__init__(sim, name)
        self.geometry = geometry
        self.nmc = nmc
        self.params = params or NetDIMMParams()
        self.zone_base = zone_base
        """Global base address of the NetDIMM zone; clone addresses are
        global and converted to DIMM-local for geometry decisions."""

    def _local(self, address: int) -> int:
        return address - self.zone_base

    def classify(self, src: int, dst: int) -> CloneMode:
        """Pick the clone mode for one page-or-smaller chunk."""
        src_local = self._local(src)
        dst_local = self._local(dst)
        if self.geometry.same_subarray(src_local, dst_local):
            return CloneMode.FPM
        if self.geometry.same_rank(src_local, dst_local):
            return CloneMode.PSM
        return CloneMode.GCM

    def latency_estimate(self, src: int, dst: int, size_bytes: int) -> int:
        """Closed-form unloaded clone latency (no nMC queueing)."""
        total = self.params.rowclone_issue_cost
        for chunk_src, chunk_dst, chunk_size in self._chunks(src, dst, size_bytes):
            mode = self.classify(chunk_src, chunk_dst)
            total += self._chunk_latency(mode, chunk_size)
        return total

    def _chunk_latency(self, mode: CloneMode, size_bytes: int) -> int:
        if mode is CloneMode.FPM:
            rows = max(1, -(-size_bytes // RANK_ROW_BYTES))
            return rows * self.params.rowclone_fpm_per_row
        lines = cachelines(size_bytes)
        if mode is CloneMode.PSM:
            return lines * self.params.rowclone_psm_per_line
        return lines * self.params.rowclone_gcm_per_line

    @staticmethod
    def _chunks(src: int, dst: int, size_bytes: int):
        """Split a clone at page boundaries (mode can differ per page)."""
        remaining = size_bytes
        while remaining > 0:
            src_room = PAGE - (src % PAGE)
            dst_room = PAGE - (dst % PAGE)
            chunk = min(remaining, src_room, dst_room)
            yield src, dst, chunk
            src += chunk
            dst += chunk
            remaining -= chunk

    def clone(self, src: int, dst: int, size_bytes: int) -> ProcessBody:
        """Execute a clone: a sub-transaction that returns when the copy
        is durable.

        FPM/PSM run inside the DRAM devices (latency only — they do not
        occupy the nMC data bus).  GCM round-trips every line through
        the nMC at nNIC priority, so it both takes longer and contends
        with other NetDIMM traffic, exactly the cost hierarchy of Fig. 8.
        """
        if size_bytes <= 0:
            raise ValueError(f"clone size must be positive: {size_bytes}")
        return self._clone_body(src, dst, size_bytes)

    def _clone_body(self, src: int, dst: int, size_bytes: int):
        start = self.now
        yield self.params.rowclone_issue_cost
        for chunk_src, chunk_dst, chunk_size in self._chunks(src, dst, size_bytes):
            mode = self.classify(chunk_src, chunk_dst)
            self.stats.count(f"clones_{mode.value}")
            self.stats.count(f"bytes_{mode.value}", chunk_size)
            if mode is CloneMode.GCM:
                yield self.nmc.read(self._local(chunk_src), chunk_size, priority=0)
                yield self.nmc.write(self._local(chunk_dst), chunk_size, priority=0)
                # The per-line engine overhead beyond the raw memory ops.
                yield cachelines(chunk_size) * max(
                    0,
                    self.params.rowclone_gcm_per_line
                    - self.params.rowclone_psm_per_line,
                )
            else:
                yield self._chunk_latency(mode, chunk_size)
        self.stats.sample("clone_ns", (self.now - start) / 1000)
