"""The CPU-integrated NIC node (iNIC) — Fig. 1 (middle), Sec. 3.

The NIC sits on the processor die: register accesses cost tens of
cycles instead of PCIe round trips, and DMA moves data between the NIC
and the LLC over on-die fabric.  RX packets land in the DDIO partition
of the LLC (so they do not consume host memory-channel bandwidth —
Sec. 5.3), but at high rates they thrash that partition and spill
(DMA leakage), and full-payload processing pollutes the rest of the
LLC — the L3 limitation that motivates NetDIMM's header split.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.ddio import DDIOPartition
from repro.dram.controller import MemoryController
from repro.driver.node import ServerNode, Stopwatch
from repro.mem.allocator import PageAllocator
from repro.mem.zones import MemoryZone, ZoneKind
from repro.net.packet import Packet
from repro.nic.descriptor import Descriptor, DescriptorRing
from repro.nic.registers import OnDieRegisterFile
from repro.params import SystemParams
from repro.sim import Simulator
from repro.units import mib, transfer_time


class IntegratedNICNode(ServerNode):
    """One server with an on-die 40GbE NIC using DDIO."""

    nic_kind = "inic"

    def __init__(
        self,
        sim: Simulator,
        name: str,
        *,
        params: Optional[SystemParams] = None,
        overrides: Optional[dict] = None,
        zero_copy: bool = False,
        normal_zone_bytes: int = mib(64),
    ):
        super().__init__(sim, name, params=params, overrides=overrides)
        self.zero_copy = zero_copy
        self.host_mc = MemoryController(sim, f"{name}.mc0", self.params.host_dram)
        self.regs = OnDieRegisterFile(
            sim, f"{name}.regs", access_latency=self.params.nic.inic_register_latency
        )
        self.ddio = DDIOPartition(
            llc_bytes=self.params.cache.l2_size,
            way_fraction=self.params.cache.ddio_way_fraction,
        )
        zone = MemoryZone(
            name="ZONE_NORMAL", kind=ZoneKind.NORMAL, base=0, size=normal_zone_bytes
        )
        self.allocator = PageAllocator(zone)
        self.tx_ring = DescriptorRing(size=256, base_address=self.allocator.alloc_page())
        self.rx_ring = DescriptorRing(size=256, base_address=self.allocator.alloc_page())

    @property
    def nic_label(self) -> str:
        """The Fig. 4 configuration label."""
        return "iNIC.zcpy" if self.zero_copy else "iNIC"

    def _llc_transfer(self, size_bytes: int) -> int:
        """On-die movement time between the NIC and the LLC."""
        return transfer_time(size_bytes, self.params.nic.llc_bytes_per_ps)

    def _fabric_dma(self, size_bytes: int) -> int:
        """Coherent-fabric DMA time: snoop + slice hop per line, pipelined.

        The first lines pay full fabric latency; once the stream is
        primed, lines flow at the on-die steady rate.
        """
        nic = self.params.nic
        lines = max(1, -(-size_bytes // 64))
        initial = min(lines, nic.inic_line_breakpoint)
        steady = lines - initial
        return initial * nic.inic_line_cost + steady * nic.inic_line_cost_steady

    # -- TX path ------------------------------------------------------------------

    def _transmit_body(self, packet: Packet):
        software = self.params.software
        watch = Stopwatch(self.sim, packet)

        yield software.tx_setup
        packet.app_address = self.allocator.alloc_page()
        dma_buffer = None
        if self.zero_copy:
            yield software.zero_copy_pin_cost
            packet.dma_address = packet.app_address
        else:
            dma_buffer = self.allocator.alloc_page()
            yield self.copy_cost(packet.size_bytes)
            packet.dma_address = dma_buffer
        watch.lap("txCopy")

        yield from self.regs.read("tx_status")
        index = self.tx_ring.produce(packet.dma_address, packet.size_bytes, cookie=packet)
        yield from self.regs.write("tx_tail", index)
        watch.lap("ioreg")

        # On-die DMA: the descriptor ring and the freshly written packet
        # buffer are LLC-resident (the CPU just wrote them), so the NIC
        # pulls both over the on-die fabric; a descriptor-ring line that
        # aged out would come from DRAM, which we charge via the MC when
        # zero-copy hands over a cold application buffer.
        yield self.params.nic.dma_setup
        yield self.params.nic.inic_desc_fetch
        if self.zero_copy:
            # Application buffers are not guaranteed LLC-resident.
            yield self.host_mc.read(packet.dma_address, packet.size_bytes)
        else:
            yield self._fabric_dma(packet.size_bytes)
        self.tx_ring.consume()
        watch.lap("txDMA")

        self.allocator.free_page(packet.app_address)
        if dma_buffer is not None:
            self.allocator.free_page(dma_buffer)
        self.stats.count("tx_packets")
        return packet

    # -- RX path --------------------------------------------------------------------

    def _receive_body(self, packet: Packet):
        software = self.params.software
        nic = self.params.nic
        watch = Stopwatch(self.sim, packet)

        # MAC + DMA into the DDIO partition of the LLC.
        yield nic.mac_rx_pipeline
        yield nic.dma_setup
        dma_buffer = self.allocator.alloc_page()
        yield nic.inic_desc_fetch
        index = self.rx_ring.produce(dma_buffer, packet.size_bytes, cookie=packet)
        spilled = self.ddio.inject(dma_buffer, packet.size_bytes)
        if spilled:
            # DMA leakage: evicted-unconsumed lines write back to DRAM.
            self.stats.count("ddio_spilled_lines", spilled)
            self.host_mc.write(dma_buffer, spilled * 64)
        yield self._fabric_dma(packet.size_bytes)
        yield nic.inic_desc_fetch  # status writeback
        packet.dma_address = dma_buffer
        watch.lap("rxDMA")

        # Polling (or IRQ): the status word is an LLC hit; the tail
        # update is an on-die register write.
        yield from self.rx_notification_gate(packet, nic.host_poll_read)
        self.rx_ring.consume()
        yield from self.regs.write("rx_tail", index)
        watch.lap("ioreg")

        # SKB + copy out of the LLC; lines the DDIO partition already
        # evicted must come from DRAM instead.
        yield software.rx_skb_alloc
        missed_lines = self.ddio.consume(dma_buffer, packet.size_bytes)
        if missed_lines:
            yield self.host_mc.read(dma_buffer, missed_lines * 64)
        app_page = None
        if self.zero_copy:
            yield software.zero_copy_pin_cost
            packet.app_address = packet.dma_address
        else:
            app_page = self.allocator.alloc_page()
            packet.app_address = app_page
            yield self.copy_cost_ddio(packet.size_bytes, missed_lines)
        watch.lap("rxCopy")

        self.allocator.free_page(dma_buffer)
        if app_page is not None:
            self.allocator.free_page(app_page)
        self.stats.count("rx_packets")
        return packet
