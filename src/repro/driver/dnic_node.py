"""The discrete PCIe NIC node (dNIC) — Fig. 1 (left), Sec. 2.1.

The baseline everything is compared against: a conventional NIC behind
a PCIe Gen4 x8 link.  Its TX path (paper steps T1–T4) pays PCIe for
the status-register read, the doorbell, the descriptor fetch, and the
payload DMA read; its RX path (R0–R5) pays PCIe for the descriptor
fetch, payload DMA write, and descriptor writeback.  With
``zero_copy=True`` the driver skips the SKB↔DMA-buffer copies and pays
per-packet page-pinning bookkeeping instead (the dNIC.zcpy / iNIC.zcpy
configurations of Fig. 4 and their Sec. 3 caveats).
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
from repro.nic.registers import PCIeRegisterFile
from repro.params import SystemParams
from repro.pcie.link import PCIeLink
from repro.sim import Simulator
from repro.units import mib


class DiscreteNICNode(ServerNode):
    """One server with a PCIe-attached 40GbE NIC."""

    nic_kind = "dnic"

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
        self.pcie = PCIeLink(sim, f"{name}.pcie", self.params.pcie)
        self.regs = PCIeRegisterFile(sim, f"{name}.regs", self.pcie)
        # Modern PCIe NICs use DDIO too (Sec. 2.1): RX DMA lands in the
        # LLC partition, so the driver's copy-out reads LLC-resident data.
        self.ddio = DDIOPartition(
            llc_bytes=self.params.cache.l2_size,
            way_fraction=self.params.cache.ddio_way_fraction,
        )
        zone = MemoryZone(
            name="ZONE_NORMAL", kind=ZoneKind.NORMAL, base=0, size=normal_zone_bytes
        )
        self.allocator = PageAllocator(zone)
        ring_page = self.allocator.alloc_page()
        self.tx_ring = DescriptorRing(size=256, base_address=ring_page)
        self.rx_ring = DescriptorRing(size=256, base_address=self.allocator.alloc_page())

    @property
    def nic_label(self) -> str:
        """The Fig. 4 configuration label."""
        return "dNIC.zcpy" if self.zero_copy else "dNIC"

    # -- TX path (T1–T3; T4 is the wire) ----------------------------------------

    def _transmit_body(self, packet: Packet):
        software = self.params.software
        watch = Stopwatch(self.sim, packet)

        # T1 @driver: transmit function entry + buffer preparation.
        yield software.tx_setup
        packet.app_address = self.allocator.alloc_page()
        dma_buffer = None
        if self.zero_copy:
            # The NIC DMA-reads the pinned application buffer directly.
            yield software.zero_copy_pin_cost
            packet.dma_address = packet.app_address
        else:
            dma_buffer = self.allocator.alloc_page()
            yield self.copy_cost(packet.size_bytes)
            packet.dma_address = dma_buffer
        watch.lap("txCopy")

        # T1/T2 @driver: check NIC state, produce descriptor, ring doorbell.
        yield from self.regs.read("tx_status")
        index = self.tx_ring.produce(packet.dma_address, packet.size_bytes, cookie=packet)
        yield from self.regs.write("tx_tail", index)
        watch.lap("ioreg")

        # T3 @NIC: descriptor fetch + payload DMA read, both over PCIe.
        # The payload is pulled line by line: one full round trip for the
        # first cacheline, then the pipelined per-line costs.
        yield self.params.nic.dma_setup
        yield self.pcie.read(Descriptor.DESCRIPTOR_BYTES)
        yield self.pcie.read(min(packet.size_bytes, 64))
        yield self.pcie.dma_pipeline_extra(packet.size_bytes)
        self.tx_ring.consume()
        watch.lap("txDMA")

        self.allocator.free_page(packet.app_address)
        if dma_buffer is not None:
            self.allocator.free_page(dma_buffer)
        self.stats.count("tx_packets")
        return packet

    # -- RX path (R1–R5; R0 is the wire) ------------------------------------------

    def _receive_body(self, packet: Packet):
        software = self.params.software
        nic = self.params.nic
        watch = Stopwatch(self.sim, packet)

        # MAC pipeline, then R1–R3 @NIC: descriptor fetch, payload DMA
        # write, descriptor status writeback — all PCIe transactions.
        yield nic.mac_rx_pipeline
        yield nic.dma_setup
        dma_buffer = self.allocator.alloc_page()
        yield self.pcie.read(Descriptor.DESCRIPTOR_BYTES)
        index = self.rx_ring.produce(dma_buffer, packet.size_bytes, cookie=packet)
        yield self.pcie.posted_write(min(packet.size_bytes, 64), toward_device=False)
        yield self.pcie.dma_pipeline_extra(packet.size_bytes)
        yield self.pcie.posted_write(Descriptor.DESCRIPTOR_BYTES, toward_device=False)
        spilled = self.ddio.inject(dma_buffer, packet.size_bytes)
        if spilled:
            self.stats.count("ddio_spilled_lines", spilled)
            self.host_mc.write(dma_buffer, spilled * 64)
        packet.dma_address = dma_buffer
        watch.lap("rxDMA")

        # R4 @driver: the polling agent (or IRQ) notices the status
        # writeback; the descriptor returns to the NIC (tail update over
        # PCIe).
        yield from self.rx_notification_gate(packet, nic.host_poll_read)
        self.rx_ring.consume()
        yield from self.regs.write("rx_tail", index)
        watch.lap("ioreg")

        # R5 @driver: SKB creation + payload copy to application space.
        # The copy reads DDIO-resident lines at LLC latency.
        yield software.rx_skb_alloc
        missed_lines = self.ddio.consume(dma_buffer, packet.size_bytes)
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

    # -- analytical helper ---------------------------------------------------------

    def pcie_overhead_estimate(self, size_bytes: int) -> int:
        """The PCIe-protocol share of one packet's TX+RX host latency.

        Counts latency that exists *only because* the NIC sits behind
        PCIe: the register-read round trip, doorbell issue, descriptor
        fetch round trips, per-transaction propagation/completion, and
        TLP header serialization — i.e. what an on-die NIC would not pay.
        Used for the ``pcie.overh`` series of Fig. 4.
        """
        link = self.pcie
        per_read_protocol = (
            link.tlp.header_serialization_ticks()
            + 2 * link.params.propagation
            + link.params.completion_overhead
        )
        overhead = link.mmio_read_latency()  # TX status register read
        overhead += 2 * link.params.doorbell_write_cost  # TX + RX tail writes
        overhead += 2 * per_read_protocol  # TX desc fetch + RX desc fetch
        overhead += per_read_protocol  # TX payload DMA read round trip
        overhead += link.params.propagation  # RX payload delivery traversal
        # TLP segmentation overhead on the payload in both directions.
        payload_overhead_bytes = 2 * (
            link.tlp.wire_bytes(size_bytes) - size_bytes
        )
        overhead += round(payload_overhead_bytes / link.tlp.raw_bytes_per_ps)
        return overhead
