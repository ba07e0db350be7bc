"""The Ethernet wire model.

The "wire" segment of Fig. 11: MAC+PHY pipeline on each side,
serialization of the framed packet at link rate, and cable propagation.
Framing adds preamble, FCS, and inter-frame gap, and frames pad up to
the 64 B Ethernet minimum.
"""

from __future__ import annotations

from typing import Optional

from repro.params import DEFAULT, NetworkParams
from repro.sim import Component, ProcessBody, Resource, Simulator
from repro.units import transfer_time


class EthernetWire(Component):
    """One full-duplex point-to-point Ethernet link."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        *,
        params: Optional[NetworkParams] = None,
    ):
        super().__init__(sim, name)
        self.params = params if params is not None else DEFAULT.network
        self._tx_bus = Resource(sim, name=f"{name}.txbus")
        self._rx_bus = Resource(sim, name=f"{name}.rxbus")

    def frame_bytes(self, size_bytes: int) -> int:
        """On-wire bytes for a packet, with padding and framing."""
        return self.params.framed_bytes(size_bytes)

    def serialization_ticks(self, size_bytes: int) -> int:
        """Time for the framed packet to cross the link at line rate."""
        return transfer_time(self.frame_bytes(size_bytes), self.params.link_bytes_per_ps)

    def latency(self, size_bytes: int) -> int:
        """Closed-form unloaded one-way wire latency.

        Sender MAC/PHY + serialization + propagation + receiver MAC/PHY.
        """
        return (
            2 * self.params.mac_phy_latency
            + self.serialization_ticks(size_bytes)
            + self.params.propagation
        )

    def transmit(self, size_bytes: int, reverse: bool = False) -> ProcessBody:
        """Event-driven transmission: a sub-transaction returning at full
        reception (``yield wire.transmit(...)``).

        Concurrent packets in the same direction serialize on the link;
        wrap each in ``sim.spawn`` to send them concurrently.
        """
        start = self.now
        bus = self._rx_bus if reverse else self._tx_bus
        yield self.params.mac_phy_latency
        yield from bus.use(self.serialization_ticks(size_bytes))
        yield self.params.propagation + self.params.mac_phy_latency
        self.stats.count("packets")
        self.stats.count("bytes", size_bytes)
        self.stats.sample("wire_ns", (self.now - start) / 1000)
