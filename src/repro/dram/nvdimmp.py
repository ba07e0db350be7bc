"""The DDR5 / NVDIMM-P asynchronous transaction protocol (Sec. 2.2).

A conventional DDR access completes at a fixed, controller-known time.
An NVDIMM-P (and therefore NetDIMM) access is *asynchronous*: the host
memory controller issues an ``XRD`` command carrying a request ID, the
DIMM raises ``RDY`` on the response pins once the data is available in
its buffer device, the host then issues ``SEND``, and the data (tagged
with the ID) appears on DQ a fixed time later — Fig. 3(b).

:class:`AsyncMemoryPort` models one host channel's view of such a DIMM.
The actual media access time is delegated to a *device* object (for
NetDIMM, the buffer device in :mod:`repro.core.netdimm` — which may hit
nCache, queue at the nMC behind nNIC traffic, etc.), which is exactly
why the access time is non-deterministic from the host's perspective
(Sec. 4.1, R1/R2).
"""

from __future__ import annotations

from typing import Optional, Protocol, Union

from repro.params import DRAMTimingParams, NVDIMMPParams
from repro.sim import Component, Future, ProcessBody, Resource, Simulator
from repro.units import CACHELINE


class AsyncDevice(Protocol):
    """What an NVDIMM-P-style DIMM must implement for the host port."""

    def device_read(self, address: int, size_bytes: int) -> Union[Future, ProcessBody]:
        """A media read: an awaitable (a future, or a sub-transaction
        generator) that completes when the data is in the buffer."""

    def device_write(self, address: int, size_bytes: int) -> Future:
        """Start a media write; future completes when the write is accepted."""


class AsyncMemoryPort(Component):
    """Host-side port speaking the asynchronous protocol to one DIMM.

    Parameters
    ----------
    channel_bus:
        The host memory channel's shared data-bus resource.  Passing the
        same resource to several ports (or to a host controller wrapper)
        models conventional-DIMM and NetDIMM traffic contending for one
        physical channel.  If omitted, the port creates a private bus.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        device: AsyncDevice,
        timing: DRAMTimingParams,
        protocol: Optional[NVDIMMPParams] = None,
        channel_bus: Optional[Resource] = None,
    ):
        super().__init__(sim, name)
        self.device = device
        self.timing = timing
        self.protocol = protocol or NVDIMMPParams()
        self.channel_bus = channel_bus or Resource(sim, name=f"{name}.bus")
        self._next_request_id = 0

    def _lines(self, size_bytes: int) -> int:
        return max(1, -(-size_bytes // CACHELINE))

    def read(self, address: int, size_bytes: int = CACHELINE) -> ProcessBody:
        """Asynchronous read: XRD → media → RDY → SEND → data on DQ.

        A sub-transaction (``yield port.read(...)``): it returns the
        request ID once the last data beat has crossed the host channel.
        """
        self._next_request_id += 1
        return self._read_body(address, size_bytes, self._next_request_id)

    def _read_body(self, address: int, size_bytes: int, request_id: int):
        protocol = self.protocol
        start = self.sim._now
        burst = self._lines(size_bytes) * self.timing.tBURST
        # XRD command on the CA pins (command-bus occupancy).
        yield from self.channel_bus.use(self.timing.tCMD)
        yield protocol.xrd_cost
        # Media access inside the DIMM; RDY is raised when it finishes.
        yield self.device.device_read(address, size_bytes)
        self.stats.count("rdy_signals")
        # Host turnaround: observe RDY, issue SEND.
        yield protocol.rdy_to_send
        # Data appears on DQ after a fixed delay, then occupies the bus
        # for tBURST per cacheline.
        yield from self.channel_bus.use(protocol.send_to_data + burst)
        self.stats.count("async_reads")
        self.stats.sample("read_latency_ns", (self.now - start) / 1000)
        return request_id

    def write(self, address: int, size_bytes: int = CACHELINE) -> ProcessBody:
        """Asynchronous (posted) write: command+data cross the channel,
        then the DIMM absorbs the write in the background.

        A sub-transaction (``yield port.write(...)``): it returns when
        the DIMM has *accepted* the write (host-visible completion); the
        media write itself proceeds inside the device model.
        """
        return self._write_body(address, size_bytes)

    def _write_body(self, address: int, size_bytes: int):
        start = self.sim._now
        burst = self._lines(size_bytes) * self.timing.tBURST
        hold = self.timing.tCMD + burst
        yield from self.channel_bus.use(hold)
        yield self.protocol.write_post_cost
        # The device's media write continues in the background.
        self.device.device_write(address, size_bytes)
        self.stats.count("async_writes")
        self.stats.sample("write_latency_ns", (self.now - start) / 1000)
