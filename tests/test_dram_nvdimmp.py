"""The NVDIMM-P asynchronous protocol port (Sec. 2.2, Fig. 3(b))."""

import pytest

from repro.dram.nvdimmp import AsyncMemoryPort
from repro.params import NVDIMMPParams, ddr5_4800
from repro.sim import Resource, Simulator
from repro.units import CACHELINE, ns


class FakeDevice:
    """An async device with a programmable media latency."""

    def __init__(self, sim, media_latency=ns(30)):
        self.sim = sim
        self.media_latency = media_latency
        self.reads = []
        self.writes = []

    def device_read(self, address, size_bytes):
        self.reads.append((address, size_bytes, self.sim.now))
        return self.sim.timeout(self.media_latency)

    def device_write(self, address, size_bytes):
        self.writes.append((address, size_bytes, self.sim.now))
        return self.sim.timeout(self.media_latency)


@pytest.fixture
def port_and_device(sim):
    device = FakeDevice(sim)
    port = AsyncMemoryPort(sim, "port", device, timing=ddr5_4800())
    return port, device


class TestAsyncRead:
    def test_read_completes(self, sim, port_and_device):
        port, device = port_and_device
        done = port.read(0x100)
        sim.run_until(done)
        assert device.reads == [(0x100, CACHELINE, pytest.approx(sim.now, abs=10**6))]

    def test_read_latency_composition(self, sim, port_and_device):
        """XRD + media + RDY->SEND + SEND->data + burst."""
        port, device = port_and_device
        protocol = port.protocol
        timing = port.timing
        done = port.read(0x100)
        sim.run_until(done)
        finish = sim.now
        expected = (
            timing.tCMD
            + protocol.xrd_cost
            + device.media_latency
            + protocol.rdy_to_send
            + protocol.send_to_data
            + timing.tBURST
        )
        assert finish == expected

    def test_nondeterministic_media_latency_visible(self, sim):
        """R1/R2 of Sec. 4.1: host-observed latency tracks device state."""
        slow_device = FakeDevice(sim, media_latency=ns(500))
        port = AsyncMemoryPort(sim, "port", slow_device, timing=ddr5_4800())
        sim.run_until(port.read(0))
        assert sim.now > ns(500)

    def test_request_ids_increment(self, sim, port_and_device):
        port, _device = port_and_device
        first = sim.run_until(port.read(0))
        second = sim.run_until(port.read(64))
        assert (first, second) == (1, 2)

    def test_multi_line_burst_scales(self, sim, port_and_device):
        port, _device = port_and_device
        sim.run_until(port.read(0, CACHELINE))
        single = sim.now
        start = sim.now
        sim.run_until(port.read(0, 24 * CACHELINE))
        multi = sim.now - start
        assert multi - single == pytest.approx(23 * port.timing.tBURST, abs=10)

    def test_read_latency_stat_recorded(self, sim, port_and_device):
        port, _device = port_and_device
        sim.run_until(port.read(0))
        assert port.stats.histogram("read_latency_ns").count == 1
        assert port.stats.get_counter("async_reads") == 1


class TestAsyncWrite:
    def test_write_posts_quickly(self, sim, port_and_device):
        port, _device = port_and_device
        sim.run_until(port.write(0x200))
        # Posted: command + burst + post cost, no media wait.
        expected = port.timing.tCMD + port.timing.tBURST + port.protocol.write_post_cost
        assert sim.now == expected

    def test_write_reaches_device_in_background(self, sim, port_and_device):
        port, device = port_and_device
        sim.run_until(port.write(0x200, 128))
        assert device.writes == [(0x200, 128, pytest.approx(sim.now, abs=10**6))]

    def test_write_faster_than_read(self, sim, port_and_device):
        port, _device = port_and_device
        sim.run_until(port.write(0))
        write_finish = sim.now
        start = sim.now
        sim.run_until(port.read(64))
        read_elapsed = sim.now - start
        assert write_finish < read_elapsed


class TestChannelSharing:
    def test_shared_bus_serializes_ports(self, sim):
        """Two DIMMs on one channel contend for the bus."""
        bus = Resource(sim, "channel")
        device_a = FakeDevice(sim, media_latency=ns(1000))
        device_b = FakeDevice(sim, media_latency=ns(1000))
        port_a = AsyncMemoryPort(sim, "a", device_a, ddr5_4800(), channel_bus=bus)
        port_b = AsyncMemoryPort(sim, "b", device_b, ddr5_4800(), channel_bus=bus)
        sim.run_until(port_a.read(0))
        alone = sim.now
        start = sim.now
        both = sim.all_of(
            [sim.spawn(port_a.read(0)).done, sim.spawn(port_b.read(0)).done]
        )
        sim.run_until(both)
        # The second port's command/data phases queued behind the first;
        # media latency overlaps, so the total is far less than 2x.
        assert sim.now - start > alone
        assert sim.now - start < 2 * alone

    def test_private_bus_by_default(self, sim):
        device = FakeDevice(sim)
        port = AsyncMemoryPort(sim, "p", device, ddr5_4800())
        assert port.channel_bus.name == "p.bus"
