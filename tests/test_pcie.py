"""PCIe TLP arithmetic and link transaction timing."""

import pytest
from hypothesis import given, strategies as st

from repro.params import PCIeParams
from repro.pcie import PCIeLink, TLPModel
from repro.sim import Simulator
from repro.units import to_ns


@pytest.fixture
def tlp():
    return TLPModel(PCIeParams())


@pytest.fixture
def link(sim):
    return PCIeLink(sim, "pcie")


class TestTLPModel:
    def test_raw_bandwidth_gen4_x8(self, tlp):
        # 8 lanes x 16 GT/s x 128/130 / 8 bits ~= 15.75 GB/s.
        gbps = tlp.raw_bytes_per_ps * 1e12 / 1e9
        assert gbps == pytest.approx(15.75, rel=0.01)

    def test_single_tlp_below_mps(self, tlp):
        assert tlp.data_tlp_count(256) == 1
        assert tlp.data_tlp_count(100) == 1

    def test_segmentation_at_mps(self, tlp):
        assert tlp.data_tlp_count(257) == 2
        assert tlp.data_tlp_count(1024) == 4

    def test_zero_payload_zero_tlps(self, tlp):
        assert tlp.data_tlp_count(0) == 0

    def test_read_request_split_at_mrrs(self, tlp):
        assert tlp.read_request_count(512) == 1
        assert tlp.read_request_count(513) == 2

    def test_wire_bytes_include_headers(self, tlp):
        assert tlp.wire_bytes(256) == 256 + tlp.params.tlp_header_bytes
        assert tlp.wire_bytes(512) == 512 + 2 * tlp.params.tlp_header_bytes

    def test_overhead_fraction_shrinks_with_size(self, tlp):
        assert tlp.protocol_overhead_fraction(64) > tlp.protocol_overhead_fraction(256)

    def test_small_payload_overhead_significant(self, tlp):
        # An 18 B header on a 64 B payload is >20% overhead — the PCIe
        # inefficiency the paper attacks.
        assert tlp.protocol_overhead_fraction(64) > 0.20

    def test_effective_bandwidth_below_raw(self, tlp):
        assert tlp.effective_bytes_per_ps(256) < tlp.raw_bytes_per_ps

    def test_serialization_positive(self, tlp):
        assert tlp.serialization_ticks(1) >= 1
        assert tlp.serialization_ticks(0) == 0

    @given(st.integers(min_value=1, max_value=1 << 20))
    def test_wire_bytes_superset_of_payload(self, size):
        tlp = TLPModel(PCIeParams())
        assert tlp.wire_bytes(size) > size

    @given(st.integers(min_value=1, max_value=1 << 16))
    def test_serialization_monotone(self, size):
        tlp = TLPModel(PCIeParams())
        assert tlp.serialization_ticks(size) <= tlp.serialization_ticks(size + 64)


class TestLinkTransactions:
    def test_posted_write_one_way(self, sim, link):
        sim.run_until(link.posted_write(64))
        expected = link.tlp.serialization_ticks(64) + link.params.propagation
        assert sim.now == expected

    def test_read_round_trip(self, sim, link):
        sim.run_until(link.read(64))
        assert sim.now == link.dma_read_latency(64)

    def test_read_slower_than_posted_write(self, sim, link):
        sim.run_until(link.posted_write(64))
        write_finish = sim.now
        sim2 = Simulator()
        link2 = PCIeLink(sim2, "pcie")
        sim2.run_until(link2.read(64))
        assert sim2.now > write_finish

    def test_mmio_read_blocking_cost(self, sim, link):
        sim.run_until(link.mmio_read())
        assert sim.now == link.mmio_read_latency()
        # Order of the measured PCIe register-read round trips [59].
        assert 150 <= to_ns(sim.now) <= 1000

    def test_mmio_write_cpu_cost_is_cheap(self, link):
        assert link.mmio_write_cpu_cost() < link.mmio_read_latency() / 3

    def test_concurrent_reads_share_completion_bandwidth(self, sim, link):
        solo_sim = Simulator()
        solo_link = PCIeLink(solo_sim, "pcie")
        solo_sim.run_until(solo_link.read(4096))
        solo = solo_sim.now
        both = sim.all_of(
            [sim.spawn(link.read(4096)).done, sim.spawn(link.read(4096)).done]
        )
        sim.run_until(both)
        assert sim.now > solo  # they queued on the upstream direction

    def test_directions_independent(self, sim, link):
        # A downstream write and an upstream write do not queue on each
        # other.
        down = sim.spawn(link.posted_write(4096, toward_device=True)).done
        up = sim.spawn(link.posted_write(4096, toward_device=False)).done
        sim.run_until(sim.all_of([down, up]))
        solo_sim = Simulator()
        solo_link = PCIeLink(solo_sim, "pcie")
        solo_sim.run_until(solo_link.posted_write(4096))
        assert sim.now == solo_sim.now

    def test_stats_recorded(self, sim, link):
        sim.run_until(link.posted_write(64))
        sim.run_until(link.read(64))
        sim.run_until(link.mmio_read())
        assert link.stats.get_counter("posted_writes") == 1
        assert link.stats.get_counter("reads") == 2  # mmio read uses read()
        assert link.stats.get_counter("mmio_reads") == 1


class TestDMAPipeline:
    def test_single_line_no_extra(self, link):
        assert link.dma_pipeline_extra(64) == 0

    def test_small_transfer_initial_cost(self, link):
        params = link.params
        # 4 lines: 3 extra at the initial rate.
        assert link.dma_pipeline_extra(256) == 3 * params.dma_line_cost_initial

    def test_large_transfer_steady_cost(self, link):
        params = link.params
        lines = 24  # MTU
        expected = (
            (params.dma_pipeline_breakpoint - 1) * params.dma_line_cost_initial
            + (lines - params.dma_pipeline_breakpoint) * params.dma_line_cost_steady
        )
        assert link.dma_pipeline_extra(1514) == expected

    def test_monotone_in_size(self, link):
        values = [link.dma_pipeline_extra(size) for size in (64, 256, 1024, 4096)]
        assert values == sorted(values)

    def test_closed_form_latencies_positive(self, link):
        assert link.dma_read_latency(64) > 0
        assert link.dma_write_latency(64) > 0
        assert link.dma_read_latency(4096) > link.dma_read_latency(64)
