"""The shared one-way measurement machinery."""

import pytest

from repro.experiments.oneway import NIC_KINDS, make_node, measure_one_way, one_way_memo
from repro.net.packet import FIG11_SEGMENTS
from repro.params import DEFAULT
from repro.sim import Simulator


class TestMakeNode:
    @pytest.mark.parametrize("kind", NIC_KINDS)
    def test_all_kinds_constructible(self, kind):
        node = make_node(Simulator(), "n", kind)
        assert node.name == "n"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_node(Simulator(), "n", "quantum-nic")

    def test_zero_copy_variants(self):
        assert make_node(Simulator(), "n", "dnic.zcpy").zero_copy
        assert not make_node(Simulator(), "n", "dnic").zero_copy


class TestMeasureOneWay:
    def test_result_fields(self):
        result = measure_one_way("inic", 256)
        assert result.nic_kind == "inic"
        assert result.size_bytes == 256
        assert result.total_ticks == sum(result.segments.values())
        assert result.total_us == result.total_ticks / 1e6

    def test_segments_are_fig11_labels(self):
        result = measure_one_way("netdimm", 256)
        assert set(result.segments) <= set(FIG11_SEGMENTS)

    def test_wire_segment_present(self):
        result = measure_one_way("dnic", 256)
        assert result.segments["wire"] > 0
        assert result.host_ticks() == result.total_ticks - result.segments["wire"]

    def test_deterministic(self):
        assert measure_one_way("netdimm", 512) == measure_one_way("netdimm", 512)

    def test_warm_packets_engage_fast_path(self):
        warm = measure_one_way("netdimm", 1024, warm_packets=1)
        cold = measure_one_way("netdimm", 1024, warm_packets=0)
        assert warm.total_ticks < cold.total_ticks

    def test_latency_monotone_in_size_per_config(self):
        for kind in ("dnic", "inic", "netdimm"):
            totals = [measure_one_way(kind, size).total_ticks
                      for size in (64, 256, 1024)]
            assert totals == sorted(totals)

    def test_cached_measurement_consistent(self, one_way_builds):
        direct = measure_one_way("inic", 320)
        with one_way_memo():
            measure_one_way("inic", 320)
            cached = measure_one_way("inic", 320)
        assert one_way_builds == [2]  # the memo's second call was a hit
        assert cached == direct


class TestOneWayMemo:
    def test_outside_a_memo_every_call_simulates(self, one_way_builds):
        first = measure_one_way("dnic", 64)
        second = measure_one_way("dnic", 64)
        assert one_way_builds == [2]
        assert first == second

    def test_key_covers_kind_size_params_and_warmup(self, one_way_builds):
        slower = DEFAULT.with_switch_latency(DEFAULT.network.switch_latency + 1)
        with one_way_memo():
            measure_one_way("dnic", 64)
            measure_one_way("dnic", 64, DEFAULT)  # None normalises to DEFAULT
            measure_one_way("inic", 64)
            measure_one_way("dnic", 128)
            measure_one_way("dnic", 64, slower)
            measure_one_way("dnic", 64, warm_packets=0)
        assert one_way_builds == [5]

    def test_memo_ends_with_its_block(self, one_way_builds):
        with one_way_memo():
            measure_one_way("netdimm", 64)
        with one_way_memo():
            measure_one_way("netdimm", 64)
        measure_one_way("netdimm", 64)
        assert one_way_builds == [3]
