"""Building a model allocates for what a run touches, not for capacity.

The one-way latency experiments build a fresh two-node scenario per
point, so construction cost is paid hundreds of times per calibration.
These bounds catch a capacity-sized structure (a full tag array, a
ring's worth of descriptors, a queue of every sub-array class) creeping
back into a constructor.  They leave several times the measured
allocation as margin for interpreter differences.
"""

import tracemalloc

from repro.cache import DDIOPartition
from repro.dram.geometry import DRAMGeometry
from repro.mem.allocator import PageAllocator
from repro.mem.zones import MemoryZone, ZoneKind
from repro.params import DEFAULT
from repro.scenario import ScenarioSpec, build_scenario
from repro.units import GB, KB, MB, mib


def allocation_peak(build) -> int:
    """Peak bytes allocated while ``build()`` runs (after one warm-up
    call, so lazy imports and memoized tables are not counted)."""
    build()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        build()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_ddio_partition_is_sized_by_use():
    large = allocation_peak(lambda: DDIOPartition(llc_bytes=mib(32)))
    small = allocation_peak(lambda: DDIOPartition(llc_bytes=mib(2)))
    assert large <= 16 * KB
    assert abs(large - small) <= 1 * KB


def test_net_zone_allocator_is_sized_by_use():
    def build():
        zone = MemoryZone(name="NET0", kind=ZoneKind.NET, base=16 * MB,
                          size=16 * GB, netdimm_index=0)
        allocator = PageAllocator(zone, DRAMGeometry(ranks=2))
        allocator.alloc_page()
        return allocator

    assert allocation_peak(build) <= 16 * KB


def test_two_node_netdimm_scenario_is_sized_by_use():
    spec = ScenarioSpec.two_node("netdimm", 64)
    assert allocation_peak(lambda: build_scenario(spec, base_params=DEFAULT)) <= 128 * KB
