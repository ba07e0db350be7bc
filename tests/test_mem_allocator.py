"""The sub-array-affine page allocator (__alloc_netdimm_pages)."""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.geometry import DRAMGeometry
from repro.mem.allocator import OutOfMemoryError, PageAllocator, PAGES_PER_CLASS
from repro.mem.zones import MemoryZone, ZoneKind
from repro.units import GB, KB, MB, PAGE


def net_zone(size=16 * GB, base=16 * MB):
    return MemoryZone(name="NET0", kind=ZoneKind.NET, base=base, size=size,
                      netdimm_index=0)


def normal_zone(size=4 * MB):
    return MemoryZone(name="ZONE_NORMAL", kind=ZoneKind.NORMAL, base=0, size=size)


@pytest.fixture
def allocator():
    return PageAllocator(net_zone(), DRAMGeometry(ranks=2))


class TestBasicAllocation:
    def test_pages_are_page_aligned(self, allocator):
        for _ in range(50):
            assert allocator.alloc_page() % PAGE == 0

    def test_pages_within_zone(self, allocator):
        for _ in range(50):
            address = allocator.alloc_page()
            assert allocator.zone.contains(address)

    def test_no_duplicate_allocations(self, allocator):
        pages = {allocator.alloc_page() for _ in range(200)}
        assert len(pages) == 200

    def test_allocated_counter(self, allocator):
        allocator.alloc_page()
        allocator.alloc_page()
        assert allocator.allocated_pages == 2

    def test_free_page_returns_to_pool(self, allocator):
        page = allocator.alloc_page()
        before = allocator.free_pages
        allocator.free_page(page)
        assert allocator.free_pages == before + 1

    def test_double_free_rejected(self, allocator):
        page = allocator.alloc_page()
        allocator.free_page(page)
        with pytest.raises(ValueError):
            allocator.free_page(page)

    def test_foreign_page_free_rejected(self, allocator):
        with pytest.raises(ValueError):
            allocator.free_page(0xDEAD000)

    def test_freed_page_reusable(self, allocator):
        page = allocator.alloc_page()
        allocator.free_page(page)
        klass = allocator.class_of(page)
        assert allocator.alloc_page_in_class(klass) == page

    def test_exhaustion_raises(self):
        allocator = PageAllocator(normal_zone(size=8 * PAGE))
        for _ in range(8):
            allocator.alloc_page()
        with pytest.raises(OutOfMemoryError):
            allocator.alloc_page()

    def test_subarray_class_count(self, allocator):
        # 2 ranks x 8 K classes (Sec. 4.2.2).
        assert allocator.subarray_classes() == 16384


class TestHintedAllocation:
    """The best-effort same-sub-array semantics of Sec. 4.2.1."""

    def test_hint_lands_on_same_subarray(self, allocator):
        first = allocator.alloc_page()
        second = allocator.alloc_page(hint=first)
        assert allocator.same_subarray(first, second)
        assert first != second

    def test_none_hint_only_zone_constraint(self, allocator):
        page = allocator.alloc_page(hint=None)
        assert allocator.zone.contains(page)

    def test_hint_outside_zone_ignored(self, allocator):
        page = allocator.alloc_page(hint=0x100)  # below zone base
        assert allocator.zone.contains(page)

    def test_best_effort_fallback_when_class_drained(self, allocator):
        hint = allocator.alloc_page()
        klass = allocator.class_of(hint)
        # Drain the hint's class completely.
        while allocator.alloc_page_in_class(klass) is not None:
            pass
        fallback = allocator.alloc_page(hint=hint)
        assert fallback is not None
        assert not allocator.same_subarray(hint, fallback)

    def test_class_holds_256_pages(self, allocator):
        hint = allocator.alloc_page()
        klass = allocator.class_of(hint)
        drained = 0
        while allocator.alloc_page_in_class(klass) is not None:
            drained += 1
        assert drained == PAGES_PER_CLASS - 1  # the hint page itself is out

    def test_unhinted_allocations_spread_over_classes(self, allocator):
        classes = {allocator.class_of(allocator.alloc_page()) for _ in range(64)}
        assert len(classes) > 32  # rotation spreads allocations

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_hint_affinity_property(self, page_index):
        allocator = PageAllocator(net_zone(), DRAMGeometry(ranks=2))
        hint = allocator.zone.base + page_index * PAGE
        allocated = allocator.alloc_page(hint=hint)
        assert allocator.same_subarray(hint, allocated)


class TestZoneSmallerThanDimm:
    def test_partial_zone_respects_bounds(self):
        geometry = DRAMGeometry(ranks=2)
        zone = MemoryZone(name="NET0", kind=ZoneKind.NET, base=0, size=64 * MB,
                          netdimm_index=0)
        allocator = PageAllocator(zone, geometry)
        for _ in range(100):
            assert allocator.alloc_page() < 64 * MB

    def test_zone_larger_than_dimm_rejected(self):
        geometry = DRAMGeometry(ranks=1)
        zone = net_zone(size=16 * GB, base=0)
        with pytest.raises(ValueError):
            PageAllocator(zone, geometry)

    def test_free_page_accounting_exact(self):
        zone = MemoryZone(name="NET0", kind=ZoneKind.NET, base=0, size=1 * MB,
                          netdimm_index=0)
        allocator = PageAllocator(zone, DRAMGeometry(ranks=2))
        pages = [allocator.alloc_page() for _ in range(zone.num_pages)]
        assert allocator.free_pages == 0
        assert len(set(pages)) == zone.num_pages
        with pytest.raises(OutOfMemoryError):
            allocator.alloc_page()


class TestNormalZoneAllocator:
    def test_geometry_free_allocator(self):
        allocator = PageAllocator(normal_zone())
        pages = [allocator.alloc_page() for _ in range(10)]
        assert len(set(pages)) == 10
        assert allocator.subarray_classes() == 1

    def test_same_subarray_trivially_true(self):
        allocator = PageAllocator(normal_zone())
        a = allocator.alloc_page()
        b = allocator.alloc_page()
        assert allocator.same_subarray(a, b)


class _DequeRotationAllocator(PageAllocator):
    """Unhinted allocation through an eager queue of every class.

    The front class is tried; a hit rotates it to the back, a miss drops
    it for good.  The cursor rotation must reproduce this order exactly.
    """

    def __init__(self, zone, geometry=None):
        super().__init__(zone, geometry)
        self._class_rotation = deque(range(self.subarray_classes()))

    def _pop_any(self):
        attempts = len(self._class_rotation)
        while attempts and self._class_rotation:
            subarray_class = self._class_rotation[0]
            address = self.alloc_page_in_class(subarray_class)
            if address is not None:
                self._class_rotation.rotate(-1)
                return address
            self._class_rotation.popleft()
            attempts -= 1
        raise OutOfMemoryError(f"zone {self.zone.name} exhausted")


def small_net_zone():
    """256 KB from the DIMM's base: 32 of 8 K classes hold 2 pages each,
    every other class holds none."""
    return MemoryZone(name="NET0", kind=ZoneKind.NET, base=0, size=256 * KB,
                      netdimm_index=0)


_ZONES = {
    "net": (small_net_zone, lambda: DRAMGeometry(ranks=1)),
    "normal": (lambda: normal_zone(size=16 * PAGE), lambda: None),
}


@st.composite
def _allocator_programs(draw, zone):
    page = st.integers(0, zone.num_pages - 1).map(lambda i: zone.base + i * PAGE)
    classes = st.one_of(
        st.integers(0, 3),
        st.sampled_from([16, 17, 512, 513, 8191]),
        st.integers(0, 8191),
    )
    operation = st.one_of(
        st.tuples(st.just("alloc")),
        st.tuples(st.just("alloc")),
        st.tuples(st.just("alloc_hint"), st.one_of(page, st.just(zone.end + PAGE))),
        st.tuples(st.just("alloc_in_class"), classes),
        st.tuples(st.just("free"), st.integers(0, 2**16)),
    )
    # Long enough to run the zone dry: hypothesis keeps unsized lists short.
    length = draw(st.integers(0, 300))
    return draw(st.lists(operation, min_size=length, max_size=length))


class TestCursorRotationMatchesDequeOracle:
    """Unhinted allocation keeps the eager queue's order and failures."""

    @staticmethod
    def _step(allocator, held, name, arg):
        try:
            if name == "alloc":
                address = allocator.alloc_page()
            elif name == "alloc_hint":
                address = allocator.alloc_page(hint=arg)
            elif name == "alloc_in_class":
                if arg >= allocator.subarray_classes():
                    return "skip"
                address = allocator.alloc_page_in_class(arg)
            else:
                if not held:
                    return "skip"
                address = held.pop(arg % len(held))
                allocator.free_page(address)
                return ("freed", address)
        except OutOfMemoryError:
            return "oom"
        if address is not None:
            held.append(address)
        return address

    @pytest.mark.parametrize("zone_kind", sorted(_ZONES))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_every_step_matches(self, zone_kind, data):
        make_zone, make_geometry = _ZONES[zone_kind]
        program = data.draw(_allocator_programs(make_zone()))
        allocator = PageAllocator(make_zone(), make_geometry())
        oracle = _DequeRotationAllocator(make_zone(), make_geometry())
        held, oracle_held = [], []
        for step, (name, *args) in enumerate(program):
            arg = args[0] if args else None
            got = self._step(allocator, held, name, arg)
            want = self._step(oracle, oracle_held, name, arg)
            assert got == want, (step, name, arg)
            assert allocator.free_pages == oracle.free_pages, step
            assert allocator.allocated_pages == oracle.allocated_pages, step

    def test_freed_page_in_dropped_class_is_not_reached_unhinted(self):
        allocator = PageAllocator(small_net_zone(), DRAMGeometry(ranks=1))
        drained = []
        while (address := allocator.alloc_page_in_class(0)) is not None:
            drained.append(address)
        assert len(drained) == 2
        # The cursor starts at class 0, finds it empty and drops it.
        assert allocator.class_of(allocator.alloc_page()) == 1
        allocator.free_page(drained[0])
        while allocator.free_pages > 1:
            assert allocator.class_of(allocator.alloc_page()) != 0
        with pytest.raises(OutOfMemoryError):
            allocator.alloc_page()
        assert allocator.free_pages == 1
        # A hint still reaches the page.
        assert allocator.alloc_page(hint=drained[0]) == drained[0]

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 4096),
        st.one_of(
            st.builds(lambda bank, low: bank * 512 + low, st.integers(0, 15), st.integers(0, 1)),
            st.integers(0, 8191),
        ),
    )
    def test_class_drains_in_page_order(self, zone_pages, subarray_class):
        """Draining a class yields every in-zone page of it, in index
        order, then None (a class's pages grow with the index, so the
        first page past the zone's end ends the class)."""
        zone = MemoryZone(name="NET0", kind=ZoneKind.NET, base=0,
                          size=zone_pages * PAGE, netdimm_index=0)
        allocator = PageAllocator(zone, DRAMGeometry(ranks=1))
        expected = [
            address
            for index in range(PAGES_PER_CLASS)
            if (address := allocator._page_of_class(subarray_class, index)) is not None
        ]
        drained = []
        while (address := allocator.alloc_page_in_class(subarray_class)) is not None:
            drained.append(address)
        assert drained == expected
        assert allocator.alloc_page_in_class(subarray_class) is None
