"""Generic cache, DDIO partition, and hierarchy latency model."""

import dataclasses
import random
from typing import Dict, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import (
    CacheHierarchyModel,
    DDIOPartition,
    ReplacementPolicy,
    SetAssociativeCache,
)
from repro.cache.cache import CacheStats
from repro.params import CacheParams
from repro.units import CACHELINE


class TestSetAssociativeCache:
    def test_miss_then_hit(self):
        cache = SetAssociativeCache(num_lines=64, ways=4)
        assert not cache.lookup(0x1000)
        cache.fill(0x1000)
        assert cache.lookup(0x1000)

    def test_capacity(self):
        cache = SetAssociativeCache(num_lines=64, ways=4)
        assert cache.capacity_bytes == 64 * CACHELINE

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(num_lines=0, ways=4)
        with pytest.raises(ValueError):
            SetAssociativeCache(num_lines=10, ways=3)

    def test_eviction_when_set_full(self):
        cache = SetAssociativeCache(num_lines=4, ways=2)  # 2 sets
        set_stride = cache.num_sets * CACHELINE
        cache.fill(0)
        cache.fill(set_stride)
        victim = cache.fill(2 * set_stride)
        assert victim in (0, set_stride)
        assert cache.occupancy() == 2

    def test_lru_evicts_least_recent(self):
        cache = SetAssociativeCache(num_lines=2, ways=2, policy=ReplacementPolicy.LRU)
        cache.fill(0)
        cache.fill(CACHELINE)  # same set (1 set total)
        cache.lookup(0)  # touch 0
        victim = cache.fill(2 * CACHELINE)
        assert victim == CACHELINE

    def test_fifo_evicts_oldest_insert(self):
        cache = SetAssociativeCache(num_lines=2, ways=2, policy=ReplacementPolicy.FIFO)
        cache.fill(0)
        cache.fill(CACHELINE)
        cache.lookup(0)  # touching must NOT protect under FIFO
        victim = cache.fill(2 * CACHELINE)
        assert victim == 0

    def test_random_replacement_deterministic_with_seed(self):
        def evictions(seed):
            cache = SetAssociativeCache(
                num_lines=2, ways=2, policy=ReplacementPolicy.RANDOM, seed=seed
            )
            cache.fill(0)
            cache.fill(CACHELINE)
            return [cache.fill((2 + i) * CACHELINE) for i in range(10)]

        assert evictions(7) == evictions(7)

    def test_refill_existing_updates_in_place(self):
        cache = SetAssociativeCache(num_lines=4, ways=2)
        cache.fill(0)
        assert cache.fill(0) is None
        assert cache.stats.fills == 1  # in-place update is not a new fill

    def test_invalidate(self):
        cache = SetAssociativeCache(num_lines=4, ways=2)
        cache.fill(0)
        assert cache.invalidate(0)
        assert not cache.invalidate(0)
        assert not cache.contains(0)

    def test_flags_lifecycle(self):
        cache = SetAssociativeCache(num_lines=4, ways=2)
        cache.fill(0, first_line=True)
        assert cache.get_flag(0, "first_line")
        cache.set_flag(0, "first_line", False)
        assert not cache.get_flag(0, "first_line")

    def test_flag_on_absent_line_is_false(self):
        cache = SetAssociativeCache(num_lines=4, ways=2)
        assert not cache.get_flag(0x5000, "anything")

    def test_hit_rate_statistics(self):
        cache = SetAssociativeCache(num_lines=4, ways=2)
        cache.lookup(0)
        cache.fill(0)
        cache.lookup(0)
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_occupancy_fraction(self):
        cache = SetAssociativeCache(num_lines=4, ways=2)
        assert cache.occupancy_fraction() == 0.0
        cache.fill(0)
        assert cache.occupancy_fraction() == 0.25

    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=200))
    def test_occupancy_never_exceeds_capacity(self, line_indices):
        cache = SetAssociativeCache(num_lines=16, ways=4)
        for index in line_indices:
            cache.fill(index * CACHELINE)
        assert cache.occupancy() <= 16

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=100))
    def test_fill_then_contains(self, line_indices):
        cache = SetAssociativeCache(num_lines=256, ways=4)  # big enough: no evictions
        for index in line_indices:
            cache.fill(index * CACHELINE)
        for index in line_indices:
            assert cache.contains(index * CACHELINE)


class _EagerLine:
    def __init__(self, tag, seq, flags):
        self.tag = tag
        self.inserted_seq = seq
        self.touched_seq = seq
        self.flags = dict(flags)


class _EagerCache:
    """The eager tag array: one dict per set, all built up front.

    The reference :class:`SetAssociativeCache` must match step for step;
    only where the sets live may differ.
    """

    def __init__(self, num_lines, ways, policy, seed):
        self.ways = ways
        self.num_sets = num_lines // ways
        self.policy = policy
        self._rng = random.Random(seed)
        self._sets: List[Dict[int, _EagerLine]] = [dict() for _ in range(self.num_sets)]
        self._seq = 0
        self.stats = CacheStats()

    def _index(self, address):
        line = address // CACHELINE
        return line % self.num_sets, line // self.num_sets

    def lookup(self, address, touch=True):
        set_index, tag = self._index(address)
        line = self._sets[set_index].get(tag)
        if line is None:
            self.stats.misses += 1
            return False
        self.stats.hits += 1
        if touch:
            self._seq += 1
            line.touched_seq = self._seq
        return True

    def contains(self, address):
        set_index, tag = self._index(address)
        return tag in self._sets[set_index]

    def fill(self, address, **flags):
        set_index, tag = self._index(address)
        lines = self._sets[set_index]
        self._seq += 1
        if tag in lines:
            lines[tag].touched_seq = self._seq
            lines[tag].flags.update(flags)
            return None
        victim_address = None
        if len(lines) >= self.ways:
            if self.policy is ReplacementPolicy.RANDOM:
                victim_tag = self._rng.choice(sorted(lines))
            elif self.policy is ReplacementPolicy.FIFO:
                victim_tag = min(lines.values(), key=lambda line: line.inserted_seq).tag
            else:
                victim_tag = min(lines.values(), key=lambda line: line.touched_seq).tag
            del lines[victim_tag]
            self.stats.evictions += 1
            victim_address = (victim_tag * self.num_sets + set_index) * CACHELINE
        lines[tag] = _EagerLine(tag, self._seq, flags)
        self.stats.fills += 1
        return victim_address

    def invalidate(self, address):
        set_index, tag = self._index(address)
        if tag in self._sets[set_index]:
            del self._sets[set_index][tag]
            self.stats.invalidations += 1
            return True
        return False

    def invalidate_many(self, addresses):
        dropped = 0
        for address in addresses:
            set_index, tag = self._index(address)
            lines = self._sets[set_index]
            if tag in lines:
                del lines[tag]
                dropped += 1
        if dropped:
            self.stats.invalidations += dropped
        return dropped

    def get_flag(self, address, flag):
        set_index, tag = self._index(address)
        line = self._sets[set_index].get(tag)
        return False if line is None else line.flags.get(flag, False)

    def set_flag(self, address, flag, value):
        set_index, tag = self._index(address)
        line = self._sets[set_index].get(tag)
        if line is not None:
            line.flags[flag] = value

    def occupancy(self):
        return sum(len(lines) for lines in self._sets)


_SHAPES = [(1, 1), (4, 4), (8, 2), (64, 4), (4096, 2), (16384, 16)]
_FLAGS = ("first_line", "dirty")


@st.composite
def _cache_programs(draw):
    num_lines, ways = draw(st.sampled_from(_SHAPES))
    num_sets = num_lines // ways
    # A few sets (both ends and the middle) and a few more tags than
    # ways, so sets fill, evict and hit; the byte offset exercises the
    # line arithmetic.
    sets = sorted({0, num_sets // 2, num_sets - 1})
    addresses = st.builds(
        lambda set_index, tag, offset: (tag * num_sets + set_index) * CACHELINE + offset,
        st.sampled_from(sets),
        st.integers(0, 2 * ways + 1),
        st.integers(0, CACHELINE - 1),
    )
    flag_names = st.sampled_from(_FLAGS)
    fill = st.tuples(
        st.just("fill"), addresses, st.dictionaries(flag_names, st.booleans(), max_size=2)
    )
    operation = st.one_of(
        fill,
        fill,
        st.tuples(st.just("lookup"), addresses, st.booleans()),
        st.tuples(st.just("contains"), addresses),
        st.tuples(st.just("invalidate"), addresses),
        st.tuples(st.just("invalidate_many"), st.lists(addresses, max_size=6)),
        st.tuples(st.just("get_flag"), addresses, flag_names),
        st.tuples(st.just("set_flag"), addresses, flag_names, st.booleans()),
    )
    policy = draw(st.sampled_from(list(ReplacementPolicy)))
    seed = draw(st.integers(0, 2**16))
    # Long enough to fill and evict: hypothesis keeps unsized lists short.
    length = draw(st.integers(0, 150))
    program = draw(st.lists(operation, min_size=length, max_size=length))
    return num_lines, ways, policy, seed, program


class TestLazySetsMatchEagerOracle:
    """Sets that materialize on first fill change nothing observable."""

    @settings(max_examples=150, deadline=None)
    @given(_cache_programs())
    def test_every_step_matches(self, case):
        num_lines, ways, policy, seed, program = case
        cache = SetAssociativeCache(num_lines=num_lines, ways=ways, policy=policy, seed=seed)
        oracle = _EagerCache(num_lines, ways, policy, seed)
        for step, (name, *args) in enumerate(program):
            if name == "fill":
                address, flags = args
                got, want = cache.fill(address, **flags), oracle.fill(address, **flags)
            elif name == "lookup":
                address, touch = args
                got = cache.lookup(address, touch=touch)
                want = oracle.lookup(address, touch=touch)
            else:
                got, want = getattr(cache, name)(*args), getattr(oracle, name)(*args)
            assert got == want, (step, name, args)
            assert dataclasses.asdict(cache.stats) == dataclasses.asdict(oracle.stats), step
            assert cache.occupancy() == oracle.occupancy(), step

    def test_untouched_sets_stay_unbuilt(self):
        cache = SetAssociativeCache(num_lines=16384, ways=16)
        assert not cache.lookup(0x4000)
        assert not cache.contains(0x8000)
        assert not cache.invalidate(0xC000)
        assert cache.invalidate_many(range(0, 64 * CACHELINE, CACHELINE)) == 0
        cache.set_flag(0x10000, "first_line", True)
        assert not cache.get_flag(0x10000, "first_line")
        assert cache._sets == {}
        cache.fill(0x4000)
        assert len(cache._sets) == 1
        assert cache.occupancy() == 1


class TestDDIOPartition:
    def test_partition_is_fraction_of_llc(self):
        ddio = DDIOPartition(llc_bytes=2 * 1024 * 1024, way_fraction=0.10)
        assert ddio.capacity_bytes == pytest.approx(0.10 * 2 * 1024 * 1024, rel=0.01)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            DDIOPartition(llc_bytes=1024 * 1024, way_fraction=0.0)
        with pytest.raises(ValueError):
            DDIOPartition(llc_bytes=1024 * 1024, way_fraction=1.5)

    def test_inject_then_consume_hits(self):
        ddio = DDIOPartition(llc_bytes=2 * 1024 * 1024)
        ddio.inject(0x10000, 1514)
        assert ddio.consume(0x10000, 1514) == 0

    def test_consume_uninjected_misses(self):
        ddio = DDIOPartition(llc_bytes=2 * 1024 * 1024)
        assert ddio.consume(0x10000, 1514) == 24

    def test_overflow_spills(self):
        ddio = DDIOPartition(llc_bytes=64 * 1024)  # ~100-line partition
        spilled = 0
        for packet in range(20):
            spilled += ddio.inject(packet * 4096, 1514)
        assert spilled > 0
        assert ddio.spill_rate() > 0

    def test_no_spill_under_capacity(self):
        ddio = DDIOPartition(llc_bytes=2 * 1024 * 1024)
        assert ddio.inject(0, 1514) == 0
        assert ddio.spill_rate() == 0.0

    def test_resident_misses_nondestructive(self):
        ddio = DDIOPartition(llc_bytes=2 * 1024 * 1024)
        ddio.inject(0, 1514)
        assert ddio.resident_misses(0, 1514) == 0
        assert ddio.resident_misses(0, 1514) == 0  # still resident

    def test_consume_removes_lines(self):
        ddio = DDIOPartition(llc_bytes=2 * 1024 * 1024)
        ddio.inject(0, 128)
        ddio.consume(0, 128)
        assert ddio.resident_misses(0, 128) == 2

    def test_recycled_buffer_hits_in_place(self):
        """An RX ring reusing its buffers re-DMAs into resident lines."""
        ddio = DDIOPartition(llc_bytes=2 * 1024 * 1024)
        for _round in range(10):
            spilled = ddio.inject(0x40000, 1514)
            assert spilled == 0


class TestCacheHierarchyModel:
    def make(self, **kwargs):
        return CacheHierarchyModel(CacheParams(), **kwargs)

    def test_clean_latency_below_dram(self):
        model = self.make()
        latency = model.average_latency(dram_latency=70_000)
        assert latency < 70_000

    def test_pollution_raises_latency(self):
        model = self.make()
        clean = model.average_latency(dram_latency=70_000)
        model.pollute(1024 * 1024)
        polluted = model.average_latency(dram_latency=70_000)
        assert polluted > clean

    def test_reset_pollution(self):
        model = self.make()
        model.pollute(1024 * 1024)
        model.reset_pollution()
        assert model.resident_fraction(0) == 1.0

    def test_resident_fraction_saturates_at_zero(self):
        model = self.make()
        model.pollute(100 * 1024 * 1024)
        assert model.resident_fraction(0) == 0.0

    def test_competition_hit_rate_clean_fit(self):
        model = self.make(working_set_bytes=1024 * 1024)  # fits in 2 MB LLC
        assert model.competition_hit_rate(0.0) == pytest.approx(
            model.llc_hit_rate_clean
        )

    def test_competition_overflow_degrades(self):
        model = self.make(working_set_bytes=4 * 1024 * 1024)  # 2x the LLC
        assert model.competition_hit_rate(0.0) < model.llc_hit_rate_clean

    def test_capacity_fraction_degrades(self):
        model = self.make(working_set_bytes=2_600_000)
        full = model.competition_hit_rate(0.0, capacity_fraction=1.0)
        carved = model.competition_hit_rate(0.0, capacity_fraction=0.9)
        assert carved < full

    def test_pollution_rate_degrades(self):
        model = self.make()
        quiet = model.competition_hit_rate(0.0)
        loud = model.competition_hit_rate(50e6)
        assert loud < quiet

    def test_beyond_l1_latency_between_llc_and_dram(self):
        model = self.make()
        latency = model.beyond_l1_latency(dram_latency=60_000)
        assert CacheParams().l2_latency < latency < 60_000

    def test_beyond_l1_monotone_in_pollution(self):
        model = self.make()
        values = [
            model.beyond_l1_latency(60_000, pollution_lines_per_second=rate)
            for rate in (0, 1e6, 1e7, 1e8)
        ]
        assert values == sorted(values)
