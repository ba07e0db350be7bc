"""Bank state machine: row-buffer management and DDR timing."""

import pytest
from hypothesis import given, strategies as st

from repro.dram.bank import Bank
from repro.params import ddr4_2400


@pytest.fixture
def bank():
    return Bank(ddr4_2400())


class TestRowBufferState:
    def test_starts_closed(self, bank):
        assert bank.open_row is None

    def test_classify_miss_when_closed(self, bank):
        assert bank.classify(5) == "miss"

    def test_first_access_opens_row(self, bank):
        bank.access_ready_time(0, row=5, is_write=False)
        assert bank.open_row == 5

    def test_classify_hit_when_open(self, bank):
        bank.access_ready_time(0, row=5, is_write=False)
        assert bank.classify(5) == "hit"

    def test_classify_conflict_other_row(self, bank):
        bank.access_ready_time(0, row=5, is_write=False)
        assert bank.classify(6) == "conflict"

    def test_precharge_closes_row(self, bank):
        bank.access_ready_time(0, row=5, is_write=False)
        bank.precharge(100_000)
        assert bank.open_row is None

    def test_precharge_idle_bank_noop(self, bank):
        bank.precharge(0)
        assert bank.open_row is None


class TestTiming:
    def test_row_miss_pays_trcd_plus_tcl(self, bank):
        timing = bank.timing
        data = bank.access_ready_time(0, row=1, is_write=False)
        assert data == timing.tRCD + timing.tCL

    def test_row_hit_pays_only_tcl(self, bank):
        timing = bank.timing
        bank.access_ready_time(0, row=1, is_write=False)
        hit_start = 10 * timing.tCL  # well past any obligation
        data = bank.access_ready_time(hit_start, row=1, is_write=False)
        assert data == hit_start + timing.tCL

    def test_conflict_pays_precharge_and_activate(self, bank):
        timing = bank.timing
        bank.access_ready_time(0, row=1, is_write=False)
        late = 10 * timing.tRAS
        data = bank.access_ready_time(late, row=2, is_write=False)
        assert data == late + timing.tRP + timing.tRCD + timing.tCL

    def test_conflict_honors_tras(self, bank):
        timing = bank.timing
        bank.access_ready_time(0, row=1, is_write=False)
        # Immediately conflicting: precharge must wait for tRAS since
        # the activate.
        data = bank.access_ready_time(0, row=2, is_write=False)
        assert data >= timing.tRAS + timing.tRP + timing.tRCD + timing.tCL

    def test_back_to_back_hits_pipeline_at_tccd(self, bank):
        timing = bank.timing
        first = bank.access_ready_time(0, row=1, is_write=False)
        second = bank.access_ready_time(0, row=1, is_write=False)
        assert second - first == timing.tCCD

    def test_write_recovery_delays_conflict_precharge(self, bank):
        timing = bank.timing
        write_data = bank.access_ready_time(0, row=1, is_write=True)
        data = bank.access_ready_time(write_data, row=2, is_write=False)
        # Precharge cannot start before write recovery completes.
        assert data >= write_data + timing.tWR + timing.tRP + timing.tRCD

    def test_data_times_never_regress(self, bank):
        last = 0
        for index in range(50):
            row = index % 3
            data = bank.access_ready_time(0, row=row, is_write=index % 2 == 0)
            assert data >= last
            last = data


class TestCounters:
    def test_hit_miss_conflict_counts(self, bank):
        bank.access_ready_time(0, row=1, is_write=False)  # miss
        bank.access_ready_time(0, row=1, is_write=False)  # hit
        bank.access_ready_time(0, row=2, is_write=False)  # conflict
        assert bank.row_misses == 1
        assert bank.row_hits == 1
        assert bank.row_conflicts == 1
        assert bank.total_accesses == 3

    def test_hit_rate(self, bank):
        assert bank.hit_rate() == 0.0
        bank.access_ready_time(0, row=1, is_write=False)
        for _ in range(3):
            bank.access_ready_time(0, row=1, is_write=False)
        assert bank.hit_rate() == pytest.approx(0.75)


_accesses = st.tuples(
    st.integers(0, 400), st.integers(0, 3), st.booleans()
)
"""One access: (ticks since the previous one, row, is_write)."""


def _replay(bank, history):
    now = 0
    for gap, row, is_write in history:
        now += gap
        bank.access_ready_time(now, row, is_write)
    return now


def _state(bank):
    return tuple(getattr(bank, slot) for slot in Bank.__slots__)


class TestAccessReadyBatch:
    @given(
        history=st.lists(_accesses, max_size=8),
        gap=st.integers(0, 400),
        row=st.integers(0, 3),
        is_write=st.booleans(),
        count=st.integers(1, 64),
        after=st.lists(_accesses, max_size=4),
    )
    def test_equals_count_single_accesses(
        self, history, gap, row, is_write, count, after
    ):
        batched, single = Bank(ddr4_2400()), Bank(ddr4_2400())
        now = _replay(batched, history) + gap
        assert _replay(single, history) + gap == now
        times = batched.access_ready_batch(now, row, is_write, count)
        assert times == [
            single.access_ready_time(now, row, is_write) for _ in range(count)
        ]
        assert _state(batched) == _state(single)
        # Later accesses see the same bank either way.
        later = [(now + gap, row, w) for gap, row, w in after]
        assert [batched.access_ready_time(*a) for a in later] == [
            single.access_ready_time(*a) for a in later
        ]
        assert _state(batched) == _state(single)
