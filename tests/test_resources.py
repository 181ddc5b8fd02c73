"""Unit tests for timing-core resource constraints."""

from tests.oracle_engine import BandwidthLimiter, FifoCapacity, PooledCapacity


class TestBandwidthLimiter:
    def test_width_events_fit_in_one_cycle(self):
        limiter = BandwidthLimiter(4)
        assert [limiter.take(10) for _ in range(4)] == [10] * 4

    def test_overflow_spills_to_next_cycle(self):
        limiter = BandwidthLimiter(2)
        assert limiter.take(5) == 5
        assert limiter.take(5) == 5
        assert limiter.take(5) == 6

    def test_later_cycle_resets_budget(self):
        limiter = BandwidthLimiter(1)
        assert limiter.take(0) == 0
        assert limiter.take(10) == 10

    def test_requests_never_go_backwards(self):
        limiter = BandwidthLimiter(1)
        limiter.take(10)
        assert limiter.take(3) >= 10

    def test_reset(self):
        limiter = BandwidthLimiter(1)
        limiter.take(0)
        limiter.reset()
        assert limiter.take(0) == 0

    def test_sustained_throughput(self):
        limiter = BandwidthLimiter(4)
        slots = [limiter.take(0) for _ in range(40)]
        assert max(slots) == 9  # 40 events at 4/cycle fill cycles 0..9
        for cycle in range(10):
            assert slots.count(cycle) == 4


class TestFifoCapacity:
    def test_under_capacity_is_free(self):
        fifo = FifoCapacity(2)
        assert fifo.acquire(5) == 5
        fifo.release_at(100)
        assert fifo.acquire(5) == 5

    def test_full_structure_stalls_until_head_frees(self):
        fifo = FifoCapacity(2)
        fifo.acquire(0)
        fifo.release_at(10)
        fifo.acquire(0)
        fifo.release_at(20)
        assert fifo.acquire(0) == 11  # waits for first release + 1

    def test_occupancy(self):
        fifo = FifoCapacity(4)
        fifo.release_at(1)
        fifo.release_at(2)
        assert fifo.occupancy() == 2

    def test_reset(self):
        fifo = FifoCapacity(1)
        fifo.acquire(0)
        fifo.release_at(99)
        fifo.reset()
        assert fifo.acquire(0) == 0


class TestPooledCapacity:
    def test_frees_by_minimum_release(self):
        pool = PooledCapacity(2)
        pool.acquire(0)
        pool.release_at(50)
        pool.acquire(0)
        pool.release_at(10)   # out-of-order completion
        assert pool.acquire(0) == 11  # min release is 10

    def test_under_capacity_is_free(self):
        pool = PooledCapacity(3)
        pool.release_at(100)
        assert pool.acquire(0) == 0

    def test_ready_after_release_not_delayed(self):
        pool = PooledCapacity(1)
        pool.acquire(0)
        pool.release_at(5)
        assert pool.acquire(20) == 20

    def test_reset(self):
        pool = PooledCapacity(1)
        pool.acquire(0)
        pool.release_at(99)
        pool.reset()
        assert pool.acquire(0) == 0
