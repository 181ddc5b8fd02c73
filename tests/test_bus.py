"""Unit tests for the bus model: transfer time, contention, arbitration."""

from repro.cache import Bus, BusConfig


def make_bus(width=16, cycles_per_beat=2) -> Bus:
    return Bus(BusConfig(name="b", width_bytes=width,
                         cycles_per_beat=cycles_per_beat))


class TestTransferCycles:
    def test_exact_multiple(self):
        config = BusConfig("b", 16, 2)
        assert config.transfer_cycles(64) == 8  # 4 beats x 2 cycles

    def test_rounds_up_partial_beat(self):
        config = BusConfig("b", 16, 2)
        assert config.transfer_cycles(8) == 2   # 1 beat
        assert config.transfer_cycles(17) == 4  # 2 beats

    def test_faster_bus(self):
        config = BusConfig("b", 32, 1)
        assert config.transfer_cycles(64) == 2


class TestContention:
    def test_idle_bus_starts_immediately(self):
        bus = make_bus()
        assert bus.request(100, 16) == 102

    def test_back_to_back_serialises(self):
        bus = make_bus()
        first = bus.request(0, 64)   # finishes at 8
        second = bus.request(0, 64)  # queues behind: 8 + 8
        assert first == 8
        assert second == 16
        assert bus.contention_cycles == 8

    def test_later_request_after_drain_is_uncontended(self):
        bus = make_bus()
        bus.request(0, 64)
        completion = bus.request(50, 16)
        assert completion == 52
        assert bus.contention_cycles == 0

    def test_statistics(self):
        bus = make_bus()
        bus.request(0, 16)
        bus.request(0, 16)
        assert bus.transfers == 2
        assert bus.bytes_moved == 32

    def test_rewind_keeps_stats(self):
        bus = make_bus()
        bus.request(0, 64)
        bus.rewind()
        assert bus.busy_until == 0
        assert bus.transfers == 1

    def test_fresh_bus_is_idle_and_uncounted(self):
        # Unlike rewind, a new bus starts with no statistics either.
        config = BusConfig(name="b", width_bytes=16, cycles_per_beat=2)
        used = Bus(config)
        used.request(0, 64)
        used.request(0, 64)
        fresh = Bus(config)
        assert (fresh.busy_until, fresh.transfers, fresh.bytes_moved,
                fresh.contention_cycles) == (0, 0, 0, 0)
        assert fresh.request(0, 64) == 8   # no queueing behind `used`
        assert used.transfers == 2
