"""Unit tests for the sparse Memory model."""

from repro.functional import Memory, WORD_BYTES


class TestBasics:
    def test_unwritten_reads_zero(self):
        assert Memory().load(0x1000) == 0

    def test_store_load_roundtrip(self):
        memory = Memory()
        memory.store(0x1000, 42)
        assert memory.load(0x1000) == 42

    def test_word_aligned_aliasing(self):
        memory = Memory()
        memory.store(0x1000, 7)
        # Any byte inside the same 8-byte word reads the same value.
        for offset in range(WORD_BYTES):
            assert memory.load(0x1000 + offset) == 7

    def test_adjacent_words_independent(self):
        memory = Memory()
        memory.store(0x1000, 1)
        memory.store(0x1008, 2)
        assert memory.load(0x1000) == 1
        assert memory.load(0x1008) == 2

    def test_overwrite(self):
        memory = Memory()
        memory.store(0x20, 1)
        memory.store(0x20, 2)
        assert memory.load(0x20) == 2

    def test_fill_words(self):
        memory = Memory()
        memory.fill_words(0x100, [10, 20, 30])
        assert memory.load(0x100) == 10
        assert memory.load(0x108) == 20
        assert memory.load(0x110) == 30

    def test_fill_accepts_generator(self):
        memory = Memory()
        memory.fill_words(0, (i * i for i in range(4)))
        assert memory.load(0x18) == 9

    def test_footprint(self):
        memory = Memory()
        assert memory.footprint_words() == 0
        memory.store(0, 1)
        memory.store(8, 1)
        memory.store(3, 5)  # same word as address 0
        assert memory.footprint_words() == 2

    def test_copy_is_independent(self):
        memory = Memory()
        memory.store(0, 1)
        clone = memory.copy()
        clone.store(0, 99)
        assert memory.load(0) == 1
        assert clone.load(0) == 99

    def test_fresh_memory_shares_no_words(self):
        used = Memory()
        used.fill_words(0, range(1, 9))
        fresh = Memory()
        assert fresh.footprint_words() == 0
        assert fresh.load(0) == 0
        assert used.load(0) == 1


class TestWordWidth:
    def test_store_wraps_to_64_bits(self):
        memory = Memory()
        for value, wrapped in ((-1, (1 << 64) - 1), ((1 << 64) + 5, 5),
                               (-(1 << 63), 1 << 63), (1 << 70, 0),
                               ((1 << 64) - 1, (1 << 64) - 1)):
            memory.store(0x40, value)
            assert memory.load(0x40) == wrapped

    def test_fill_words_wraps_to_64_bits(self):
        memory = Memory()
        memory.fill_words(0x100, [-2, (1 << 64) + 9, 3])
        assert [memory.load(0x100 + 8 * i) for i in range(3)] == [
            (1 << 64) - 2, 9, 3]
