"""Persistent allocator tests."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pmem import (
    AllocationError,
    DoubleFreeError,
    PersistentAllocator,
    PmemPool,
)
from repro.pmem.allocator import registry_entries


@pytest.fixture
def pool():
    return PmemPool("alloc", 64 * 1024)


@pytest.fixture
def allocator(pool):
    return PersistentAllocator(pool, 1024, 32 * 1024)


class TestAllocFree:
    def test_alloc_in_heap(self, allocator):
        off = allocator.alloc(100)
        assert 1024 <= off < 32 * 1024

    def test_alloc_aligned(self, allocator):
        assert allocator.alloc(10) % 64 == 0

    def test_distinct_blocks(self, allocator):
        a = allocator.alloc(64)
        b = allocator.alloc(64)
        assert abs(a - b) >= 64

    def test_zero_size_rejected(self, allocator):
        with pytest.raises(AllocationError):
            allocator.alloc(0)

    def test_free_reuses(self, allocator):
        a = allocator.alloc(64)
        allocator.free(a)
        assert allocator.alloc(64) == a

    def test_double_free(self, allocator):
        a = allocator.alloc(64)
        allocator.free(a)
        with pytest.raises(DoubleFreeError):
            allocator.free(a)

    def test_free_unallocated(self, allocator):
        with pytest.raises(DoubleFreeError):
            allocator.free(2048)

    def test_exhaustion(self, allocator):
        with pytest.raises(AllocationError):
            allocator.alloc(1 << 20)

    def test_coalescing(self, allocator):
        blocks = [allocator.alloc(64) for _ in range(8)]
        for block in blocks:
            allocator.free(block)
        # after coalescing, a big block fits again
        big = allocator.alloc(8 * 64)
        assert big == min(blocks)

    def test_counters(self, allocator):
        a = allocator.alloc(64)
        assert allocator.alloc_count == 1
        assert allocator.allocated_bytes == 64
        allocator.free(a)
        assert allocator.free_count == 1
        assert allocator.allocated_bytes == 0
        assert allocator.peak_bytes == 64

    def test_is_allocated(self, allocator):
        a = allocator.alloc(64)
        assert allocator.is_allocated(a)
        allocator.free(a)
        assert not allocator.is_allocated(a)


class TestRegistry:
    def test_registry_records_alloc(self, pool):
        allocator = PersistentAllocator(pool, 1024, 32 * 1024,
                                        registry_start=0, registry_slots=16)
        off = allocator.alloc(64)
        blocks = PersistentAllocator.registry_blocks(
            pool.read_bytes(0, pool.size), 0, 16)
        assert (off, 64) in blocks

    def test_registry_cleared_on_free(self, pool):
        allocator = PersistentAllocator(pool, 1024, 32 * 1024,
                                        registry_start=0, registry_slots=16)
        off = allocator.alloc(64)
        allocator.free(off)
        blocks = PersistentAllocator.registry_blocks(
            pool.read_bytes(0, pool.size), 0, 16)
        assert blocks == []

    def test_registry_survives_crash_image(self, pool):
        allocator = PersistentAllocator(pool, 1024, 32 * 1024,
                                        registry_start=0, registry_slots=16)
        off = allocator.alloc(128)
        image = bytes(pool.crash_image())
        blocks = PersistentAllocator.registry_blocks(image, 0, 16)
        assert (off, 128) in blocks

    def test_registry_full(self, pool):
        allocator = PersistentAllocator(pool, 1024, 32 * 1024,
                                        registry_start=0, registry_slots=2)
        allocator.alloc(64)
        allocator.alloc(64)
        with pytest.raises(AllocationError):
            allocator.alloc(64)

    def test_slot_reuse_after_free(self, pool):
        allocator = PersistentAllocator(pool, 1024, 32 * 1024,
                                        registry_start=0, registry_slots=2)
        a = allocator.alloc(64)
        allocator.free(a)
        allocator.alloc(64)
        allocator.alloc(64)  # slot freed by the free above


def registry(slots, used):
    """A registry of ``slots`` 16-byte slots with ``used`` slot ->
    ``(offset, size)`` written and every other slot zero."""
    data = bytearray(16 * slots)
    for slot, (off, size) in used.items():
        data[16 * slot:16 * slot + 16] = struct.pack("<QQ", off, size)
    return bytes(data)


def rstrip_entries(data):
    """The decoder before the zero tail was found by comparisons."""
    end = -(-len(data.rstrip(b"\0")) // 16) * 16
    return [(slot, off, size) for slot, (off, size)
            in enumerate(struct.iter_unpack("<QQ", data[:end])) if size]


class TestRegistryDecode:
    def test_all_zero_registry(self):
        assert registry_entries(registry(1024, {})) == []
        assert registry_entries(b"") == []

    def test_nonzero_last_byte(self):
        data = registry(1024, {1023: (4096, 1 << 56)})
        assert data[-1] == 1
        assert registry_entries(data) == [(1023, 4096, 1 << 56)]

    def test_free_slot_between_used_slots(self):
        data = registry(1024, {0: (4096, 64), 1: (8192, 0),
                               2: (12288, 128)})
        assert registry_entries(data) == [(0, 4096, 64), (2, 12288, 128)]

    def test_offset_only_slot_past_chunk_edge(self):
        # A freed slot keeps its offset: the tail ends there, 16 bytes
        # into the second 4 KiB chunk, and the slot decodes as free.
        data = registry(1024, {0: (4096, 64), 256: (8192, 0)})
        assert registry_entries(data) == [(0, 4096, 64)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 1100),
       st.lists(st.tuples(st.integers(0, 1099), st.integers(0, 2 ** 64 - 1),
                          st.integers(0, 2 ** 64 - 1)), max_size=6),
       st.booleans())
def test_property_registry_decode_matches_rstrip(slots, writes, mutable):
    data = registry(slots, {slot: (off, size) for slot, off, size in writes
                            if slot < slots})
    if mutable:
        data = bytearray(data)
    assert registry_entries(data) == rstrip_entries(bytes(data))


class TestLeaksAndSnapshots:
    def test_leaked_blocks(self, allocator):
        a = allocator.alloc(64)
        b = allocator.alloc(64)
        leaks = allocator.leaked_blocks([a])
        assert leaks == {b: 64}

    def test_snapshot_restore(self, allocator):
        a = allocator.alloc(64)
        snap = allocator.snapshot()
        allocator.free(a)
        allocator.alloc(128)
        allocator.restore(snap)
        assert allocator.is_allocated(a)
        assert allocator.allocated_bytes == 64


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=512),
                min_size=1, max_size=40))
def test_property_no_overlap(sizes):
    pool = PmemPool("prop", 128 * 1024)
    allocator = PersistentAllocator(pool, 0, pool.size)
    spans = []
    for size in sizes:
        off = allocator.alloc(size)
        for start, stop in spans:
            assert off + size <= start or off >= stop
        spans.append((off, off + ((size + 63) // 64) * 64))
