"""The durable allocation registry's single decoder.

Recovery rebuilds allocator state from one read of the 16 KiB registry,
and :meth:`PersistentAllocator.registry_blocks` lists a crash image's
live blocks with the same decoder. Both must agree with the per-slot
loops they replaced, kept here as the reference.
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pmdk import HEAP_START, PmemObjPool
from repro.pmdk.pool import (
    MAGIC,
    REGISTRY_SLOTS,
    REGISTRY_START,
    _carve,
)
from repro.pmem import PersistentAllocator

POOL_SIZE = HEAP_START + 8 * 1024
_U64 = struct.Struct("<Q")


def reference_rebuild(pool):
    """Allocator state from the registry, one slot at a time."""
    allocator = PersistentAllocator(
        pool, HEAP_START, pool.size,
        registry_start=REGISTRY_START, registry_slots=REGISTRY_SLOTS,
    )
    for slot in range(REGISTRY_SLOTS):
        base = REGISTRY_START + slot * 16
        off = pool.read_u64(base)
        block_size = pool.read_u64(base + 8)
        if not block_size:
            continue
        allocator._free = _carve(allocator._free, off, block_size)
        allocator._allocated[off] = block_size
        allocator.allocated_bytes += block_size
        allocator._slot_of[off] = slot
        allocator._used_slots.add(slot)
    return allocator


def reference_blocks(image, registry_start, registry_slots):
    blocks = []
    for slot in range(registry_slots):
        base = registry_start + slot * 16
        if base + 16 > len(image):
            break
        off = _U64.unpack_from(image, base)[0]
        size = _U64.unpack_from(image, base + 8)[0]
        if size:
            blocks.append((off, size))
    return blocks


def allocator_state(allocator):
    return (allocator._free, allocator._allocated, allocator._slot_of,
            allocator._used_slots, allocator.allocated_bytes)


#: Offsets in, around and far outside the heap; sizes include zero
#: (free slot with a stale offset), overlapping and out-of-heap blocks.
OFFSETS = st.one_of(st.integers(HEAP_START - 256, POOL_SIZE + 256),
                    st.integers(0, 2 ** 64 - 1))
SIZES = st.one_of(st.just(0), st.integers(1, 4096),
                  st.integers(0, 2 ** 64 - 1))
REGISTRIES = st.dictionaries(st.integers(0, REGISTRY_SLOTS - 1),
                             st.tuples(OFFSETS, SIZES), max_size=40)


def registry_image(entries):
    image = bytearray(POOL_SIZE)
    _U64.pack_into(image, 0, MAGIC)
    for slot, (off, size) in entries.items():
        base = REGISTRY_START + slot * 16
        _U64.pack_into(image, base, off)
        _U64.pack_into(image, base + 8, size)
    return bytes(image)


@settings(max_examples=150, deadline=None)
@given(REGISTRIES)
def test_property_rebuild_matches_per_slot_loop(entries):
    image = registry_image(entries)
    rebuilt = PmemObjPool.open_from_image("decoded", image).allocator
    reference = reference_rebuild(
        PmemObjPool.open_from_image("reference", image).pool)
    assert allocator_state(rebuilt) == allocator_state(reference)


@settings(max_examples=150, deadline=None)
@given(REGISTRIES, st.integers(0, POOL_SIZE), st.integers(0, 256),
       st.integers(0, REGISTRY_SLOTS + 8))
def test_property_registry_blocks_match_per_slot_loop(entries, length,
                                                      shift, slots):
    # Truncated images and shifted or oversized registries cut slots off
    # at the image end, partial slots included.
    image = registry_image(entries)[:length]
    start = REGISTRY_START + shift
    assert PersistentAllocator.registry_blocks(image, start, slots) == \
        reference_blocks(image, start, slots)
