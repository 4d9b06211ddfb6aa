"""A persistent-heap allocator with leak accounting.

PM leaks matter more than DRAM leaks because rebooting does not reclaim
them (§6.2, bugs 3 and 7). The allocator keeps a first-fit free list in
DRAM and, optionally, a durable allocation registry inside the pool so that
post-crash analysis can enumerate blocks that were allocated before the
crash — the basis of the leak verdicts attached to Intra-thread bugs.

The registry is written with non-temporal stores, mirroring how PMDK's
transactional allocator makes allocation metadata crash-consistent with a
redo log (§4.4); this is why reads of registry data are whitelisted by
default.
"""

import struct

from .cacheline import align_up
from .errors import AllocationError, DoubleFreeError, OutOfBoundsError

_U64 = struct.Struct("<Q")

#: Each durable registry slot: (offset, size); size == 0 means free slot.
_SLOT = struct.Struct("<QQ")
_SLOT_BYTES = _SLOT.size
#: The zero tail is skipped this many bytes per comparison.
_TAIL_CHUNK = 4096
_ZEROS = memoryview(bytes(_TAIL_CHUNK))


def _used_length(data):
    """Length of ``data`` without its all-zero tail.

    Whole zero chunks are skipped from the end with one ``startswith``
    against zeros each (a ``memcmp``, no slice copy); the last non-zero
    byte of the first chunk that is not all zero is then found by a
    binary search of such comparisons.
    """
    end = len(data)
    while end:
        start = max(end - _TAIL_CHUNK, 0)
        if not data.startswith(_ZEROS[:end - start], start):
            break
        end = start
    else:
        return 0
    # data[low:] holds a non-zero byte and data[high:] is all zero.
    low, high = start, end
    while high - low > 1:
        middle = (low + high) // 2
        if data.startswith(_ZEROS[:end - middle], middle):
            high = middle
        else:
            low = middle
    return high


def registry_entries(data):
    """Decode raw registry bytes: ``(slot, offset, size)`` of every used
    slot, in slot order. ``data`` must hold whole slots.

    Slots are claimed lowest-first, so a registry is mostly a zero tail;
    the all-zero slots after the last nonzero byte are never decoded.
    """
    end = -(-_used_length(data) // _SLOT_BYTES) * _SLOT_BYTES
    return [(slot, off, size)
            for slot, (off, size) in enumerate(_SLOT.iter_unpack(data[:end]))
            if size]


class PersistentAllocator:
    """First-fit allocator over ``[heap_start, heap_end)`` of a pool.

    Args:
        pool: The :class:`~repro.pmem.pool.PmemPool` to carve from.
        heap_start: First byte of the managed region.
        heap_end: One past the last managed byte.
        registry_start: Offset of the durable allocation registry, or None
            to disable durable accounting.
        registry_slots: Capacity of the registry.
        alignment: Allocation alignment (cache line by default so distinct
            objects never share a line — matches how the targets lay out
            persistent nodes).
    """

    def __init__(self, pool, heap_start, heap_end, registry_start=None,
                 registry_slots=1024, alignment=64):
        if heap_end <= heap_start:
            raise AllocationError("empty heap region")
        if heap_end > pool.size:
            raise OutOfBoundsError(heap_start, heap_end - heap_start, pool.size)
        self.pool = pool
        self.heap_start = heap_start
        self.heap_end = heap_end
        self.alignment = alignment
        self.registry_start = registry_start
        self.registry_slots = registry_slots
        self._free = [(heap_start, heap_end - heap_start)]
        self._allocated = {}
        self._slot_of = {}
        self._used_slots = set()
        self.allocated_bytes = 0
        self.peak_bytes = 0
        self.alloc_count = 0
        self.free_count = 0

    # ------------------------------------------------------------------

    def alloc(self, size, thread_id=None):
        """Allocate ``size`` bytes; returns the pool offset.

        Raises:
            AllocationError: If no free block is large enough or the durable
                registry is full.
        """
        if size <= 0:
            raise AllocationError("allocation size must be positive")
        need = align_up(size, self.alignment)
        for index, (off, length) in enumerate(self._free):
            if length >= need:
                remaining = length - need
                if remaining:
                    self._free[index] = (off + need, remaining)
                else:
                    del self._free[index]
                self._allocated[off] = need
                self.allocated_bytes += need
                self.peak_bytes = max(self.peak_bytes, self.allocated_bytes)
                self.alloc_count += 1
                self._record_alloc(off, need, thread_id)
                return off
        raise AllocationError(
            "out of persistent memory: need %d bytes, %d free"
            % (need, sum(length for _, length in self._free))
        )

    def free(self, off, thread_id=None):
        """Release a block previously returned by :meth:`alloc`."""
        size = self._allocated.pop(off, None)
        if size is None:
            raise DoubleFreeError("free of unallocated offset %#x" % off)
        self.allocated_bytes -= size
        self.free_count += 1
        self._free.append((off, size))
        self._free.sort()
        self._coalesce()
        self._record_free(off, thread_id)

    def _coalesce(self):
        merged = []
        for off, length in self._free:
            if merged and merged[-1][0] + merged[-1][1] == off:
                merged[-1] = (merged[-1][0], merged[-1][1] + length)
            else:
                merged.append((off, length))
        self._free = merged

    def is_allocated(self, off):
        return off in self._allocated

    def live_blocks(self):
        """Mapping of offset -> size for currently allocated blocks."""
        return dict(self._allocated)

    # ------------------------------------------------------------------
    # durable registry

    def _slot_addr(self, slot):
        return self.registry_start + slot * _SLOT_BYTES

    def _record_alloc(self, off, size, thread_id):
        if self.registry_start is None:
            return
        for slot in range(self.registry_slots):
            if slot in self._used_slots:
                continue
            addr = self._slot_addr(slot)
            self.pool.memory.store(addr, _U64.pack(off), thread_id,
                                   "allocator.registry", ntstore=True)
            self.pool.memory.store(addr + 8, _U64.pack(size), thread_id,
                                   "allocator.registry", ntstore=True)
            self._slot_of[off] = slot
            self._used_slots.add(slot)
            return
        raise AllocationError("durable allocation registry full")

    def _record_free(self, off, thread_id):
        if self.registry_start is None:
            return
        slot = self._slot_of.pop(off, None)
        if slot is not None:
            self._used_slots.discard(slot)
            addr = self._slot_addr(slot)
            self.pool.memory.store(addr + 8, _U64.pack(0), thread_id,
                                   "allocator.registry", ntstore=True)

    @staticmethod
    def registry_blocks(image, registry_start, registry_slots=1024):
        """Enumerate (offset, size) of blocks live in a crash *image*;
        slots that do not fit in the image are ignored."""
        fitting = max(0, (len(image) - registry_start) // _SLOT_BYTES)
        end = registry_start + min(registry_slots, fitting) * _SLOT_BYTES
        return [(off, size) for _slot, off, size
                in registry_entries(image[registry_start:end])]

    # ------------------------------------------------------------------
    # snapshots (for in-memory checkpoints)

    def snapshot(self):
        """Capture DRAM-side allocator state (pairs with pool.checkpoint())."""
        return (list(self._free), dict(self._allocated), dict(self._slot_of),
                set(self._used_slots), self.allocated_bytes, self.peak_bytes,
                self.alloc_count, self.free_count)

    def restore(self, snap):
        (free, allocated, slot_of, used_slots, allocated_bytes, peak_bytes,
         alloc_count, free_count) = snap
        self._free = list(free)
        self._allocated = dict(allocated)
        self._slot_of = dict(slot_of)
        self._used_slots = set(used_slots)
        self.allocated_bytes = allocated_bytes
        self.peak_bytes = peak_bytes
        self.alloc_count = alloc_count
        self.free_count = free_count

    def leaked_blocks(self, reachable_offsets):
        """Blocks allocated but not reachable from the given root set."""
        reachable = set(reachable_offsets)
        return {off: size for off, size in self._allocated.items()
                if off not in reachable}
