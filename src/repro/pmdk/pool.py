"""Mini-PMDK pool management (the ``libpmemobj`` substitute).

A :class:`PmemObjPool` lays out a pool header, a durable allocation
registry, undo-log lanes, and a heap, mimicking what ``pmemobj_create``
does. The initialization deliberately walks every registry slot and lane
with individual persisted stores — the "expensive PM pool initialization
in libpmemobj" that §5's in-memory checkpoints amortize (Figure 10).

``pmem_map_file`` is the ``libpmem`` path: a thin wrapper over the raw
pool with no initialization cost, which is why checkpoints do not help
memcached-pmem (§6.5).
"""

import struct

from ..pmem.allocator import PersistentAllocator, registry_entries
from ..pmem.errors import PoolError
from ..pmem.pool import PmemPool

_U64 = struct.Struct("<Q")

MAGIC = 0x504D444B5245504F  # "PMDKREPO"

OFF_MAGIC = 0x00
OFF_ROOT = 0x08
OFF_ROOT_SIZE = 0x10
REGISTRY_START = 0x40
REGISTRY_SLOTS = 1024
REGISTRY_BYTES = REGISTRY_SLOTS * 16
LANES_START = REGISTRY_START + REGISTRY_BYTES
LANE_COUNT = 8
LANE_ENTRIES = 64
LANE_ENTRY_BYTES = 8 + 8 + 64        # addr, size, data (<= 64 bytes)
LANE_HEADER_BYTES = 16               # active flag, entry count
LANE_BYTES = LANE_HEADER_BYTES + LANE_ENTRIES * LANE_ENTRY_BYTES
HEAP_START = ((LANES_START + LANE_COUNT * LANE_BYTES + 63) // 64) * 64


def pmem_map_file(name, size):
    """libpmem-style mapping: raw pool, no object-store initialization."""
    return PmemPool(name, size)


class PmemObjPool:
    """A libpmemobj-style object pool over simulated PM.

    Use :meth:`create` for a fresh pool or :meth:`open_from_image` to run
    recovery (undo-log rollback) on a crash image.
    """

    def __init__(self, pool, allocator):
        self.pool = pool
        self.allocator = allocator

    # ------------------------------------------------------------------
    # lifecycle

    @classmethod
    def create(cls, name, size):
        """Format a new pool; deliberately slot-by-slot, like the real thing."""
        if size <= HEAP_START + 64:
            raise PoolError("pool %r too small for pmemobj layout" % name)
        pool = PmemPool(name, size)
        mem = pool.memory
        mem.store(OFF_MAGIC, _U64.pack(MAGIC), None, "pmdk.create", ntstore=True)
        mem.store(OFF_ROOT, _U64.pack(0), None, "pmdk.create", ntstore=True)
        mem.store(OFF_ROOT_SIZE, _U64.pack(0), None, "pmdk.create", ntstore=True)
        for slot in range(REGISTRY_SLOTS):
            base = REGISTRY_START + slot * 16
            mem.store(base, b"\x00" * 16, None, "pmdk.create", ntstore=True)
        for lane in range(LANE_COUNT):
            base = LANES_START + lane * LANE_BYTES
            mem.store(base, _U64.pack(0), None, "pmdk.create", ntstore=True)
            mem.store(base + 8, _U64.pack(0), None, "pmdk.create", ntstore=True)
        allocator = PersistentAllocator(
            pool, HEAP_START, pool.size,
            registry_start=REGISTRY_START, registry_slots=REGISTRY_SLOTS,
        )
        return cls(pool, allocator)

    @classmethod
    def open_from_image(cls, name, image, view=None):
        """Reopen a crashed pool: verify magic, roll back open undo lanes."""
        return cls.attach(PmemPool.from_image(name, image), view)

    @classmethod
    def attach(cls, pool, view=None):
        """Open an existing (e.g. crash-image) pool and run recovery.

        Args:
            view: Optional instrumented view over ``pool``; when given,
                rollback writes go through it so post-failure validation
                observes which addresses recovery overwrote.
        """
        magic = pool.read_u64(OFF_MAGIC)
        if magic != MAGIC:
            raise PoolError("pool %r has bad magic %#x" % (pool.name, magic))
        obj = cls(pool, None)
        obj._rollback_lanes(view)
        obj.allocator = obj._rebuild_allocator()
        return obj

    def _rebuild_allocator(self):
        """Reconstruct allocator state from the durable registry."""
        allocator = PersistentAllocator(
            self.pool, HEAP_START, self.pool.size,
            registry_start=REGISTRY_START, registry_slots=REGISTRY_SLOTS,
        )
        registry = self.pool.read_bytes(REGISTRY_START, REGISTRY_BYTES)
        for slot, off, block_size in registry_entries(registry):
            allocator._free = _carve(allocator._free, off, block_size)
            allocator._allocated[off] = block_size
            allocator.allocated_bytes += block_size
            allocator._slot_of[off] = slot
            allocator._used_slots.add(slot)
        return allocator

    def _rollback_lanes(self, view=None):
        """Undo-log recovery: revert writes of uncommitted transactions."""
        mem = self.pool.memory

        def write(addr, data):
            if view is not None:
                view.ntstore_bytes(addr, data)
            else:
                mem.store(addr, data, None, "pmdk.rollback", ntstore=True)

        for lane in range(LANE_COUNT):
            base = LANES_START + lane * LANE_BYTES
            active = self.pool.read_u64(base)
            count = self.pool.read_u64(base + 8)
            if not active:
                continue
            for index in range(min(count, LANE_ENTRIES) - 1, -1, -1):
                entry = base + LANE_HEADER_BYTES + index * LANE_ENTRY_BYTES
                addr = self.pool.read_u64(entry)
                size = self.pool.read_u64(entry + 8)
                data = self.pool.read_bytes(entry + 16, min(size, 64))
                write(addr, data)
            write(base, _U64.pack(0))
            write(base + 8, _U64.pack(0))

    # ------------------------------------------------------------------
    # root object

    def root(self, size, view=None):
        """Return the root object's offset, allocating it on first use."""
        current = self.pool.read_u64(OFF_ROOT)
        if current:
            return current
        off = self.allocator.alloc(size)
        mem = self.pool.memory
        mem.store(off, b"\x00" * size, None, "pmdk.root", ntstore=True)
        mem.store(OFF_ROOT, _U64.pack(off), None, "pmdk.root", ntstore=True)
        mem.store(OFF_ROOT_SIZE, _U64.pack(size), None, "pmdk.root",
                  ntstore=True)
        return off

    def lane_base(self, tid):
        return LANES_START + (max(tid, 0) % LANE_COUNT) * LANE_BYTES


def _carve(free_list, off, size):
    """Remove ``[off, off+size)`` from a free list (recovery rebuild)."""
    result = []
    end = off + size
    for start, length in free_list:
        stop = start + length
        if end <= start or off >= stop:
            result.append((start, length))
            continue
        if start < off:
            result.append((start, off - start))
        if stop > end:
            result.append((end, stop - end))
    return result
