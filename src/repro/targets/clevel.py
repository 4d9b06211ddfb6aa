"""Clevel hashing: a lock-free concurrent level hash table on PMDK.

Following the ATC'20 design (simplified): slots hold packed
``key<<32 | value`` words updated with CAS — no locks anywhere, matching
Table 1's "lock-free" row. Expansion runs inside a PMDK transaction and
allocates levels through the redo-log-protected bump allocator
(:func:`repro.pmdk.alloc.pm_atomic_alloc`).

Clevel is the paper's showcase for false-positive filtering rather than
new bugs (Tables 2/3: 6 candidates, 2 inter-thread inconsistencies, both
whitelisted as PMDK transactional allocations, 0 bugs):

* the shared allocator cursor is read racily (possibly non-persisted) and
  CAS-advanced — a true PM Inter-thread Inconsistency that is *benign*
  because the allocation metadata is redo-log protected; the default
  whitelist filters it;
* the Figure 7 pattern (constructor reads its own non-persisted ``meta``
  inside an uncommitted transaction) is exercised by the expansion path
  and neutralized by undo-log rollback during recovery.
"""

from ..pmdk.alloc import BumpHeap, pm_atomic_alloc
from ..pmdk.pool import PmemObjPool
from ..pmdk.tx import Transaction
from .base import OperationSpace, Target, TargetState, raw_view

R_META = 0
R_BUMP = 8
ROOT_SIZE = 64

M_FIRST_LEVEL = 0
M_CAPACITY = 8
M_MASK = 16
META_SIZE = 64

INITIAL_CAPACITY = 16
MAX_CAPACITY = 128
PROBE = 4

#: The bump heap serves level arrays from the top half of the pool.
BUMP_REGION_FRACTION = 2


def _pack(key, value):
    return ((key + 1) << 32) | (value & 0xFFFFFFFF)


def _unpack(word):
    word = int(word)
    return (word >> 32) - 1, word & 0xFFFFFFFF


class ClevelInstance:
    """Per-campaign runtime state of one clevel pool."""

    def __init__(self, target, state, view, scheduler):
        self.target = target
        self.state = state
        self.view = view
        self.scheduler = scheduler
        self.objpool = state.extras["objpool"]
        self.root = state.extras["root"]
        self.heap = state.extras["heap"]

    # ------------------------------------------------------------------

    def _level(self):
        meta = int(self.view.load_u64(self.root + R_META))
        level = self.view.load_u64(meta + M_FIRST_LEVEL)
        capacity = self.view.load_u64(meta + M_CAPACITY)
        return meta, level, capacity

    def _slot(self, level, capacity, key, probe):
        return level + ((key + probe) % int(capacity)) * 8

    def _probe_word(self, slot):
        """All slot probing funnels through this single load site."""
        return self.view.load_u64(slot)

    # ------------------------------------------------------------------
    # operations (lock-free)

    def insert(self, key, value):
        view = self.view
        for _attempt in range(4):
            _meta, level, capacity = self._level()
            # Look for the key in the whole probe window before claiming
            # an empty slot: a delete empties a slot, so the key may sit
            # past one.
            empty = None
            for probe in range(PROBE):
                slot = self._slot(level, capacity, key, probe)
                word = self._probe_word(slot)
                slot_key, _ = _unpack(word)
                if slot_key == key:
                    break
                if empty is None and int(word) == 0:
                    empty = slot
            else:
                if empty is None:
                    if not self._expand():
                        return False
                    continue
                slot, word = empty, 0
            ok, _old = view.cas_u64(slot, word, _pack(key, value))
            if ok:
                view.persist(slot, 8)
                return True
        return False

    def search(self, key):
        view = self.view
        _meta, level, capacity = self._level()
        for probe in range(PROBE):
            word = self._probe_word(self._slot(level, capacity, key, probe))
            slot_key, value = _unpack(word)
            if slot_key == key:
                return value
        return None

    def delete(self, key):
        view = self.view
        _meta, level, capacity = self._level()
        for probe in range(PROBE):
            slot = self._slot(level, capacity, key, probe)
            word = self._probe_word(slot)
            slot_key, _ = _unpack(word)
            if slot_key == key:
                ok, _old = view.cas_u64(slot, word, 0)
                if ok:
                    view.persist(slot, 8)
                    return True
        return False

    # ------------------------------------------------------------------
    # expansion: PMDK transaction + redo-log-protected allocation

    def _expand(self):
        view = self.view
        meta, level, capacity = self._level()
        capacity = int(capacity)
        if capacity >= MAX_CAPACITY:
            return False
        new_capacity = capacity * 2
        tid = self.scheduler.current().tid if self.scheduler and \
            self.scheduler.current() else 0
        with Transaction(self.objpool, view, tid) as tx:
            new_meta = tx.tx_alloc(META_SIZE)
            tx.add_range(new_meta, 24)
            # Whitelisted allocation: reads the shared (possibly
            # non-persisted) bump cursor, CAS-advances it.
            new_level = pm_atomic_alloc(view, self.heap, new_capacity * 8)
            if new_level == 0:
                return False
            view.ntstore_bytes(int(new_level), b"\x00" * (new_capacity * 8))
            view.sfence()
            # Figure 7's shape: store a meta field, read it back while it
            # is still non-persisted, and derive another durable write
            # from the dirty value — benign, because the whole meta
            # object is transaction-protected and rolled back on crash.
            view.store_u64(new_meta + M_CAPACITY, new_capacity)
            dirty_capacity = view.load_u64(new_meta + M_CAPACITY)
            view.store_u64(new_meta + M_MASK, dirty_capacity - 1)
            view.store_u64(new_meta + M_FIRST_LEVEL, new_level)
            # rehash into the new level (local, clean values)
            for index in range(capacity):
                word = view.load_u64(int(level) + index * 8)
                if int(word) == 0:
                    continue
                slot_key, slot_value = _unpack(word)
                for probe in range(PROBE):
                    dslot = int(new_level) + \
                        ((slot_key + probe) % new_capacity) * 8
                    if int(view.load_u64(dslot)) == 0:
                        view.ntstore_u64(dslot, _pack(slot_key, slot_value))
                        break
            view.sfence()
            view.persist(int(new_meta), META_SIZE)
            # Publish atomically and durably: readers never observe a
            # non-persisted root pointer (clevel's correct discipline).
            view.ntstore_u64(self.root + R_META, new_meta)
            view.sfence()
        return True


class ClevelTarget(Target):
    """Table 1 row: clevel hashing, cae716f, PM-optimized, lock-free."""

    NAME = "clevel hashing"
    VERSION = "cae716f"
    SCOPE = "PM-optimized hashing"
    CONCURRENCY = "Lock-free"
    POOL_SIZE = 1 << 20

    def operation_space(self):
        space = OperationSpace()
        space.kinds = ("put", "get", "delete")
        space.value_range = 1 << 16
        return space

    def setup(self):
        objpool = PmemObjPool.create("clevel", self.POOL_SIZE)
        root = objpool.root(ROOT_SIZE)
        view = raw_view(objpool.pool)
        heap_start = objpool.pool.size // BUMP_REGION_FRACTION
        heap = BumpHeap(root + R_BUMP, objpool.pool.size)
        heap.init(view, heap_start)
        meta = objpool.allocator.alloc(META_SIZE)
        level = pm_atomic_alloc(view, heap, INITIAL_CAPACITY * 8)
        view.ntstore_bytes(level, b"\x00" * (INITIAL_CAPACITY * 8))
        view.ntstore_u64(meta + M_FIRST_LEVEL, level)
        view.ntstore_u64(meta + M_CAPACITY, INITIAL_CAPACITY)
        view.ntstore_u64(root + R_META, meta)
        view.sfence()
        objpool.pool.memory.persist_all()
        return TargetState(objpool.pool, allocators=[objpool.allocator],
                           extras={"objpool": objpool, "root": root,
                                   "heap": heap})

    def open(self, state, view, scheduler):
        return ClevelInstance(self, state, view, scheduler)

    def exec_op(self, instance, view, op):
        kind = op.get("op")
        key = op.get("key", 0)
        if kind == "put":
            return instance.insert(key, op.get("value", 0))
        if kind == "get":
            instance.search(key)
            return True
        if kind == "delete":
            return instance.delete(key)
        return False

    def recover(self, pool, view):
        """PMDK pool open: undo-log rollback is the whole recovery."""
        objpool = PmemObjPool.attach(pool, view)
        root = pool.read_u64(8)  # OFF_ROOT
        pool.read_u64(root + R_META)
        self._recovered = (objpool, root)
        return self
