"""CCEH: cacheline-conscious extendible hashing for PM, with bugs 6-7.

Structure (following the FAST'19 design, simplified): a directory — an
array of segment offsets indexed by the low ``global_depth`` bits of the
key hash — over fixed-size segments with per-segment *persistent* locks
and a local depth. Segments split when full; the directory doubles when a
max-depth segment splits.

Seeded bugs (Table 2):

6. **Sync** — segment locks live in PM (``CCEH.h:86``) and recovery never
   releases them → post-crash hang on the locked segment.
7. **Intra** — directory doubling stores the new capacity without a flush
   (``CCEH.h:165``), reads it back (``CCEH.cpp:171``) and derives the new
   directory's mask/layout from the dirty value → the freshly allocated
   directory is unreachable after a crash: PM leakage.

Everything else follows correct flush discipline (directory entry updates
are non-temporal), so — like the paper — CCEH produces inter-thread
*candidates* (lock-free readers observing unflushed keys/values) but no
confirmed inter-thread inconsistency.
"""

from ..pmdk.pool import PmemObjPool
from .base import OperationSpace, Target, TargetState, raw_view

R_DIR = 0
R_DIR_LOCK = 8          # annotated but never taken by these workloads
ROOT_SIZE = 64

D_CAPACITY = 0
D_GLOBAL_DEPTH = 8
D_MASK = 16
D_HDR = 64              # entries (u64 segment offsets) follow

S_LOCAL_DEPTH = 0
S_LOCK = 8
S_PATTERN = 16
S_HDR = 64
SEG_SLOTS = 8           # (key, value) pairs
SEG_SIZE = S_HDR + SEG_SLOTS * 16

INITIAL_DEPTH = 1
MAX_GLOBAL_DEPTH = 5


def _seg_lock_acquire(view, scheduler, addr):
    """Acquire a persistent segment lock (CCEH.h:86 analog)."""
    while True:
        if view.pool.read_u64(int(addr)) == 0:
            if view.cas_u64(addr, 0, 1)[0]:
                return
        if scheduler is None:
            raise RuntimeError("persistent segment lock stuck outside the "
                               "scheduler (leaked by a previous crash?)")
        scheduler.park("spin", "pm_lock:segment",
                       lambda: view.pool.read_u64(int(addr)) != 0)


def _seg_lock_release(view, addr):
    view.store_u64(addr, 0)


class CcehInstance:
    """Per-campaign runtime state of one CCEH pool."""

    def __init__(self, target, state, view, scheduler):
        self.target = target
        self.state = state
        self.view = view
        self.scheduler = scheduler
        self.objpool = state.extras["objpool"]
        self.root = state.extras["root"]

    # ------------------------------------------------------------------
    # helpers

    def _dir(self):
        return int(self.view.load_u64(self.root + R_DIR))

    def _entry_addr(self, directory, index):
        return directory + D_HDR + index * 8

    def _segment_for(self, key):
        directory = self._dir()
        capacity = int(self.view.load_u64(directory + D_CAPACITY))
        index = key & (capacity - 1)
        seg = int(self.view.load_u64(self._entry_addr(directory, index)))
        return directory, capacity, index, seg

    def _alloc_segment(self, local_depth, pattern):
        seg = self.objpool.allocator.alloc(SEG_SIZE)
        view = self.view
        view.ntstore_u64(seg + S_LOCAL_DEPTH, local_depth)
        view.ntstore_u64(seg + S_LOCK, 0)
        view.ntstore_u64(seg + S_PATTERN, pattern)
        view.ntstore_bytes(seg + S_HDR, b"\x00" * (SEG_SLOTS * 16))
        view.sfence()
        self.state.annotations.register_instance("segment_lock",
                                                 seg + S_LOCK)
        return seg

    # ------------------------------------------------------------------
    # operations

    def insert(self, key, value):
        view = self.view
        for _attempt in range(MAX_GLOBAL_DEPTH + 2):
            directory, capacity, index, seg = self._segment_for(key)
            _seg_lock_acquire(view, self.scheduler, seg + S_LOCK)
            # Re-check: a concurrent split may have moved the key's slot.
            now_dir, now_cap, now_index, now_seg = self._segment_for(key)
            if now_seg != seg:
                _seg_lock_release(view, seg + S_LOCK)
                continue
            free = None
            for slot in range(SEG_SLOTS):
                kaddr = seg + S_HDR + slot * 16
                slot_key = view.load_u64(kaddr)
                if int(slot_key) == key + 1:
                    view.store_u64(kaddr + 8, value)
                    view.persist(kaddr + 8, 8)
                    _seg_lock_release(view, seg + S_LOCK)
                    return True
                if int(slot_key) == 0 and free is None:
                    free = slot
            if free is not None:
                kaddr = seg + S_HDR + free * 16
                view.store_u64(kaddr + 8, value)
                view.store_u64(kaddr, key + 1)
                view.persist(kaddr, 16)
                _seg_lock_release(view, seg + S_LOCK)
                return True
            split_ok = self._split(directory, seg)
            _seg_lock_release(view, seg + S_LOCK)
            if not split_ok:
                return False
        return False

    def get(self, key):
        """Lock-free probe (dirty key/value reads are candidates only)."""
        _directory, _capacity, _index, seg = self._segment_for(key)
        view = self.view
        for slot in range(SEG_SLOTS):
            kaddr = seg + S_HDR + slot * 16
            if int(view.load_u64(kaddr)) == key + 1:
                return int(view.load_u64(kaddr + 8))
        return None

    def delete(self, key):
        view = self.view
        _directory, _capacity, _index, seg = self._segment_for(key)
        _seg_lock_acquire(view, self.scheduler, seg + S_LOCK)
        found = False
        for slot in range(SEG_SLOTS):
            kaddr = seg + S_HDR + slot * 16
            if int(view.load_u64(kaddr)) == key + 1:
                view.ntstore_u64(kaddr, 0)
                view.sfence()
                found = True
                break
        _seg_lock_release(view, seg + S_LOCK)
        return found

    # ------------------------------------------------------------------
    # split and directory doubling (bug 7 lives in the doubling)

    def _split(self, directory, seg):
        view = self.view
        local_depth = int(view.load_u64(seg + S_LOCAL_DEPTH))
        global_depth = int(view.load_u64(directory + D_GLOBAL_DEPTH))
        if local_depth == global_depth:
            if global_depth >= MAX_GLOBAL_DEPTH:
                return False
            directory = self._double_directory(directory)
            global_depth += 1
        pattern = int(view.load_u64(seg + S_PATTERN))
        new_pattern = pattern | (1 << local_depth)
        sibling = self._alloc_segment(local_depth + 1, new_pattern)
        # Move the keys whose next hash bit is set into the sibling.
        for slot in range(SEG_SLOTS):
            kaddr = seg + S_HDR + slot * 16
            slot_key = int(view.load_u64(kaddr))
            if slot_key == 0:
                continue
            if (slot_key - 1) & (1 << local_depth):
                value = view.load_u64(kaddr + 8)
                daddr = sibling + S_HDR + slot * 16
                view.ntstore_u64(daddr + 8, value)
                view.ntstore_u64(daddr, slot_key)
                view.ntstore_u64(kaddr, 0)
        view.ntstore_u64(seg + S_LOCAL_DEPTH, local_depth + 1)
        view.sfence()
        # Redirect directory entries; non-temporal, so readers never see a
        # dirty directory entry (CCEH's correct flush discipline).
        capacity = int(view.load_u64(directory + D_CAPACITY))
        for index in range(capacity):
            low_bits = index & ((1 << (local_depth + 1)) - 1)
            if low_bits == new_pattern:
                view.ntstore_u64(self._entry_addr(directory, index), sibling)
        view.sfence()
        return True

    def _double_directory(self, directory):
        view = self.view
        capacity = int(view.load_u64(directory + D_CAPACITY))
        global_depth = int(view.load_u64(directory + D_GLOBAL_DEPTH))
        new_capacity = capacity * 2
        new_dir = self.objpool.allocator.alloc(D_HDR + new_capacity * 8)
        # Bug 7 write site (CCEH.h:165 analog): capacity stored, unflushed.
        view.store_u64(new_dir + D_CAPACITY, new_capacity)
        view.store_u64(new_dir + D_GLOBAL_DEPTH, global_depth + 1)
        # CCEH.cpp:171 analog: rereads its own unflushed capacity and
        # derives the segment-array layout from the dirty value.
        dirty_capacity = view.load_u64(new_dir + D_CAPACITY)
        view.store_u64(new_dir + D_MASK, dirty_capacity - 1)
        for index in range(new_capacity):
            seg = view.load_u64(self._entry_addr(directory,
                                                 index % capacity))
            view.ntstore_u64(self._entry_addr(new_dir, index), seg)
        view.persist(new_dir, D_HDR)
        view.sfence()
        view.ntstore_u64(self.root + R_DIR, new_dir)
        view.sfence()
        return new_dir


class CcehTarget(Target):
    """Table 1 row: CCEH, version 46771e3, extendible hashing, lock-based."""

    NAME = "CCEH"
    VERSION = "46771e3"
    SCOPE = "Extendible hashing"
    CONCURRENCY = "Lock-based"
    POOL_SIZE = 1 << 20

    def operation_space(self):
        space = OperationSpace()
        space.kinds = ("put", "get", "delete")
        return space

    def setup(self):
        objpool = PmemObjPool.create("cceh", self.POOL_SIZE)
        root = objpool.root(ROOT_SIZE)
        view = raw_view(objpool.pool)
        capacity = 1 << INITIAL_DEPTH
        directory = objpool.allocator.alloc(D_HDR + capacity * 8)
        view.ntstore_u64(directory + D_CAPACITY, capacity)
        view.ntstore_u64(directory + D_GLOBAL_DEPTH, INITIAL_DEPTH)
        view.ntstore_u64(directory + D_MASK, capacity - 1)
        state = TargetState(objpool.pool, allocators=[objpool.allocator],
                            extras={"objpool": objpool, "root": root})
        ann = state.annotations
        ann.pm_sync_var_hint("segment_lock", 8, 0)
        ann.pm_sync_var_hint("dir_lock", 8, 0)
        ann.register_instance("dir_lock", root + R_DIR_LOCK)
        instance = CcehInstance(self, state, view, None)
        for pattern in range(capacity):
            seg = instance._alloc_segment(INITIAL_DEPTH, pattern)
            view.ntstore_u64(directory + D_HDR + pattern * 8, seg)
        view.ntstore_u64(root + R_DIR, directory)
        view.sfence()
        objpool.pool.memory.persist_all()
        return state

    def open(self, state, view, scheduler):
        return CcehInstance(self, state, view, scheduler)

    def exec_op(self, instance, view, op):
        kind = op.get("op")
        key = op.get("key", 0)
        if kind == "put":
            return instance.insert(key, op.get("value", 0))
        if kind == "get":
            instance.get(key)
            return True
        if kind == "delete":
            return instance.delete(key)
        return False

    # ------------------------------------------------------------------
    # recovery: walks the directory but never releases segment locks
    # (bug 6); the dir_lock is a DRAM-era leftover and is re-initialized.

    def recover(self, pool, view):
        objpool = PmemObjPool.attach(pool, view)
        root = pool.read_u64(8)  # OFF_ROOT
        view.ntstore_u64(root + R_DIR_LOCK, 0)
        view.sfence()
        directory = pool.read_u64(root + R_DIR)
        capacity = pool.read_u64(directory + D_CAPACITY)
        # Sanity walk of the directory (reads only — segment locks stay).
        for index in range(min(capacity, 64)):
            pool.read_u64(directory + D_HDR + index * 8)
        self._recovered = (objpool, root)
        return self

    def post_recovery_probe(self, pool, view):
        objpool, root = self._recovered
        state = TargetState(pool, extras={"objpool": objpool, "root": root})
        instance = CcehInstance(self, state, view, view.scheduler)
        instance.insert(0, 1)
