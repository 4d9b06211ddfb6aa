"""P-CLHT: a persistent cache-line hash table (RECIPE), with its real bugs.

This re-implements the structure PMRace tested (§2.3.2, Table 2 bugs 1-5):
a bucket-grained-locked chained^Wresizable hash table on PMDK. Layout:

* root: current table offset ``ht_off``, resize destination ``table_new``,
  and three persistent global locks;
* table: inline header (``num_buckets``) followed by an inline array of
  one-cache-line buckets: ``lock | key0 | val0 | key1 | val1 | pad``.

The seeded bugs (file/line comments name the original sites):

1. **Inter** — resize publishes the new table pointer with a *delayed*
   flush (store at the ``clht_lb_res.c:785`` analog, CLWB at ``:786``);
   a concurrent ``put`` reads the dirty pointer (``:417``) and ntstores
   the item into the new table (``:483-489``) → data loss.
2. **Sync** — persistent bucket locks are never re-initialized by
   recovery (``:429``) → post-crash hang.
3. **Intra** — migration reads its own unflushed ``table_new``
   (``:789`` → ``clht_gc.c:190``) and rehashes into it → PM leak.
4. **Other** — lock-free readers see unflushed keys (``:321``/``:616``):
   an inconsistency candidate whose investigation revealed redundant PM
   writes.
5. **Other** — ``clht_update`` returns without releasing the bucket lock
   on the key-missing path (``:526``) → DRAM hang.
"""

from ..pmdk.pool import PmemObjPool
from ..runtime.thread import ThreadKilled  # noqa: F401 (documentation aid)
from .base import OperationSpace, Target, TargetState, raw_view

# root field offsets
R_HT = 0
R_TABLE_NEW = 8
R_RESIZE_LOCK = 16
R_GC_LOCK = 24
R_GLOBAL_LOCK = 32
R_VERSION = 40
ROOT_SIZE = 64

# table layout
T_NUM_BUCKETS = 0
T_HDR = 64
BUCKET_SIZE = 64
B_LOCK = 0
B_KEY0 = 8
B_VAL0 = 16
B_KEY1 = 24
B_VAL1 = 32
#: Bug 4's site: a "last inserted key" hint, written on every put but
#: never flushed — and, it turns out, never needed (redundant PM write).
B_HINT = 40
SLOTS = 2

INITIAL_BUCKETS = 4
MAX_RESIZES = 6


def _pm_lock_acquire(view, scheduler, addr, name="lock"):
    """Acquire a persistent spin lock word (single shared CAS site).

    Test-and-test-and-set: the spin test reads the cached value without
    instrumentation (a PAUSE loop on a cached line), so consecutive spin
    yields accumulate and the scheduler's hang detection can see a thread
    stuck on a leaked lock.
    """
    while True:
        if view.pool.read_u64(int(addr)) == 0:
            if view.cas_u64(addr, 0, 1)[0]:
                return
        if scheduler is None:
            raise RuntimeError("persistent %s lock stuck outside the "
                               "scheduler (leaked by a previous crash?)"
                               % name)
        scheduler.park("spin", "pm_lock:%s" % name,
                       lambda: view.pool.read_u64(int(addr)) != 0)


def _pm_lock_release(view, addr):
    view.store_u64(addr, 0)


class PclhtInstance:
    """Per-campaign runtime state of one P-CLHT pool."""

    def __init__(self, target, state, view, scheduler):
        self.target = target
        self.state = state
        self.view = view
        self.scheduler = scheduler
        self.objpool = state.extras["objpool"]
        self.root = state.extras["root"]
        self.resizes = 0

    # ------------------------------------------------------------------
    # helpers

    def _bucket_addr(self, table, index):
        # Address arithmetic on the (possibly tainted) table offset: this
        # is exactly the address data flow of Figure 2.
        return table + T_HDR + index * BUCKET_SIZE

    def _register_bucket_locks(self, table, num_buckets):
        for index in range(num_buckets):
            self.state.annotations.register_instance(
                "bucket_lock", int(self._bucket_addr(table, index)) + B_LOCK)

    # ------------------------------------------------------------------
    # operations

    def put(self, key, value):
        """Insert or overwrite; triggers resize when the bucket is full."""
        for _attempt in range(MAX_RESIZES + 2):
            ht = self.view.load_u64(self.root + R_HT)       # :417 analog
            num = self.view.load_u64(int(ht) + T_NUM_BUCKETS)
            bucket = self._bucket_addr(ht, key % int(num))
            _pm_lock_acquire(self.view, self.scheduler, bucket + B_LOCK, "bucket")
            # Bug 4 write site (:321 analog): an unflushed, redundant
            # key-hint write.
            self.view.store_u64(bucket + B_HINT, key + 1)
            free_slot = None
            for slot in range(SLOTS):
                slot_key = self.view.load_u64(bucket + B_KEY0 + 16 * slot)
                if int(slot_key) == key + 1:
                    val_addr = bucket + B_VAL0 + 16 * slot
                    self.view.store_u64(val_addr, value)
                    self.view.persist(val_addr, 8)
                    _pm_lock_release(self.view, bucket + B_LOCK)
                    return True
                if int(slot_key) == 0 and free_slot is None:
                    free_slot = slot
            if free_slot is not None:
                # :483-489 analog — movnt64 the key/value pair.
                self.view.ntstore_u64(bucket + B_VAL0 + 16 * free_slot,
                                      value)
                self.view.ntstore_u64(bucket + B_KEY0 + 16 * free_slot,
                                      key + 1)
                self.view.sfence()
                _pm_lock_release(self.view, bucket + B_LOCK)
                return True
            _pm_lock_release(self.view, bucket + B_LOCK)
            self._resize()
        return False

    def get(self, key):
        """Lock-free search (reads unflushed keys: bug 4's candidate)."""
        ht = self.view.load_u64(self.root + R_HT)            # :417 analog
        num = self.view.load_u64(int(ht) + T_NUM_BUCKETS)
        bucket = self._bucket_addr(ht, key % int(num))
        # Bug 4 read site (:616 analog): consults the (possibly unflushed)
        # key hint; the scan below is needed regardless, so the hint — and
        # the PM write maintaining it — is redundant.
        self.view.load_u64(bucket + B_HINT)
        for slot in range(SLOTS):
            slot_key = self.view.load_u64(bucket + B_KEY0 + 16 * slot)  # :616
            if int(slot_key) == key + 1:
                return int(self.view.load_u64(bucket + B_VAL0 + 16 * slot))
        return None

    def update(self, key, value):
        """Bug 5: the key-missing path forgets to release the bucket lock."""
        ht = self.view.load_u64(self.root + R_HT)
        num = self.view.load_u64(int(ht) + T_NUM_BUCKETS)
        bucket = self._bucket_addr(ht, key % int(num))
        _pm_lock_acquire(self.view, self.scheduler, bucket + B_LOCK, "bucket")
        for slot in range(SLOTS):
            slot_key = self.view.load_u64(bucket + B_KEY0 + 16 * slot)
            if int(slot_key) == key + 1:
                val_addr = bucket + B_VAL0 + 16 * slot
                self.view.store_u64(val_addr, value)
                self.view.persist(val_addr, 8)
                _pm_lock_release(self.view, bucket + B_LOCK)
                return True
        return False                                         # :526 analog

    def delete(self, key):
        ht = self.view.load_u64(self.root + R_HT)
        num = self.view.load_u64(int(ht) + T_NUM_BUCKETS)
        bucket = self._bucket_addr(ht, key % int(num))
        _pm_lock_acquire(self.view, self.scheduler, bucket + B_LOCK, "bucket")
        found = False
        for slot in range(SLOTS):
            slot_key = self.view.load_u64(bucket + B_KEY0 + 16 * slot)
            if int(slot_key) == key + 1:
                self.view.ntstore_u64(bucket + B_KEY0 + 16 * slot, 0)
                self.view.sfence()
                found = True
                break
        _pm_lock_release(self.view, bucket + B_LOCK)
        return found

    # ------------------------------------------------------------------
    # resize (bugs 1 and 3 live here)

    def _resize(self):
        view = self.view
        _pm_lock_acquire(view, self.scheduler, self.root + R_RESIZE_LOCK, "resize")
        try:
            if self.resizes >= MAX_RESIZES:
                return
            ht = int(view.load_u64(self.root + R_HT))
            num = int(view.load_u64(ht + T_NUM_BUCKETS))
            new_num = num * 2
            new_table = self.objpool.allocator.alloc(
                T_HDR + new_num * BUCKET_SIZE)
            self._register_bucket_locks(new_table, new_num)
            view.ntstore_u64(new_table + T_NUM_BUCKETS, new_num)
            view.ntstore_bytes(new_table + T_HDR,
                               b"\x00" * (new_num * BUCKET_SIZE))
            view.sfence()
            # Bug 3 write site (:789): table_new stored, never flushed
            # before the migration below consumes it.
            view.store_u64(self.root + R_TABLE_NEW, new_table)
            _pm_lock_acquire(view, self.scheduler, self.root + R_GC_LOCK, "gc")
            for index in range(num):
                # clht_gc.c:190 analog — rereads its own unflushed
                # table_new on every pass (Intra candidate).
                dest = view.load_u64(self.root + R_TABLE_NEW)
                bucket = ht + T_HDR + index * BUCKET_SIZE
                for slot in range(SLOTS):
                    slot_key = int(view.load_u64(bucket + B_KEY0 + 16 * slot))
                    if slot_key == 0:
                        continue
                    value = view.load_u64(bucket + B_VAL0 + 16 * slot)
                    didx = (slot_key - 1) % new_num
                    dbucket = dest + T_HDR + didx * BUCKET_SIZE
                    for dslot in range(SLOTS):
                        dkey = view.load_u64(dbucket + B_KEY0 + 16 * dslot)
                        if int(dkey) == 0:
                            view.ntstore_u64(
                                dbucket + B_VAL0 + 16 * dslot, value)
                            view.ntstore_u64(
                                dbucket + B_KEY0 + 16 * dslot, slot_key)
                            break
            view.sfence()
            _pm_lock_release(view, self.root + R_GC_LOCK)
            _pm_lock_acquire(view, self.scheduler, self.root + R_GLOBAL_LOCK, "global")
            # Bug 1 write site (:785): the swap of the global table
            # pointer; the CLWB+SFENCE (:786) is a separate, later step —
            # the window a concurrent put's :417 read falls into.
            view.store_u64(self.root + R_HT, new_table)
            view.clwb(self.root + R_HT)                      # :786 analog
            view.sfence()
            view.persist(self.root + R_TABLE_NEW, 8)
            _pm_lock_release(view, self.root + R_GLOBAL_LOCK)
            self.objpool.allocator.free(ht)
            self.resizes += 1
        finally:
            _pm_lock_release(view, self.root + R_RESIZE_LOCK)


class PclhtTarget(Target):
    """Table 1 row: P-CLHT, version 70bf21c, static hashing, lock-based."""

    NAME = "P-CLHT"
    VERSION = "70bf21c"
    SCOPE = "Static hashing"
    CONCURRENCY = "Lock-based"
    POOL_SIZE = 1 << 20

    def operation_space(self):
        return OperationSpace()

    def setup(self):
        objpool = PmemObjPool.create("pclht", self.POOL_SIZE)
        root = objpool.root(ROOT_SIZE)
        view = raw_view(objpool.pool)
        table = objpool.allocator.alloc(T_HDR + INITIAL_BUCKETS * BUCKET_SIZE)
        view.ntstore_u64(table + T_NUM_BUCKETS, INITIAL_BUCKETS)
        view.ntstore_bytes(table + T_HDR,
                           b"\x00" * (INITIAL_BUCKETS * BUCKET_SIZE))
        view.ntstore_u64(root + R_HT, table)
        view.ntstore_u64(root + R_TABLE_NEW, 0)
        view.sfence()
        objpool.pool.memory.persist_all()
        state = TargetState(objpool.pool, allocators=[objpool.allocator],
                            extras={"objpool": objpool, "root": root})
        ann = state.annotations
        ann.pm_sync_var_hint("bucket_lock", 8, 0)
        ann.pm_sync_var_hint("resize_lock", 8, 0)
        ann.pm_sync_var_hint("gc_lock", 8, 0)
        ann.pm_sync_var_hint("global_lock", 8, 0)
        for index in range(INITIAL_BUCKETS):
            ann.register_instance(
                "bucket_lock", table + T_HDR + index * BUCKET_SIZE + B_LOCK)
        ann.register_instance("resize_lock", root + R_RESIZE_LOCK)
        ann.register_instance("gc_lock", root + R_GC_LOCK)
        ann.register_instance("global_lock", root + R_GLOBAL_LOCK)
        return state

    def open(self, state, view, scheduler):
        return PclhtInstance(self, state, view, scheduler)

    def exec_op(self, instance, view, op):
        kind = op.get("op")
        key = op.get("key", 0)
        if kind == "put":
            return instance.put(key, op.get("value", 0))
        if kind == "get":
            instance.get(key)
            return True
        if kind == "update":
            return instance.update(key, op.get("value", 0))
        if kind == "delete":
            return instance.delete(key)
        return False

    # ------------------------------------------------------------------
    # recovery (bug 2: bucket locks are NOT re-initialized here)

    def recover(self, pool, view):
        objpool = PmemObjPool.attach(pool, view)
        root = pool.read_u64(8)  # OFF_ROOT
        # P-CLHT's restart path re-initializes its *global* locks...
        for off in (R_RESIZE_LOCK, R_GC_LOCK, R_GLOBAL_LOCK):
            view.ntstore_u64(root + off, 0)
        view.sfence()
        # ...but walks the buckets without touching their lock words
        # (clht_lb_res.c:429): bug 2.
        self._recovered = (objpool, root)
        return self

    def post_recovery_probe(self, pool, view):
        """A put against the recovered pool; hangs on a stuck bucket lock."""
        objpool, root = self._recovered
        state = TargetState(pool, extras={"objpool": objpool, "root": root})
        instance = PclhtInstance(self, state, view, view.scheduler)
        instance.put(0, 1)
