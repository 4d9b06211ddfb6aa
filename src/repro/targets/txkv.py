"""txkv: a PMDK-transaction key-value store, with a seeded torn update.

The second SDK extension target, exercising the *torn out-of-transaction
metadata* pattern the PM bug studies flag as a recurring PMDK-app
mistake: the record data is dutifully undo-logged inside a transaction,
but a pair of derived metadata words is updated after commit — one half
flushed, the other not. Crash between the halves and the metadata no
longer describes the data the transaction persisted.

Layout: a direct-mapped entry table (``key+1 | value`` per 16-byte
entry) hanging off a PMDK root that also carries a live-entry count, a
generation counter, a durable ``stat`` snapshot of both, and one
persistent writer lock (annotated sync variable — correctly
re-initialized by recovery, the benign counterpart to P-CLHT's bug 2).

Seeded bug (bug 16 in our extended catalog):

16. **Inter** — every mutation bumps the generation counter *outside*
    its transaction and never flushes it (``txkv.c:144`` analog),
    while the sibling count word is persisted immediately: the torn
    metadata pair. A concurrent ``stat`` reads the dirty generation
    (``txkv.c:210``) and non-temporally logs the ``(gen, count)``
    snapshot → the durable snapshot cites a generation the pool may
    never have reached: inconsistent metadata.

Recovery rolls back the undo logs (pool open), rebuilds the count from
the table, epoch-bumps the generation, and re-initializes the writer
lock — but trusts the snapshot words as-is, which is what convicts
bug 16 in post-failure validation. The transactional entry reads in
``put``/``delete`` are undo-log protected and therefore whitelisted
(``repro.targets.txkv``), mirroring clevel's PMDK entries.
"""

from ..pmdk.pool import PmemObjPool
from ..pmdk.tx import Transaction
from .base import OperationSpace, Target, TargetState, raw_view

R_TABLE = 0
R_COUNT = 8
R_GEN = 16
R_SNAP_GEN = 24
R_SNAP_COUNT = 32
R_WLOCK = 40
ROOT_SIZE = 64

E_KEY = 0
E_VAL = 8
ENTRY_SIZE = 16
NUM_KEYS = 16

#: Recovery advances the generation to a fresh epoch so stale readers
#: can never mistake post-crash state for pre-crash state.
GEN_EPOCH = 1 << 32


class TxKvOperationSpace(OperationSpace):
    kinds = ("put", "get", "delete", "stat")
    insert_kind = "put"
    key_range = NUM_KEYS
    value_range = 1 << 16


class TxKvInstance:
    """Per-campaign runtime state of one txkv pool."""

    def __init__(self, target, state, view, scheduler):
        self.target = target
        self.state = state
        self.view = view
        self.scheduler = scheduler
        self.objpool = state.extras["objpool"]
        self.root = state.extras["root"]
        self.table = state.extras["table"]

    # ------------------------------------------------------------------
    # helpers

    def _entry(self, key):
        return self.table + (key % NUM_KEYS) * ENTRY_SIZE

    def _tid(self):
        if self.scheduler and self.scheduler.current():
            return self.scheduler.current().tid
        return 0

    def _lock(self):
        """Acquire the persistent writer lock (annotated sync var)."""
        view = self.view
        while True:
            if view.pool.read_u64(self.root + R_WLOCK) == 0:
                if view.cas_u64(self.root + R_WLOCK, 0, 1)[0]:
                    return
            if self.scheduler is None:
                raise RuntimeError("txkv writer lock stuck outside the "
                                   "scheduler")
            self.scheduler.park("spin", "pm_lock:txkv_writer", lambda: (
                view.pool.read_u64(self.root + R_WLOCK) != 0))

    def _unlock(self):
        self.view.store_u64(self.root + R_WLOCK, 0)

    def _bump_gen(self):
        """Bug 16 write site (txkv.c:144 analog): the generation bump
        happens outside the transaction and is never flushed — the torn
        half of the (count, gen) metadata pair."""
        view = self.view
        gen = view.load_u64(self.root + R_GEN)
        view.store_u64(self.root + R_GEN, gen + 1)

    def _set_count(self, count):
        view = self.view
        view.store_u64(self.root + R_COUNT, count)
        view.persist(self.root + R_COUNT, 8)

    # ------------------------------------------------------------------
    # operations

    def put(self, key, value):
        view = self.view
        entry = self._entry(key)
        self._lock()
        try:
            fresh = int(view.load_u64(entry + E_KEY)) == 0
            with Transaction(self.objpool, view, self._tid()) as tx:
                tx.add_range(entry, ENTRY_SIZE)
                view.store_u64(entry + E_VAL, value)
                view.store_u64(entry + E_KEY, key + 1)
                view.persist(entry, ENTRY_SIZE)
            if fresh:
                self._set_count(int(view.load_u64(self.root + R_COUNT)) + 1)
            self._bump_gen()
            return True
        finally:
            self._unlock()

    def get(self, key):
        view = self.view
        entry = self._entry(key)
        if int(view.load_u64(entry + E_KEY)) != key + 1:
            return None
        return int(view.load_u64(entry + E_VAL))

    def delete(self, key):
        view = self.view
        entry = self._entry(key)
        self._lock()
        try:
            if int(view.load_u64(entry + E_KEY)) != key + 1:
                return False
            with Transaction(self.objpool, view, self._tid()) as tx:
                tx.add_range(entry, ENTRY_SIZE)
                view.store_u64(entry + E_KEY, 0)
                view.store_u64(entry + E_VAL, 0)
                view.persist(entry, ENTRY_SIZE)
            self._set_count(int(view.load_u64(self.root + R_COUNT)) - 1)
            self._bump_gen()
            return True
        finally:
            self._unlock()

    def stat(self):
        """Durable (gen, count) snapshot — bug 16's read + side effect.

        Lock-free by design (stats must not stall writers): the
        generation read (txkv.c:210 analog) can observe a writer's
        unfenced bump, and the snapshot below logs it durably.
        """
        view = self.view
        gen = view.load_u64(self.root + R_GEN)
        count = view.load_u64(self.root + R_COUNT)
        view.ntstore_u64(self.root + R_SNAP_GEN, gen)
        view.ntstore_u64(self.root + R_SNAP_COUNT, count)
        view.sfence()
        return int(gen), int(count)


class TxKvTarget(Target):
    """Extension target: PMDK-transaction KV store (SDK showcase)."""

    NAME = "txkv"
    VERSION = "sdk-1"
    SCOPE = "Key-value store"
    CONCURRENCY = "Lock-based"
    POOL_SIZE = 1 << 20

    def operation_space(self):
        return TxKvOperationSpace()

    def setup(self):
        objpool = PmemObjPool.create("txkv", self.POOL_SIZE)
        root = objpool.root(ROOT_SIZE)
        view = raw_view(objpool.pool)
        table = objpool.allocator.alloc(NUM_KEYS * ENTRY_SIZE)
        view.ntstore_bytes(table, b"\x00" * (NUM_KEYS * ENTRY_SIZE))
        view.ntstore_u64(root + R_TABLE, table)
        view.sfence()
        objpool.pool.memory.persist_all()
        state = TargetState(objpool.pool, allocators=[objpool.allocator],
                            extras={"objpool": objpool, "root": root,
                                    "table": table})
        ann = state.annotations
        ann.pm_sync_var_hint("txkv_writer_lock", 8, 0)
        ann.register_instance("txkv_writer_lock", root + R_WLOCK)
        return state

    def open(self, state, view, scheduler):
        return TxKvInstance(self, state, view, scheduler)

    def exec_op(self, instance, view, op):
        kind = op.get("op")
        key = op.get("key", 0)
        if kind == "put":
            return instance.put(key, op.get("value", 0))
        if kind == "get":
            instance.get(key)
            return True
        if kind == "delete":
            return instance.delete(key)
        if kind == "stat":
            instance.stat()
            return True
        return False

    # ------------------------------------------------------------------
    # recovery: undo rollback + metadata rebuild. The stat snapshot is
    # trusted as-is — the omission that convicts bug 16.

    def recover(self, pool, view):
        objpool = PmemObjPool.attach(pool, view)
        root = pool.read_u64(8)  # OFF_ROOT
        table = pool.read_u64(root + R_TABLE)
        count = 0
        for index in range(NUM_KEYS):
            if pool.read_u64(table + index * ENTRY_SIZE + E_KEY) != 0:
                count += 1
        view.ntstore_u64(root + R_COUNT, count)
        view.ntstore_u64(root + R_GEN,
                         pool.read_u64(root + R_GEN) + GEN_EPOCH)
        view.ntstore_u64(root + R_WLOCK, 0)
        view.sfence()
        self._recovered = (objpool, root, table)
        return self

    def post_recovery_probe(self, pool, view):
        """A put against the recovered pool; completes because recovery
        re-initializes the writer lock (contrast with P-CLHT's bug 2)."""
        objpool, root, table = self._recovered
        state = TargetState(pool, extras={"objpool": objpool, "root": root,
                                          "table": table})
        instance = TxKvInstance(self, state, view, view.scheduler)
        instance.put(0, 1)
