"""The Target SDK cookbook's toy target: a persistent append-only log.

This is the worked example for ``docs/TARGET_SDK.md`` — every section
of the cookbook points at a piece of this file. It is a *plugin
module*: nothing here is imported by the repo; the CLI loads it with
``--target-module examples/sdk_cookbook_target.py`` and the
``ToyLogTarget`` class registers itself as ``toylog``.

The workload is a bounded append-only log with two deliberate traits:

* **Seeded bug** — ``append`` persists the payload slot but publishes
  the new head with a plain store that is never flushed (the classic
  missing-flush ordering bug). ``audit`` reads the head lock-free and
  durably checkpoints it, so a crash in the window leaves a durable
  checkpoint describing entries the log never persisted. PMRace
  reports it as an inter-thread inconsistency with verdict ``BUG``.
* **Benign counterpart** — the persistent writer lock is annotated as
  a PM synchronization variable and recovery *does* re-initialize it,
  so its inconsistency validates as a false positive
  (``VALIDATED_FP``), demonstrating how post-failure validation
  separates bugs from noise.
"""

from repro.pmem import PmemPool
from repro.targets import OperationSpace, Target, TargetState

HEAD = 0          # number of appended entries (published, never flushed!)
CHECK = 8         # audit's durable checkpoint of the head
LOCK = 16         # persistent writer lock (annotated sync variable)
SLOTS = 64        # payload slots start here, one u64 each
NUM_SLOTS = 16


class ToyLogSpace(OperationSpace):
    """``append <key> <value>`` / ``audit <key>`` (key is ignored)."""

    kinds = ("append", "audit")
    insert_kind = "append"
    key_range = 4


class ToyLogInstance:
    """Per-campaign runtime state; everything durable lives in the pool."""

    def __init__(self, view, scheduler):
        self.view = view
        self.scheduler = scheduler

    def _lock(self):
        view = self.view
        while True:
            if view.pool.read_u64(LOCK) == 0:
                ok, _ = view.cas_u64(LOCK, 0, 1)
                if ok:
                    return
            if self.scheduler is None:
                raise RuntimeError("toylog writer lock stuck outside the "
                                   "scheduler")
            # Parked: the scheduler re-checks the lock word itself and
            # wakes this thread only once it reads free.
            self.scheduler.park("spin", "pm_lock:toylog_writer",
                                lambda: view.pool.read_u64(LOCK) != 0)

    def append(self, value):
        view = self.view
        self._lock()
        try:
            head = int(view.load_u64(HEAD))
            if head >= NUM_SLOTS:
                return False                    # log full
            slot = SLOTS + head * 8
            view.store_u64(slot, value)
            view.persist(slot, 8)
            # SEEDED BUG: the new head is published for concurrent
            # readers but never flushed — a crash can persist the
            # payload yet lose the publication (or, with audit below,
            # persist a checkpoint of a head that never became durable).
            view.store_u64(HEAD, head + 1)
            return True
        finally:
            view.store_u64(LOCK, 0)

    def audit(self):
        view = self.view
        head = view.load_u64(HEAD)              # possibly unflushed
        view.ntstore_u64(CHECK, head)           # durable side effect
        view.sfence()
        return int(head)


class ToyLogTarget(Target):
    NAME = "toylog"
    VERSION = "cookbook-1"
    SCOPE = "Append-only log"
    CONCURRENCY = "Lock-based"
    POOL_SIZE = SLOTS + NUM_SLOTS * 8

    def operation_space(self):
        return ToyLogSpace()

    def setup(self):
        pool = PmemPool("toylog", self.POOL_SIZE)
        pool.memory.persist_all()
        state = TargetState(pool)
        state.annotations.pm_sync_var_hint("toylog_writer_lock", 8, 0)
        state.annotations.register_instance("toylog_writer_lock", LOCK)
        return state

    def open(self, state, view, scheduler):
        return ToyLogInstance(view, scheduler)

    def exec_op(self, instance, view, op):
        kind = op.get("op")
        if kind == "append":
            return instance.append(op.get("value", 0))
        if kind == "audit":
            instance.audit()
            return True
        return False

    def recover(self, pool, view):
        # Clamp the head to the slots that actually persisted: the
        # publication store is the seeded bug, so recovery recomputes
        # it from the durable payload prefix (zero = never written).
        head = 0
        while head < NUM_SLOTS and pool.read_u64(SLOTS + head * 8) != 0:
            head += 1
        view.ntstore_u64(HEAD, head)
        # The annotated writer lock is correctly re-initialized, which
        # is what turns its sync inconsistency into a VALIDATED_FP.
        view.ntstore_u64(LOCK, 0)
        view.sfence()
        # The audit checkpoint at CHECK is deliberately trusted as-is:
        # that durable side effect is what convicts the seeded bug.
        self._recovered = head
        return self
