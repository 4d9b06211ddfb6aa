#!/usr/bin/env python3
"""Bring your own PM program: write a target and fuzz it with PMRace.

Implements a tiny persistent ring log with a deliberately missing flush —
the head pointer is published before the payload is flushed — plus a
persistent writer lock that recovery forgets to release. PMRace finds
both: an inter-thread inconsistency (consumers checkpoint a head derived
from non-persisted data) and a PM Synchronization Inconsistency.

This is the template for testing your own code: subclass ``Target``,
perform all PM accesses through the ``PmView`` hooks, annotate persistent
synchronization variables, and provide ``recover``.
"""

from repro import PMRace, PMRaceConfig
from repro.targets.base import OperationSpace, Target, TargetState

HEAD = 0          # persistent head index
LOCK = 8          # persistent writer lock (annotated)
CHECKPOINT = 16   # consumer checkpoint derived from head
SLOTS = 64        # ring slots start here
NUM_SLOTS = 8


class RingLogSpace(OperationSpace):
    kinds = ("push", "checkpoint")
    insert_kind = "push"
    key_range = 8

    def random_op(self, rng, near_key=None):
        kind = rng.choice(self.kinds)
        op = {"op": kind, "key": 0}
        if kind == "push":
            op["value"] = rng.randrange(1000)
        return op


class RingLogInstance:
    def __init__(self, view, scheduler):
        self.view = view
        self.scheduler = scheduler

    def push(self, value):
        view = self.view
        # persistent test-and-set lock; while it is held, park on the
        # scheduler with a pure (uninstrumented) read of the lock word
        while True:
            if view.pool.read_u64(LOCK) == 0:
                ok, _ = view.cas_u64(LOCK, 0, 1)
                if ok:
                    break
            if self.scheduler is None:
                raise RuntimeError("lock leaked")
            self.scheduler.park("spin", "pm_lock:ring",
                                lambda: view.pool.read_u64(LOCK) != 0)
        head = view.load_u64(HEAD)
        slot = SLOTS + (int(head) % NUM_SLOTS) * 8
        view.store_u64(slot, value)
        view.persist(slot, 8)
        # BUG: the new head is published but never flushed
        view.store_u64(HEAD, head + 1)
        view.store_u64(LOCK, 0)

    def checkpoint(self):
        view = self.view
        head = view.load_u64(HEAD)          # possibly non-persisted
        view.ntstore_u64(CHECKPOINT, head)  # durable side effect!
        view.sfence()


class RingLogTarget(Target):
    NAME = "ring-log"
    POOL_SIZE = 4096

    def operation_space(self):
        return RingLogSpace()

    def setup(self):
        from repro.pmem import PmemPool
        pool = PmemPool("ring", self.POOL_SIZE)
        pool.memory.persist_all()
        state = TargetState(pool)
        state.annotations.pm_sync_var_hint("ring_lock", 8, 0)
        state.annotations.register_instance("ring_lock", LOCK)
        return state

    def open(self, state, view, scheduler):
        return RingLogInstance(view, scheduler)

    def exec_op(self, instance, view, op):
        if op.get("op") == "push":
            instance.push(op.get("value", 0))
            return True
        if op.get("op") == "checkpoint":
            instance.checkpoint()
            return True
        return False

    def recover(self, pool, view):
        # reads the head back but forgets to re-initialize the lock
        pool.read_u64(HEAD)
        return self


def main():
    result = PMRace(RingLogTarget(),
                    PMRaceConfig(max_campaigns=40, max_seeds=10,
                                 base_seed=3)).run()
    print("campaigns: %d" % result.campaigns)
    print("inter-thread inconsistencies: %d"
          % len(result.inter_inconsistencies))
    print("sync inconsistencies: %d" % len(result.sync_inconsistencies))
    for report in result.bug_reports:
        print()
        print(report.format())
    assert result.bug_reports, "expected PMRace to find the seeded bugs"


if __name__ == "__main__":
    main()
