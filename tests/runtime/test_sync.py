"""DRAM synchronization primitive tests."""

import pytest

from repro.runtime import RoundRobinPolicy, Scheduler, SimLock, SimRWLock


def make_scheduler(**kwargs):
    return Scheduler(RoundRobinPolicy(), **kwargs)


class TestSimLock:
    def test_mutual_exclusion(self):
        scheduler = make_scheduler()
        lock = SimLock(scheduler, "m")
        inside = []
        violations = []

        def worker(tid):
            for _ in range(5):
                with lock:
                    if inside:
                        violations.append(tid)
                    inside.append(tid)
                    scheduler.yield_point("op")
                    scheduler.yield_point("op")
                    inside.pop()

        for tid in range(3):
            scheduler.spawn(lambda tid=tid: worker(tid))
        assert scheduler.run().ok
        assert violations == []

    def test_release_unheld_raises(self):
        scheduler = make_scheduler()
        lock = SimLock(scheduler, "m")
        errors = []

        def worker():
            try:
                lock.release()
            except RuntimeError as exc:
                errors.append(exc)

        scheduler.spawn(worker)
        scheduler.run()
        assert len(errors) == 1

    def test_locked_query(self):
        scheduler = make_scheduler()
        lock = SimLock(scheduler, "m")
        states = []

        def worker():
            states.append(lock.locked())
            lock.acquire()
            states.append(lock.locked())
            lock.release()
            states.append(lock.locked())

        scheduler.spawn(worker)
        scheduler.run()
        assert states == [False, True, False]

    def test_missing_unlock_hangs(self):
        scheduler = make_scheduler(spin_hang_limit=20, thread_spin_limit=60)
        lock = SimLock(scheduler, "m")

        def leaker():
            lock.acquire()  # never released

        def victim():
            for _ in range(10):
                scheduler.yield_point("op")
            lock.acquire()

        scheduler.spawn(leaker)
        scheduler.spawn(victim)
        outcome = scheduler.run()
        assert outcome.status == "hang"
        assert any("lock:m" in (reason or "")
                   for _name, reason in outcome.blocked)


class TestSimRWLock:
    def test_readers_share(self):
        scheduler = make_scheduler()
        rwlock = SimRWLock(scheduler, "rw")
        concurrent = []

        def reader():
            rwlock.acquire_read()
            concurrent.append(rwlock.readers)
            scheduler.yield_point("op")
            scheduler.yield_point("op")
            rwlock.release_read()

        scheduler.spawn(reader)
        scheduler.spawn(reader)
        assert scheduler.run().ok
        assert max(concurrent) == 2

    def test_writer_excludes_readers(self):
        scheduler = make_scheduler()
        rwlock = SimRWLock(scheduler, "rw")
        log = []

        def writer():
            rwlock.acquire_write()
            log.append("w-in")
            for _ in range(4):
                scheduler.yield_point("op")
            log.append("w-out")
            rwlock.release_write()

        def reader():
            scheduler.yield_point("op")
            rwlock.acquire_read()
            log.append("r")
            rwlock.release_read()

        scheduler.spawn(writer)
        scheduler.spawn(reader)
        assert scheduler.run().ok
        assert log.index("r") > log.index("w-out")

    def test_release_errors(self):
        scheduler = make_scheduler()
        rwlock = SimRWLock(scheduler, "rw")
        errors = []

        def worker():
            for method in (rwlock.release_read, rwlock.release_write):
                try:
                    method()
                except RuntimeError as exc:
                    errors.append(exc)

        scheduler.spawn(worker)
        scheduler.run()
        assert len(errors) == 2

    def test_waiting_writer_is_parked(self):
        scheduler = make_scheduler()
        rwlock = SimRWLock(scheduler, "rw")

        def reader():
            rwlock.acquire_read()
            for _ in range(10):
                scheduler.yield_point("op")
            rwlock.release_read()

        def writer():
            scheduler.yield_point("op")
            rwlock.acquire_write()
            rwlock.release_write()

        scheduler.spawn(reader)
        scheduler.spawn(writer)
        assert scheduler.run().ok
        assert scheduler.parked_steps > 0


class TestOutsideScheduler:
    """Single-threaded setup/recovery code uses the locks without a
    scheduler: uncontended use works, contention is a clear error."""

    def test_lock_uncontended(self):
        lock = SimLock(None, "m")
        with lock:
            assert lock.locked()
        assert not lock.locked()

    def test_rwlock_uncontended(self):
        rwlock = SimRWLock(None, "rw")
        rwlock.acquire_read()
        rwlock.acquire_read()
        assert rwlock.readers == 2
        rwlock.release_read()
        rwlock.release_read()
        rwlock.acquire_write()
        assert rwlock.writer is not None
        rwlock.release_write()
        assert rwlock.writer is None and rwlock.readers == 0

    def test_rwlock_read_contended_by_writer(self):
        rwlock = SimRWLock(None, "rw")
        rwlock.acquire_write()
        with pytest.raises(RuntimeError, match="rw contended outside"):
            rwlock.acquire_read()

    @pytest.mark.parametrize("hold", ["read", "write"])
    def test_rwlock_write_contended(self, hold):
        rwlock = SimRWLock(None, "rw")
        getattr(rwlock, "acquire_" + hold)()
        with pytest.raises(RuntimeError, match="rw contended outside"):
            rwlock.acquire_write()
