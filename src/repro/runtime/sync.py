"""Synchronization primitives for simulated threads.

:class:`SimLock` is a DRAM mutex: it coordinates threads but leaves no
trace in PM, so it can never produce a PM Synchronization Inconsistency.
Persistent locks, by contrast, are plain PM words manipulated through the
instrumented CAS in :class:`repro.instrument.hooks.PmView`; the targets use
those where the original systems persisted their locks (P-CLHT bucket
locks, CCEH segment locks).
"""

from .thread import ThreadKilled  # noqa: F401  (re-exported convenience)


class _SpinPrimitive:
    """Shared plumbing of the DRAM spin primitives.

    Because the scheduler serializes threads, test-and-set needs no real
    atomicity: a contended acquire parks on the scheduler
    (:meth:`~repro.runtime.scheduler.Scheduler.park`) with a pure
    predicate over the primitive's fields, which also feeds hang
    detection when an unlock is missing (P-CLHT bug 5). Without a
    scheduler (single-threaded setup/recovery code) uncontended use
    works and contention raises ``RuntimeError``.
    """

    #: Sentinel holder for acquisition outside the scheduler.
    _DRIVER = object()

    def __init__(self, scheduler, name):
        self.scheduler = scheduler
        self.name = name

    def _me(self):
        if self.scheduler is None:
            return self._DRIVER
        return self.scheduler.current() or self._DRIVER

    def _yield(self, kind, reason=None):
        if self.scheduler is not None:
            self.scheduler.yield_point(kind, reason)

    def _wait(self, reason, blocked):
        """Spin-yield while ``blocked()`` holds; returns at once if not."""
        if not blocked():
            return
        if self.scheduler is None:
            raise RuntimeError(
                "lock %s contended outside the scheduler" % self.name)
        self.scheduler.park("spin", reason, blocked)


class SimLock(_SpinPrimitive):
    """A DRAM spin lock driven by scheduler yield points."""

    def __init__(self, scheduler, name="lock"):
        super().__init__(scheduler, name)
        self.holder = None

    def acquire(self):
        me = self._me()

        def held():
            return self.holder is not None and self.holder is not me

        self._wait("lock:%s" % self.name, held)
        self.holder = me
        self._yield("op")

    def release(self):
        if self.holder is None:
            raise RuntimeError("release of unheld lock %s" % self.name)
        self.holder = None
        self._yield("op")

    def locked(self):
        return self.holder is not None

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.release()
        return False


class SimRWLock(_SpinPrimitive):
    """A DRAM reader-writer lock (write-preferring, spin-based)."""

    def __init__(self, scheduler, name="rwlock"):
        super().__init__(scheduler, name)
        self.readers = 0
        self.writer = None

    def acquire_read(self):
        self._wait("rdlock:%s" % self.name,
                   lambda: self.writer is not None)
        self.readers += 1
        self._yield("op")

    def release_read(self):
        if self.readers <= 0:
            raise RuntimeError(
                "release_read without readers on %s" % self.name)
        self.readers -= 1
        self._yield("op")

    def acquire_write(self):
        me = self._me()
        self._wait("wrlock:%s" % self.name,
                   lambda: self.writer is not None or self.readers > 0)
        self.writer = me
        self._yield("op")

    def release_write(self):
        if self.writer is None:
            raise RuntimeError("release_write of unheld %s" % self.name)
        self.writer = None
        self._yield("op")
