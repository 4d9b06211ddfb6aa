"""Simulated threads managed by the cooperative scheduler.

A simulated thread is not an OS thread of its own: each run hands it to
a carrier thread of a :class:`~repro.runtime.scheduler.CarrierPool`,
which runs the simulated threads of every campaign in a session. The
carrier's own frames live in the scheduler module, which call-site
interning skips, so record stacks do not depend on which carrier ran
the thread, or on how many campaigns it ran before.
"""

import enum


class ThreadState(enum.Enum):
    NEW = "new"
    READY = "ready"
    DONE = "done"


class ThreadKilled(BaseException):
    """Raised inside a simulated thread when the scheduler aborts the run.

    Derives from ``BaseException`` so target code catching ``Exception``
    cannot swallow it.
    """


class SimThread:
    """One simulated thread, run on a carrier and gated by the scheduler.

    Attributes:
        tid: Small integer thread id (0-based), used by checkers as the
            writer/reader identity.
        name: Human-readable name for reports.
        sleep_steps: Scheduling rounds to skip (used by delay injection).
        spin_streak: Consecutive ``spin``-kind yields; feeds hang detection.
        bypass_sync: Figure 6's privileged-thread flag.
        blocked_reason: Why the thread is currently spinning, for reports.
    """

    def __init__(self, scheduler, tid, fn, name=None):
        self.scheduler = scheduler
        self.tid = tid
        self.fn = fn
        self.name = name or ("thread-%d" % tid)
        self.state = ThreadState.NEW
        self.error = None
        self.sleep_steps = 0
        self.spin_streak = 0
        self.bypass_sync = False
        self.blocked_reason = None
        self.steps = 0

    def _bootstrap(self):
        """Run ``fn`` on the calling carrier; ``_exit_thread`` runs even
        if the run aborted before this thread was first scheduled."""
        sched = self.scheduler
        try:
            sched._enter_thread(self)
            # Record stacks name this line: keep it where it is.
            self.fn()
        except ThreadKilled:
            pass
        except BaseException as exc:  # noqa: BLE001 - reported to the driver
            self.error = exc
        finally:
            sched._exit_thread(self)

    def __repr__(self):
        return "<SimThread %s state=%s>" % (self.name, self.state.value)
