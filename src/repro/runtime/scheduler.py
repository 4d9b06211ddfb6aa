"""Deterministic cooperative scheduler for simulated threads.

Exactly one simulated thread runs at a time; every instrumented operation
calls :meth:`Scheduler.yield_point`, where the scheduler hands control to
the next thread chosen by the active :mod:`policy <repro.runtime.policies>`.
Given the same policy seed and a deterministic program, the interleaving is
fully reproducible — the property the fuzzer's execution tier relies on.

Blocking primitives (locks, the sync-point ``cond_wait``) are spin loops
over ``yield_point(kind="spin")``, written as :meth:`Scheduler.park`, so
the scheduler can detect hangs the way §4.2.2's pitfalls describe: "some
threads block" and "all threads block" conditions are spin-streak
thresholds.

Parked steps. A spinning thread that wakes only to find nothing changed
and yield again costs an OS hand-off per step for no work. Such a thread
calls :meth:`Scheduler.park` with the condition under which it would
only yield again (``blocked``); the scheduler then takes those repeat
yields on its behalf, without waking it. ``park(kind, reason, blocked)``
is equivalent to ``yield_point(kind, reason)`` followed by
``while blocked(): yield_point(kind, reason)``:

* When the policy picks a parked thread ``T`` other than the caller,
  the original ``T`` would wake, evaluate ``blocked()`` and, if true,
  yield again. No other thread runs between the pick and that
  evaluation, so the scheduler evaluates ``blocked()`` at the pick on
  the same state ``T`` would see.
* If it is true, the scheduler does ``T``'s yield step in place: the
  same step counters, spin-streak and limit checks, ``policy.on_yield``
  and successor pick, in the same order as :meth:`yield_point`. The
  policy therefore sees the same calls with the same arguments, so
  decision vectors, RNG draws, sleep-step decrements and hang/budget
  outcomes are identical. An abort raised by such a step kills the
  calling thread, and ``T`` dies at its own pending yield, as it would
  have.
* If it is false, ``T`` is woken as usual, finds ``blocked()`` false
  and returns from ``park``, exactly where the loop would have exited.

This holds only if ``blocked`` is a pure read of shared state: it runs
on another OS thread, so it must not touch PM through instrumented
accesses or call :meth:`Scheduler.current`.

Simulated threads run on carrier threads (:class:`CarrierPool`): OS
threads owned by the fuzzing session, each running one simulated thread
per run, across all the session's campaigns. A run hands each simulated
thread to an idle carrier and, once the run is over, waits for every
carrier to go idle again. A scheduler given no pool makes a private one
for its run and closes it before ``run()`` returns, so every run takes
the same path.

Hand-off is one binary lock per simulated thread (its carrier's permit)
used as a one-permit semaphore: the yielding thread releases the
successor's lock (granting the single "go" permit) and parks by
acquiring its own. Exactly one permit exists at any time — the token of
the running thread — so a raw lock suffices and each hand-off is one
futex wake plus one futex wait, without the Condition machinery of
``threading.Event``. Because at most one
thread is runnable, state mutations are serialized by construction; a
small lock protects the pieces the driver thread reads concurrently.

That is one context switch per hand-off only if the woken successor does
not preempt its waker. Under Linux's default policy it usually does: it
runs, finds the GIL still held by the waker, and switches back, for about
three switches per hand-off on one CPU. Each carrier therefore moves
itself to ``SCHED_BATCH`` once, when it starts. A woken batch task does
not preempt the running task, so the waker goes on to block on its own
permit, dropping the GIL, before its successor runs. Only the carriers
change policy; they need no privilege for it and are joined when their
pool closes, and the driver thread keeps its policy. Where the policy
is unavailable the scheduler runs as before; schedules never depend on
it.
"""

import os
import threading
from contextlib import nullcontext

try:
    from resource import RUSAGE_THREAD, getrusage
except ImportError:  # RUSAGE_THREAD is Linux-only
    RUSAGE_THREAD = None

from .policies import SchedulingPolicy
from .thread import SimThread, ThreadKilled, ThreadState


def _batch_policy():
    """Move the calling OS thread to ``SCHED_BATCH``, where available.

    On Linux, pid 0 names the calling thread, not the process. Does
    nothing where the call or the policy does not exist, or is refused.
    """
    setscheduler = getattr(os, "sched_setscheduler", None)
    batch = getattr(os, "SCHED_BATCH", None)
    if setscheduler is None or batch is None:
        return
    try:
        setscheduler(0, batch, os.sched_param(0))
    except OSError:
        pass


class _Carrier:
    """One OS thread that runs the simulated threads it is handed.

    ``_permit`` is a raw lock used as a one-permit semaphore. It is also
    the ``_go`` permit of the simulated thread the carrier is handed, so
    a carrier sleeps until its thread is first scheduled and then runs
    ``_bootstrap`` holding that first permit; a thread the policy never
    picks before an abort starts only to be killed. The carrier releases
    ``_idle`` once ``_bootstrap`` has returned. Its frames are in this
    module, so call-site interning skips them and record stacks do not
    depend on carriers.
    """

    def __init__(self, name):
        self._job = None
        self._stopped = False
        self._permit = threading.Lock()
        self._permit.acquire()
        self._idle = threading.Lock()
        self._idle.acquire()
        self._os_thread = threading.Thread(target=self._loop, name=name,
                                           daemon=True)
        self._os_thread.start()

    def _loop(self):
        _batch_policy()
        permit, idle = self._permit, self._idle
        while True:
            permit.acquire()
            job, self._job = self._job, None
            if job is None:
                return
            job._bootstrap()
            job = None  # hold no finished campaign while idle
            # An abort may have granted the finished thread one more
            # permit; the next job must start on its own.
            permit.acquire(False)
            if self._stopped:  # retired, and its pool closed meanwhile
                return
            idle.release()

    def assign(self, sim_thread):
        """Make ``sim_thread`` the next job, started by its first permit."""
        self._job = sim_thread
        sim_thread._go = self._permit

    def stop(self):
        """Stop now if idle, else as soon as the current job returns."""
        self._stopped = True
        self._job = None
        try:
            self._permit.release()
        except RuntimeError:
            pass  # busy, holding a permit its loop drains


class CarrierPool:
    """The carrier threads of one session; a context manager.

    A scheduler run takes one idle carrier per simulated thread, starting
    carriers only when too few are idle, and gives them back when the run
    ends. Each carrier moves itself to ``SCHED_BATCH`` once, as it
    starts. :meth:`close` stops and joins every idle carrier, so none
    outlives the pool's owner. Driven by one thread at a time.

    Attributes:
        started: OS threads this pool has started.
    """

    #: Seconds a run waits for each carrier to finish its simulated
    #: thread; a carrier that misses it is retired, never reused.
    IDLE_TIMEOUT = 5.0

    def __init__(self):
        self._idle = []
        self._retired = []
        self._closed = False
        self.started = 0

    def take(self, count):
        """``count`` idle carriers, starting new ones as needed."""
        if self._closed:
            raise RuntimeError("carrier pool is closed")
        idle = self._idle
        while len(idle) < count:
            idle.append(_Carrier("carrier-%d" % self.started))
            self.started += 1
        taken = idle[:count]
        del idle[:count]
        return taken

    def give_back(self, carriers):
        """Wait for each carrier to go idle; retire those that do not."""
        for carrier in carriers:
            if carrier._idle.acquire(timeout=self.IDLE_TIMEOUT):
                self._idle.append(carrier)
            else:
                self._retired.append(carrier)

    def close(self):
        """Stop every carrier and join the idle ones. A retired carrier
        exits as soon as its simulated thread returns."""
        self._closed = True
        idle, self._idle = self._idle, []
        for carrier in idle + self._retired:
            carrier.stop()
        for carrier in idle:
            carrier._os_thread.join(self.IDLE_TIMEOUT)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class Hang(Exception):
    """All live threads spun past the hang threshold, or budget exhausted."""

    def __init__(self, message, blocked=()):
        super().__init__(message)
        self.blocked = list(blocked)


class RunOutcome:
    """Result of one scheduled run.

    Attributes:
        status: "ok", "hang", "budget", or "error".
        steps: Total yield points executed.
        error: The first exception raised by a simulated thread, if any.
        blocked: ``(thread name, reason)`` pairs at hang time.
    """

    def __init__(self, status, steps, error=None, blocked=()):
        self.status = status
        self.steps = steps
        self.error = error
        self.blocked = list(blocked)

    @property
    def ok(self):
        return self.status == "ok"

    def __repr__(self):
        return "<RunOutcome %s steps=%d>" % (self.status, self.steps)


class Scheduler:
    """Serializes simulated threads and enforces hang/budget limits.

    Args:
        policy: Scheduling policy (see :mod:`repro.runtime.policies`).
        max_steps: Total yield-point budget before declaring "budget".
        spin_hang_limit: Consecutive spin yields per thread after which,
            if *every* live thread is spinning, the run is declared hung.
        thread_spin_limit: Consecutive spin yields after which a single
            thread is considered permanently blocked (e.g. on a leaked
            lock) even while others progress; defaults to 4x the hang
            limit.
        metrics: Optional :class:`~repro.obs.metrics.Metrics`; step
            totals are flushed once per run (not per yield) so the step
            loop itself stays observability-free. On Linux the OS
            context switches each simulated thread's carrier makes
            between its ``_enter_thread`` and ``_exit_thread`` go to
            ``scheduler.os_switches``.
        carriers: The session's :class:`CarrierPool`; None runs on a
            private pool, closed before :meth:`run` returns.
    """

    def __init__(self, policy, max_steps=30_000, spin_hang_limit=400,
                 thread_spin_limit=None, metrics=None, carriers=None):
        self.policy = policy
        self.carriers = carriers
        #: ``policy.on_yield``, or None when it is the interface's no-op.
        on_yield = policy.on_yield
        self._on_yield = None if getattr(on_yield, "__func__", None) \
            is SchedulingPolicy.on_yield else on_yield
        self.max_steps = max_steps
        self.spin_hang_limit = spin_hang_limit
        self.thread_spin_limit = thread_spin_limit or spin_hang_limit * 4
        #: Spin streak from which a spin step runs the full hang scan.
        self._scan_streak = min(self.spin_hang_limit, self.thread_spin_limit)
        self.metrics = metrics
        self.threads = []
        #: Live (not DONE) threads, maintained incrementally so the
        #: per-yield hot path never rebuilds the list by filtering.
        self._live_threads = []
        self.steps = 0
        self.spin_steps = 0
        #: OS wake-ups of a scheduled thread, and yield steps the
        #: scheduler took for parked threads without waking them.
        self.handoffs = 0
        self.parked_steps = 0
        #: OS context switches of exited simulated threads (read only
        #: with a metrics registry attached, and only on Linux).
        self.os_switches = 0
        #: Carrier OS threads this run started.
        self.threads_started = 0
        self._lock = threading.Lock()
        #: Released once, when the run is over: a raw lock, so the
        #: driver's wake-up is one futex wake.
        self._done = threading.Lock()
        self._done.acquire()
        self._finished = False
        self._aborting = False
        self._outcome_status = "ok"
        self._blocked_report = []
        self._local = threading.local()
        self._started = False

    # ------------------------------------------------------------------
    # setup

    def spawn(self, fn, name=None):
        """Register a simulated thread running ``fn()``; returns it."""
        if self._started:
            raise RuntimeError("cannot spawn after run() started")
        thread = SimThread(self, len(self.threads), fn, name)
        #: The thread's one-permit "go" lock: its carrier's permit.
        thread._go = None
        #: ``(kind, reason, blocked)`` while the thread is inside park().
        thread._parked = None
        #: Its carrier's context switches so far, read at _enter_thread.
        thread._switches_at_entry = 0
        self.threads.append(thread)
        self._live_threads.append(thread)
        return thread

    def current(self):
        """The :class:`SimThread` executing on this OS thread, or None."""
        return getattr(self._local, "sim_thread", None)

    # ------------------------------------------------------------------
    # run loop (driver side)

    def run(self):
        """Run all threads on carriers, serialized to completion; returns
        the outcome."""
        if not self.threads:
            return RunOutcome("ok", 0)
        self._started = True
        with CarrierPool() if self.carriers is None \
                else nullcontext(self.carriers) as pool:
            started = pool.started
            carriers = pool.take(len(self.threads))
            self.threads_started = pool.started - started
            try:
                for carrier, thread in zip(carriers, self.threads):
                    thread.state = ThreadState.READY
                    carrier.assign(thread)
                first = self._pick(None)
                if first is not None:
                    self.handoffs += 1
                    first._go.release()
                self._done.acquire()
            finally:
                if not self._finished:
                    # Interrupted before the run ended: kill every
                    # thread so its carrier goes idle.
                    with self._lock:
                        self._abort_locked("error")
                pool.give_back(carriers)
        error = next((t.error for t in self.threads if t.error is not None),
                     None)
        if error is not None and self._outcome_status == "ok":
            self._outcome_status = "error"
        if self.metrics is not None:
            self.metrics.counter("scheduler.runs").inc()
            self.metrics.counter("scheduler.steps").inc(self.steps)
            self.metrics.counter("scheduler.spin_steps").inc(self.spin_steps)
            self.metrics.counter("scheduler.handoffs").inc(self.handoffs)
            self.metrics.counter("scheduler.parked_steps").inc(
                self.parked_steps)
            self.metrics.counter("scheduler.threads_started").inc(
                self.threads_started)
            if RUSAGE_THREAD is not None:
                self.metrics.counter("scheduler.os_switches").inc(
                    self.os_switches)
            self.metrics.counter(
                "scheduler.outcome.%s" % self._outcome_status).inc()
            self.metrics.histogram("scheduler.steps_per_run").observe(
                self.steps)
        return RunOutcome(self._outcome_status, self.steps, error,
                          self._blocked_report)

    # ------------------------------------------------------------------
    # thread side

    def _enter_thread(self, thread):
        if self.metrics is not None and RUSAGE_THREAD is not None:
            usage = getrusage(RUSAGE_THREAD)
            thread._switches_at_entry = usage.ru_nvcsw + usage.ru_nivcsw
        self._local.sim_thread = thread
        if self._aborting:
            raise ThreadKilled()

    def _exit_thread(self, thread):
        switches = 0
        if self.metrics is not None and RUSAGE_THREAD is not None:
            usage = getrusage(RUSAGE_THREAD)
            switches = usage.ru_nvcsw + usage.ru_nivcsw \
                - thread._switches_at_entry
        with self._lock:
            self.os_switches += switches
            thread.state = ThreadState.DONE
            self._live_threads.remove(thread)
            if not self._live_threads:
                self._finish_locked()
                return
            if self._aborting:
                # _abort_locked already granted every live thread its
                # wake-up permit; granting again would double-release a
                # raw lock.
                return
            nxt = self._next_locked(thread)
            if nxt is None:
                return  # a parked step ended the run
            self.handoffs += 1
        nxt._go.release()

    def yield_point(self, kind="op", reason=None):
        """Surrender the processor; returns when rescheduled.

        Returns the calling :class:`SimThread` (what :meth:`current`
        would), or None for driver code outside the simulation, so a PM
        access needs one scheduler call, not two.

        Args:
            kind: "op" for ordinary instrumented operations, "spin" for
                busy-wait iterations inside blocking primitives.
            reason: Human-readable blocked reason (spin yields only).
        """
        thread = getattr(self._local, "sim_thread", None)
        if thread is None:
            return None  # driver code outside the simulation
        if self._aborting:
            raise ThreadKilled()
        with self._lock:
            if not self._step_locked(thread, kind, reason):
                raise ThreadKilled()
            nxt = self._next_locked(thread)
            if nxt is None:
                raise ThreadKilled()  # a parked step ended the run
            if nxt is thread:
                return thread
            self.handoffs += 1
        nxt._go.release()
        thread._go.acquire()
        if self._aborting:
            raise ThreadKilled()
        return thread

    def park(self, kind, reason, blocked):
        """``yield_point(kind, reason)``, then yield while ``blocked()``.

        While the calling thread is parked here, other threads' yields
        take its repeat yields for it instead of waking it (see the
        module docstring). ``blocked`` must be a pure read: it runs on
        whichever OS thread picks this one.
        """
        thread = self.current()
        if thread is not None:
            thread._parked = (kind, reason, blocked)
        try:
            self.yield_point(kind, reason)
            while blocked():
                self.yield_point(kind, reason)
        finally:
            if thread is not None:
                thread._parked = None

    # ------------------------------------------------------------------
    # internals

    def _live(self):
        return self._live_threads

    def _step_locked(self, thread, kind, reason):
        """Account one yield step of ``thread``; False if it aborted."""
        self.steps += 1
        thread.steps += 1
        if kind == "spin":
            thread.spin_streak += 1
            self.spin_steps += 1
            thread.blocked_reason = reason
            # See _check_limits_locked: below the scan streak no hang
            # condition can hold, so only the budget needs checking.
            if thread.spin_streak >= self._scan_streak:
                self._check_limits_locked()
            elif self.steps >= self.max_steps:
                self._abort_locked("budget")
        else:
            thread.spin_streak = 0
            thread.blocked_reason = None
            if self.steps >= self.max_steps:
                self._abort_locked("budget")
        if self._aborting:
            return False
        if self._on_yield is not None:
            self._on_yield(self, thread, kind)
        return True

    def _next_locked(self, caller):
        """The thread to run after ``caller``'s step, or None.

        A picked parked thread other than the caller whose ``blocked()``
        still holds would only yield again: take that step here and
        pick again. Returns None once no thread is live or a parked
        step aborted the run.
        """
        nxt = self._pick_locked(caller)
        while nxt is not caller and nxt is not None:
            parked = nxt._parked
            if parked is None or not parked[2]():
                break
            self.parked_steps += 1
            if not self._step_locked(nxt, parked[0], parked[1]):
                return None
            nxt = self._pick_locked(nxt)
        return nxt

    def _check_limits_locked(self):
        """Budget, then both hang conditions over every live thread.

        A spin step of ``thread`` runs this only once ``thread``'s
        streak reaches ``min(spin_hang_limit, thread_spin_limit)``;
        below that neither condition can hold after the step:

        * "some thread blocked" (a streak at ``thread_spin_limit``): a
          streak grows only by its owner's spin step, which runs this
          scan from the moment it reaches that limit, so any other
          thread at the limit would already have aborted the run;
        * "all threads blocked" (every streak at ``spin_hang_limit``)
          includes ``thread`` itself, whose streak is below the limit.

        "All blocked" can also become true at a thread exit, when the
        last live thread below the limit finishes. The next spin step
        of a remaining thread notices it, as a scan at every spin step
        would: that thread's streak is already past the limit.
        Op steps reset the stepping thread's streak, so they check only
        the budget.
        """
        if self.steps >= self.max_steps:
            self._abort_locked("budget")
            return
        live = self._live_threads
        if not live:
            return
        if all(t.spin_streak >= self.spin_hang_limit for t in live) or \
                any(t.spin_streak >= self.thread_spin_limit for t in live):
            self._blocked_report = [
                (t.name, t.blocked_reason) for t in live
                if t.spin_streak >= self.spin_hang_limit]
            self._abort_locked("hang")

    def _abort_locked(self, status):
        self._outcome_status = status
        self._aborting = True
        for thread in self._live_threads:
            try:
                thread._go.release()
            except RuntimeError:
                pass  # already holds a pending permit
        self._finish_locked()

    def _finish_locked(self):
        if not self._finished:
            self._finished = True
            self._done.release()

    def _pick(self, prev):
        with self._lock:
            return self._pick_locked(prev)

    def _pick_locked(self, prev):
        live = self._live_threads
        if not live:
            return None
        for t in live:
            if t.sleep_steps:
                break
        else:
            # No sleepers (the common case outside delay injection): the
            # filtered candidate list would equal ``live``, so hand the
            # live list straight to the policy. Policies never mutate or
            # retain it, and contents/order match the filtered copy, so
            # rng.choice draws stay identical.
            return self.policy.pick(self, live, prev)
        candidates = [t for t in live if t.sleep_steps == 0]
        if not candidates:
            for t in live:
                t.sleep_steps = max(0, t.sleep_steps - 1)
            candidates = [t for t in live if t.sleep_steps == 0] or live
        chosen = self.policy.pick(self, candidates, prev)
        for t in live:
            if t is not chosen and t.sleep_steps:
                t.sleep_steps -= 1
        return chosen

    # ------------------------------------------------------------------
    # hang-awareness queries used by the sync-point controller

    def some_thread_blocked(self, threshold):
        """True if any live thread spun at least ``threshold`` times."""
        return any(t.spin_streak >= threshold for t in self._live())

    def all_threads_blocked(self, threshold):
        """True if every live thread spun at least ``threshold`` times."""
        live = self._live()
        return bool(live) and all(t.spin_streak >= threshold for t in live)
