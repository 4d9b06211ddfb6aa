"""Post-failure validation (§4.4).

For each pre-failure inconsistency, PMRace duplicated the pool at the
crash point. Validation restarts the target on the duplicate and decides:

* **Inter/Intra**: if every byte of the recorded durable side effect was
  overwritten by the recovery code, the inconsistency was fixed
  automatically — a validated false positive. Otherwise it is a bug.
* **Sync**: if the annotated synchronization variable holds its expected
  initial value after recovery, it was correctly re-initialized — a
  validated false positive. Otherwise threads would block forever on the
  stale lock: a bug.

A whitelist pass (redo-log / checksum protected reads) runs after
validation to catch the false positives validation structurally cannot see.

The replay itself is factored out of the verdict logic
(:meth:`PostFailureValidator.replay` → :class:`ReplayResult`), so the
deferred validation service (:mod:`repro.detect.validation_service`) can
replay each *unique* crash image once and feed the same
:class:`ReplayResult` to every record carrying that image. Replays are
fault-contained: each runs under a step/time budget and is retried once
on an exception before the failure is recorded — with the exception text
preserved in ``record.note`` — instead of letting a crashing or runaway
recovery take down the fuzzing loop.
"""

import bisect
import time

from ..instrument.context import InstrumentationContext
from ..instrument.events import Observer
from ..instrument.hooks import PmView
from ..obs.tracer import NULL_TRACER
from ..pmem.pool import PmemPool
from ..runtime.policies import RoundRobinPolicy
from ..runtime.scheduler import Scheduler
from .records import Verdict
from .whitelist import Whitelist

#: Default per-replay budgets: generous enough that any real recovery
#: routine in this repo finishes orders of magnitude below them, tight
#: enough that a looping recovery cannot stall a whole fuzzing run.
REPLAY_MAX_STEPS = 500_000
REPLAY_MAX_SECONDS = 10.0


class WriteRecorder(Observer):
    """Records the byte ranges written during recovery.

    ``intervals`` is kept sorted, disjoint, and coalesced (touching
    intervals are merged) *incrementally* on every store, so a coverage
    query is one binary search — O(log n) — instead of re-sorting the
    raw store log per query. Recovery code with thousands of writes is
    queried once per recorded side effect; the old sort-per-query made
    that O(n log n) each time.
    """

    def __init__(self):
        #: Sorted list of disjoint, non-touching ``(start, stop)`` pairs.
        self.intervals = []

    def on_store(self, event):
        if event.size <= 0:
            return
        start, stop = event.addr, event.addr + event.size
        intervals = self.intervals
        # Leftmost existing interval that overlaps or touches [start, stop):
        # predecessor first (it may extend past `start`), then absorb every
        # successor starting at or before `stop`.
        lo = bisect.bisect_right(intervals, (start,)) - 1
        if lo >= 0 and intervals[lo][1] >= start:
            start = min(start, intervals[lo][0])
        else:
            lo += 1
        hi = lo
        while hi < len(intervals) and intervals[hi][0] <= stop:
            stop = max(stop, intervals[hi][1])
            hi += 1
        intervals[lo:hi] = [(start, stop)]

    def covers(self, addr, size):
        """True iff ``[addr, addr+size)`` is fully covered by recorded writes."""
        if size <= 0:
            return True
        # Coalesced + disjoint: a contiguous range is covered iff one
        # interval contains it entirely. Find the rightmost interval
        # whose start is <= addr (the inf sentinel sorts after any stop).
        index = bisect.bisect_right(self.intervals,
                                    (addr, float("inf"))) - 1
        return index >= 0 and self.intervals[index][1] >= addr + size


class ReplayBudgetExceeded(Exception):
    """A recovery replay overran its step or wall-clock budget."""


class _ReplayBudget(Observer):
    """Aborts a runaway recovery replay after a step/time budget.

    Every observed access counts one step; the wall clock is consulted
    only every 256 steps so a well-behaved recovery pays dict-free
    integer work per access.
    """

    __slots__ = ("max_steps", "max_seconds", "steps", "_t0")

    def __init__(self, max_steps, max_seconds):
        self.max_steps = max_steps
        self.max_seconds = max_seconds
        self.steps = 0
        self._t0 = time.monotonic()

    def _tick(self, _event):
        self.steps += 1
        if self.steps > self.max_steps:
            raise ReplayBudgetExceeded(
                "recovery exceeded %d replay steps" % self.max_steps)
        if self.steps % 256 == 0 and \
                time.monotonic() - self._t0 > self.max_seconds:
            raise ReplayBudgetExceeded(
                "recovery exceeded %.1fs replay budget" % self.max_seconds)

    on_load = on_store = on_flush = on_fence = _tick


class ReplayResult:
    """Everything one recovery replay produced, reusable across records.

    A successful replay carries ``recovered``, the pool's volatile view
    after recovery as a :class:`~repro.pmem.memory.CrashImage` (for
    sync-variable reads), and the ``recorder`` whose coalesced write
    intervals answer side-effect coverage queries. ``recovered`` shares
    the input image's base and holds the lines the replay wrote, so a
    cached result costs what recovery touched, not the pool size; it
    keeps neither the pool (which a drain resets for its next replay)
    nor the target instance. A
    failed replay carries ``error`` (formatted exception) instead;
    ``budget_exceeded`` distinguishes a replay the budget aborted from
    one that genuinely crashed.
    """

    __slots__ = ("recovered", "recorder", "error", "budget_exceeded",
                 "retried")

    def __init__(self, recovered=None, recorder=None, error=None,
                 budget_exceeded=False, retried=False):
        self.recovered = recovered
        self.recorder = recorder
        self.error = error
        self.budget_exceeded = budget_exceeded
        self.retried = retried

    @property
    def ok(self):
        return self.error is None

    def __repr__(self):
        if self.error is not None:
            return "<ReplayResult failed: %s>" % (self.error,)
        return "<ReplayResult intervals=%d>" % len(self.recorder.intervals)


class PostFailureValidator:
    """Replays recovery on crash images and assigns verdicts.

    Args:
        target_factory: Zero-argument callable returning a **fresh**
            target object exposing ``recover(pool, view)`` (see
            :class:`repro.targets.base.Target`). Recovery must never run
            on the live fuzzing target: a recovery routine that mutates
            instance state would leak each replay into the next one and
            into the fuzzing run itself. The engine derives this factory
            from the target registry (:func:`repro.detect.
            validation_service.fresh_target_factory`).
        whitelist: Optional :class:`~repro.detect.whitelist.Whitelist`.
        probe_hangs: Also run the target's post-recovery probe operation
            under a bounded scheduler to demonstrate hangs on sync bugs.
        tracer: Optional :class:`~repro.obs.tracer.Tracer`; every verdict
            is emitted as a typed ``verdict`` event.
        metrics: Optional :class:`~repro.obs.metrics.Metrics`; verdicts
            count into ``validate.verdict.<verdict>`` and every pool a
            replay builds into ``validate.pool_builds``.
        replay_max_steps / replay_max_seconds: Per-replay fault budget
            (see :class:`_ReplayBudget`).
    """

    def __init__(self, target_factory, whitelist=None, probe_hangs=False,
                 tracer=None, metrics=None,
                 replay_max_steps=REPLAY_MAX_STEPS,
                 replay_max_seconds=REPLAY_MAX_SECONDS):
        self.target_factory = target_factory
        self.whitelist = whitelist or Whitelist()
        self.probe_hangs = probe_hangs
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.replay_max_steps = replay_max_steps
        self.replay_max_seconds = replay_max_seconds
        self._builds = None if metrics is None \
            else metrics.counter("validate.pool_builds")
        #: the pool replays reuse until :meth:`release`, and the image
        #: object :meth:`load` last reset it to (None once replayed).
        self._pool = None
        self._loaded = None

    # ------------------------------------------------------------------
    # replay (fault-contained; no verdict logic)

    def _build(self, image, pages=None):
        if self._builds is not None:
            self._builds.inc()
        return PmemPool.from_image("post-failure", image, pages)

    def load(self, image, key):
        """Make the reused pool hold ``image`` for the next :meth:`replay`
        of that same object.

        ``key`` is the image's :func:`~repro.detect.validation_service.
        image_digest`; its pages are written, so the image is not scanned
        again. The pool is reset in place, or built when there is none
        yet or it cannot reset (another size, or a recovery voided its
        journal).
        """
        pages = key[1:]
        if self._pool is None or not self._pool.reset(image, pages):
            self._pool = self._build(image, pages)
        self._loaded = image

    def release(self):
        """Drop the reused pool; the next :meth:`load` builds one."""
        self._pool = self._loaded = None

    def _recover(self, image):
        """Run recovery once on ``image``; returns ``(pool, target,
        recorder)``.

        Recovery runs on the loaded pool when it holds this image and on
        a fresh pool otherwise; a pool recovery raised in is dropped.
        """
        if self._loaded is image:
            pool = self._pool
            self._loaded = None
        else:
            pool = self._build(image)
        recorder = WriteRecorder()
        budget = _ReplayBudget(self.replay_max_steps,
                               self.replay_max_seconds)
        ctx = InstrumentationContext()
        ctx.add_observer(recorder)
        ctx.add_observer(budget)
        view = PmView(pool, None, ctx)
        target = self.target_factory()
        try:
            target.recover(pool, view)
        except BaseException:
            if pool is self._pool:
                self._pool = None
            raise
        return pool, target, recorder

    def _contained(self, image):
        """:meth:`_recover` under the fault contract of :meth:`replay`.

        Returns ``(pool, target, result)``; ``pool`` and ``target`` are
        None when ``result`` failed.
        """
        first = None
        for retried in (False, True):
            try:
                pool, target, recorder = self._recover(image)
                return pool, target, ReplayResult(recorder=recorder,
                                                  retried=retried)
            except ReplayBudgetExceeded as exc:
                return None, None, ReplayResult(error="%r" % (exc,),
                                                budget_exceeded=True,
                                                retried=retried)
            except Exception as exc:
                first = first or exc
        return None, None, ReplayResult(
            error="%r (persisted across one retry)" % (first,), retried=True)

    def replay(self, image):
        """Replay recovery on one crash image, contained and retried.

        Never raises: an exception inside recovery (or a budget abort)
        yields a ``ReplayResult`` whose ``error`` holds the formatted
        exception. Genuine crashes are retried once — recovery is
        deterministic in this simulation, but the retry keeps the
        contract honest for targets with environmental failure modes —
        while budget aborts are not (re-running a runaway replay would
        deterministically burn the budget twice).
        """
        pool, _target, result = self._contained(image)
        if pool is not None:
            result.recovered = pool.memory.volatile_image()
        return result

    # ------------------------------------------------------------------
    # verdicts

    def validate(self, record, replay=None):
        """Assign and return the verdict for one inconsistency record.

        ``replay`` optionally supplies an already-computed
        :class:`ReplayResult` for ``record.crash_image`` (the digest
        cache's reuse hook); without it the image is replayed here.
        """
        verdict = self._assign(record, replay)
        if self.metrics is not None:
            self.metrics.counter("validate.records").inc()
            self.metrics.counter("validate.verdict.%s" % verdict.value).inc()
        if self.tracer.enabled:
            self.tracer.emit("verdict", kind=record.kind,
                             verdict=verdict.value, note=record.note)
        return verdict

    def _assign(self, record, replay=None):
        if record.crash_image is None:
            record.verdict = Verdict.PENDING
            record.note = "no crash image captured"
            return record.verdict
        if replay is None:
            replay = self.replay(record.crash_image)
        if replay.error is not None:
            if replay.budget_exceeded:
                # No replay finished: there is no recovered state to
                # judge, so the verdict stays PENDING with the budget
                # context in the note instead of guessing.
                record.verdict = Verdict.PENDING
                record.note = "replay budget exhausted: %s" % replay.error
            else:
                record.verdict = Verdict.BUG
                record.note = "recovery failed: %s" % replay.error
            return record.verdict
        if record.kind in ("inter", "intra"):
            if replay.recorder.covers(record.side_effect_addr,
                                      record.side_effect_size):
                record.verdict = Verdict.VALIDATED_FP
                record.note = "side effect overwritten during recovery"
            elif self.whitelist.matches(record):
                record.verdict = Verdict.WHITELISTED_FP
                record.note = "read protected by whitelisted mechanism"
            else:
                record.verdict = Verdict.BUG
        elif record.kind == "sync":
            recovered = int.from_bytes(
                replay.recovered.read(record.addr, record.size), "little")
            if recovered == record.init_val:
                record.verdict = Verdict.VALIDATED_FP
                record.note = "sync variable re-initialized by recovery"
            else:
                record.verdict = Verdict.BUG
                record.note = "sync variable stuck at %d (expected %d)" % (
                    recovered, record.init_val)
                if self.probe_hangs:
                    record.note += self._probe_on(record)
        else:
            raise ValueError("unknown record kind %r" % record.kind)
        return record.verdict

    def _probe_on(self, record):
        """Probe on a private replay of the record's image.

        The probe executes a real operation against the recovered pool —
        it mutates it — and needs the target instance recovery ran on,
        neither of which a (possibly cached) ReplayResult keeps. Recovery
        is deterministic, so the private replay reaches the identical
        recovered state.
        """
        pool, target, private = self._contained(record.crash_image)
        if pool is None:
            return "; post-recovery probe skipped (%s)" % private.error
        return self._probe(record, pool, target)

    def _probe(self, record, pool, target):
        """Demonstrate the hang by running one probe op post-recovery."""
        probe = getattr(target, "post_recovery_probe", None)
        if probe is None:
            return ""
        scheduler = Scheduler(RoundRobinPolicy(), max_steps=20_000,
                              spin_hang_limit=200)
        ctx = InstrumentationContext()
        view = PmView(pool, scheduler, ctx)
        scheduler.spawn(lambda: probe(pool, view), "probe")
        outcome = scheduler.run()
        if outcome.status == "hang":
            return "; post-recovery probe hangs"
        if outcome.status == "budget":
            # Exhausting the step budget only proves the probe is slow
            # under this scheduler bound, not that it blocks forever —
            # reporting it as a hang would overstate the sync-bug note.
            return "; post-recovery probe exceeded its step budget " \
                   "(inconclusive)"
        return "; post-recovery probe completed"

    def validate_all(self, records):
        """Validate a batch; returns (bugs, validated_fps, whitelisted_fps)."""
        bugs, validated, whitelisted = [], [], []
        for record in records:
            verdict = self.validate(record)
            if verdict is Verdict.BUG:
                bugs.append(record)
            elif verdict is Verdict.VALIDATED_FP:
                validated.append(record)
            elif verdict is Verdict.WHITELISTED_FP:
                whitelisted.append(record)
        return bugs, validated, whitelisted
