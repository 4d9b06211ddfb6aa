"""Per-layer self time, measured from outside the program.

The traced run replaces a fixed set of class attributes with thin span
wrappers (:data:`SPANS`) and restores them afterwards; nothing under
``src/`` changes.  A wrapper only appends an *enter* and an *exit* event
``(time, thread, mark)`` to an in-memory list; the harness folds the
list into per-layer totals between campaigns (:meth:`Timeline.flush`),
outside the timed spans.

The cooperative scheduler keeps one simulated thread runnable at a
time, so all events fall on one serialized timeline.  The gap between
two consecutive events is charged to the top open span of the thread
that emitted the earlier one:

* a thread that entered ``Scheduler.yield_point`` keeps charging the
  scheduler until another thread emits an event (the handoff);
* a simulated thread with no open span charges ``residual`` (target code
  and ``PmView`` bodies);
* a simulated thread that already left ``Scheduler._exit_thread``
  charges the thread lifecycle (its teardown and the driver's join);
* the driver thread with no open span charges ``engine``.

Every gap lands in exactly one layer, so the layers sum to the traced
wall time by construction.

Wrapping rule: never wrap a ``PmView`` method, a ``Target`` method or
the spawned worker function.  ``CallSiteTable`` walks the stack from the
``PmView`` frame outwards to name call sites and captures up to 16
frames, so a wrapper frame there would change call-site ids, stacks and
dedup keys.  Functions that ``PmView`` *calls* (``intern_caller``
included) are safe: their wrapper frame sits below the frames the walk
starts from.
"""

import array
import collections
import functools
import threading
import time

from repro.core.checkpoints import StateProvider
from repro.core.corpus import Corpus
from repro.core.coverage import (AliasCoverageCollector,
                                 BranchCoverageCollector, CoverageSet)
from repro.core.priority import AccessProfiler, SharedAccessQueue
from repro.core.syncpoints import SyncPointController
from repro.detect import validation_service
from repro.detect.checkers import InconsistencyChecker
from repro.detect.postfailure import PostFailureValidator
from repro.detect.validation_service import ValidationQueue
from repro.instrument.callsite import CallSiteTable
from repro.instrument.context import InstrumentationContext
from repro.pmem.memory import PersistentMemory
from repro.pmem.pool import PmemPool
from repro.runtime.policies import RoundRobinPolicy, SeededRandomPolicy
from repro.runtime.scheduler import Scheduler

HANDOFF = "scheduler.handoff"
LIFECYCLE = "scheduler.lifecycle"
RESIDUAL = "residual"
ENGINE = "engine"
HARNESS = "harness"
DRAIN = "validation.drain"
REPLAY = "validation.replay"

# Event marks other than a layer name (which marks an enter).
EXIT, STARTED, FINISHED = 0, 1, 2


def _observer_hooks(cls):
    """The ``on_*`` methods ``cls`` defines itself (inherited no-ops are
    left alone: their cost stays with the dispatching caller)."""
    return tuple(sorted(name for name in vars(cls) if name.startswith("on_")))


#: (owner, attribute names, layer) for every wrapped entry point.
SPANS = (
    (Scheduler, ("yield_point",), HANDOFF),
    (Scheduler, ("run", "_enter_thread", "_exit_thread"), LIFECYCLE),
    (SeededRandomPolicy, ("pick",), "policies.pick"),
    (RoundRobinPolicy, ("pick",), "policies.pick"),
    (PersistentMemory, ("store", "load", "clwb", "sfence",
                        "nonpersisted_writers"), "pmem.ops"),
    (PersistentMemory, ("crash_image",), "pmem.crash_image"),
    (PersistentMemory, ("snapshot", "restore"), "pmem.checkpoint"),
    (PmemPool, ("from_image",), "pmem.from_image"),
    (CallSiteTable, ("intern_caller", "intern_stack"), "callsite"),
    (InstrumentationContext, ("dispatch_load", "dispatch_store",
                              "dispatch_flush", "dispatch_fence"),
     "context.dispatch"),
    (InstrumentationContext, ("shadow_load", "shadow_store"), "taint"),
    (InconsistencyChecker, _observer_hooks(InconsistencyChecker), "detect"),
    (BranchCoverageCollector, _observer_hooks(BranchCoverageCollector),
     "coverage.collect"),
    (AliasCoverageCollector, _observer_hooks(AliasCoverageCollector),
     "coverage.collect"),
    (CoverageSet, ("merge",), "coverage.merge"),
    (AccessProfiler, _observer_hooks(AccessProfiler), "priority.profile"),
    (SharedAccessQueue, ("update_from", "fetch"), "priority.queue"),
    (SyncPointController, ("before_load", "after_store"), "syncpoints"),
    (StateProvider, ("provide",), "checkpoints.provide"),
    (Corpus, ("next_entry", "account", "settle"), "corpus"),
    (ValidationQueue, ("drain",), DRAIN),
    (PostFailureValidator, ("replay",), REPLAY),
    (PostFailureValidator, ("validate",), "validation.verdict"),
    (validation_service, ("image_digest",), "validation.digest"),
)


class Timeline:
    """Events of the traced work, folded into self time per layer.

    Events live in one ``array('d')`` as ``time, thread ident, mark``
    triples rather than in a list of tuples: nothing the trace keeps is
    a garbage-collected object, so tracing does not inflate the
    program's own collection work.  Each triple goes in with one
    ``extend`` call, which no other thread can interleave with, even
    when an aborting scheduler releases all simulated threads at once.
    A mark is a layer code (an enter), :data:`EXIT`, :data:`STARTED` or
    :data:`FINISHED`; thread idents are addresses well below 2**53, so
    a double holds them exactly.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.events = array.array("d")
        self._names = ["<exit>", "<started>", "<finished>"]
        self._codes = {}
        self._stacks = {}
        self._simulated = set()
        self._finished = set()
        self._owner = None
        self._start = self._last = None
        #: layer -> seconds charged to it.
        self.self_s = collections.defaultdict(float)
        #: layer -> wrapped calls into it.
        self.calls = collections.Counter()
        #: layer -> wrapped calls made while it was the caller's top span.
        self.child_calls = collections.Counter()
        #: Inclusive seconds of the validation drain.
        self.drain_s = 0.0
        self.wall_s = 0.0
        #: Counts read off wrapped calls: spin yields (from finished
        #: ``Scheduler.run``), sync-point stall spins, seeds fuzzed and
        #: retried recovery replays.
        self.spin_steps = 0
        self.stall_spins = 0
        self.seeds = 0
        self.replay_retries = 0

    def code(self, layer):
        """The mark that enters ``layer``."""
        if layer not in self._codes:
            self._codes[layer] = len(self._names)
            self._names.append(layer)
        return self._codes[layer]

    def recorder(self):
        """The callables a wrapper needs to emit one event."""
        return self.events.extend, self.clock, threading.get_ident

    def emit(self, mark):
        self.events.extend((self.clock(), threading.get_ident(), mark))

    def _top(self, ident):
        stack = self._stacks.get(ident)
        if stack:
            return stack[-1][0]
        if ident in self._finished:
            return LIFECYCLE
        if ident in self._simulated:
            return RESIDUAL
        return ENGINE

    def begin(self):
        self._owner = float(threading.get_ident())
        self._start = self._last = self.clock()

    def enter(self, layer):
        self.emit(self.code(layer))

    def exit(self):
        self.emit(EXIT)

    def flush(self):
        """Fold the pending events into the totals.

        Call only while no simulated thread runs.  Timestamps of threads
        racing at thread start or abort can land out of order; a gap
        that would be negative is charged nothing, so the charged gaps
        still add up to the wall time.
        """
        stacks, top, self_s = self._stacks, self._top, self.self_s
        names = self._names
        triples = iter(self.events)
        for now, ident, mark in zip(triples, triples, triples):
            if now > self._last:
                self_s[top(self._owner)] += now - self._last
                self._last = now
            self._owner = ident
            if mark > FINISHED:
                layer = names[int(mark)]
                self.child_calls[top(ident)] += 1
                self.calls[layer] += 1
                stacks.setdefault(ident, []).append((layer, now))
            elif mark == EXIT:
                layer, started = stacks[ident].pop()
                if layer == DRAIN:
                    self.drain_s += now - started
            elif mark == STARTED:
                # OS thread idents are reused across campaigns.
                stacks[ident] = []
                self._finished.discard(ident)
                self._simulated.add(ident)
            else:
                self._finished.add(ident)
        del self.events[:]

    def harness_flush(self):
        """:meth:`flush`, with its own cost charged to ``harness``."""
        self.enter(HARNESS)
        self.flush()
        self.exit()

    def finish(self):
        now = self.clock()
        self.flush()
        if now > self._last:
            self.self_s[self._top(self._owner)] += now - self._last
            self._last = now
        self.wall_s += self._last - self._start


def _span(timeline, layer, fn):
    emit, clock, ident = timeline.recorder()
    code = timeline.code(layer)

    @functools.wraps(fn)
    def span(*args, **kwargs):
        emit((clock(), ident(), code))
        try:
            return fn(*args, **kwargs)
        finally:
            emit((clock(), ident(), EXIT))
    return span


def _special(timeline, owner, name, fn):
    """Wrappers that also count something or mark thread lifetimes."""
    emit, clock, ident = timeline.recorder()
    if owner is Scheduler and name == "yield_point":
        code = timeline.code(HANDOFF)

        @functools.wraps(fn)
        def yield_point(self, kind="op", reason=None):
            if kind == "spin" and reason is not None \
                    and reason.startswith("cond_wait:"):
                timeline.stall_spins += 1
            emit((clock(), ident(), code))
            try:
                return fn(self, kind, reason)
            finally:
                emit((clock(), ident(), EXIT))
        return yield_point
    if owner is Scheduler and name == "run":
        code = timeline.code(LIFECYCLE)

        @functools.wraps(fn)
        def run(self):
            emit((clock(), ident(), code))
            try:
                return fn(self)
            finally:
                emit((clock(), ident(), EXIT))
                timeline.spin_steps += self.spin_steps
        return run
    if owner is Scheduler and name == "_enter_thread":
        code = timeline.code(LIFECYCLE)

        @functools.wraps(fn)
        def enter_thread(self, thread):
            timeline.emit(STARTED)
            emit((clock(), ident(), code))
            try:
                return fn(self, thread)
            finally:
                emit((clock(), ident(), EXIT))
        return enter_thread
    if owner is Scheduler and name == "_exit_thread":
        code = timeline.code(LIFECYCLE)

        @functools.wraps(fn)
        def exit_thread(self, thread):
            emit((clock(), ident(), code))
            try:
                return fn(self, thread)
            finally:
                emit((clock(), ident(), EXIT))
                timeline.emit(FINISHED)
        return exit_thread
    if owner is Corpus and name == "next_entry":
        code = timeline.code("corpus")

        @functools.wraps(fn)
        def next_entry(self, mutator, seed_index):
            timeline.seeds += 1
            emit((clock(), ident(), code))
            try:
                return fn(self, mutator, seed_index)
            finally:
                emit((clock(), ident(), EXIT))
        return next_entry
    if owner is PostFailureValidator and name == "replay":
        code = timeline.code(REPLAY)

        # Replays run on the driver thread between campaigns; each one
        # can emit many events, so fold them right after it.
        @functools.wraps(fn)
        def replay(self, image):
            emit((clock(), ident(), code))
            try:
                result = fn(self, image)
                timeline.replay_retries += bool(result.retried)
                return result
            finally:
                emit((clock(), ident(), EXIT))
                timeline.harness_flush()
        return replay
    return None


class Patch:
    """Installs the span wrappers of :data:`SPANS`; restores on exit.

    Use as a context manager around exactly the traced work.
    """

    def __init__(self, timeline, spans=SPANS):
        self.timeline = timeline
        self.spans = spans
        self._saved = []

    def __enter__(self):
        for owner, names, layer in self.spans:
            for name in names:
                present = name in vars(owner)
                raw = vars(owner)[name] if present else getattr(owner, name)
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapped = _special(self.timeline, owner, name, fn) \
                    or _span(self.timeline, layer, fn)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(wrapped)
                self._saved.append((owner, name, present, raw))
                setattr(owner, name, wrapped)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, present, raw = self._saved.pop()
            if present:
                setattr(owner, name, raw)
            else:
                delattr(owner, name)
        return False


class _Probe:
    def noop(self):
        return None


def calibrate(calls=20_000, repeats=5):
    """Cost of one wrapper call, split by where the timeline charges it.

    Returns ``(callee_ns, caller_ns)``: the part charged to the wrapped
    layer itself and the part charged to the calling layer, from the
    cheapest of ``repeats`` loops of ``calls`` calls.
    """
    probe = _Probe()
    clock = time.perf_counter
    best = None
    for _ in range(repeats):
        start = clock()
        for _ in range(calls):
            probe.noop()
        plain = clock() - start
        timeline = Timeline(clock)
        with Patch(timeline, ((_Probe, ("noop",), "probe"),)):
            timeline.begin()
            timeline.enter("caller")
            for _ in range(calls):
                probe.noop()
            timeline.exit()
            timeline.finish()
        callee = timeline.self_s["probe"] / calls
        caller = max(0.0, timeline.self_s["caller"] - plain) / calls
        if best is None or callee + caller < sum(best):
            best = (callee, caller)
    return best[0] * 1e9, best[1] * 1e9


def corrected_self_s(timeline, callee_ns, caller_ns):
    """Per-layer self time with the calibrated wrapper cost removed
    (never below zero)."""
    layers = {}
    for layer, seconds in timeline.self_s.items():
        cost = (timeline.calls[layer] * callee_ns
                + timeline.child_calls[layer] * caller_ns) * 1e-9
        layers[layer] = max(0.0, seconds - cost)
    return layers
