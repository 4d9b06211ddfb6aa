"""Executable contract checks for registered targets.

Registration (:func:`repro.targets.registry.register_target`) validates
only the static surface of a target class; this module exercises the
*behavioral* contract the fuzzing engine depends on:

* metadata fields carry the right types,
* the class constructs with zero arguments (workers and the validation
  service rebuild targets by name),
* the :class:`~repro.targets.base.OperationSpace` is self-consistent —
  generation, mutation, and the serialize/parse round-trip the byte
  mutator relies on,
* ``setup`` produces a checkpointable :class:`TargetState`,
* ``open``/``exec_op`` survive a seeded random operation batch and
  reject unknown kinds, and
* ``recover`` runs on a crash image of a fresh pool.

``repro targets --check`` runs it from the CLI; the test suite
parameterizes it over every built-in; plugin authors run it against
their own classes before trusting fuzz results (see
``docs/TARGET_SDK.md``).

All checks are fault-contained: a crashing target yields a failed
report, never an exception.
"""

import random
import traceback

from ..instrument.context import InstrumentationContext
from ..instrument.hooks import PmView
from ..pmem.pool import PmemPool
from ..runtime.policies import RoundRobinPolicy
from ..runtime.scheduler import Scheduler
from .base import TargetState, raw_view

#: Deterministic seed for every randomized conformance probe.
CHECK_SEED = 0xC0F0
#: Operations executed against a fresh instance.
CHECK_OPS = 40


class ConformanceIssue:
    """One failed check: which probe failed and why."""

    __slots__ = ("check", "message")

    def __init__(self, check, message):
        self.check = check
        self.message = message

    def __repr__(self):
        return "<ConformanceIssue %s: %s>" % (self.check, self.message)


class ConformanceReport:
    """The outcome of :func:`check_target` for one class."""

    def __init__(self, name, cls):
        self.name = name
        self.cls = cls
        self.issues = []
        self.checks_run = []

    @property
    def ok(self):
        return not self.issues

    def fail(self, check, message):
        self.issues.append(ConformanceIssue(check, message))

    def summary(self):
        if self.ok:
            return "%s: ok (%d checks)" % (self.name, len(self.checks_run))
        lines = ["%s: %d issue(s)" % (self.name, len(self.issues))]
        lines.extend("  [%s] %s" % (issue.check, issue.message)
                     for issue in self.issues)
        return "\n".join(lines)

    def __repr__(self):
        return "<ConformanceReport %s %s>" % (
            self.name, "ok" if self.ok else "%d issues" % len(self.issues))


def _contained(report, check):
    """Decorator-ish runner: execute one probe, swallow its crash."""
    def run(fn, *args):
        if check not in report.checks_run:
            report.checks_run.append(check)
        try:
            return fn(*args)
        except Exception:
            report.fail(check, "raised:\n%s"
                        % traceback.format_exc(limit=4).rstrip())
            return None
    return run


def _check_metadata(report, cls):
    for field in ("NAME", "VERSION", "SCOPE", "CONCURRENCY"):
        value = getattr(cls, field, None)
        if not isinstance(value, str) or not value.strip():
            report.fail("metadata", "%s must be a non-empty string, got %r"
                        % (field, value))
    pool_size = getattr(cls, "POOL_SIZE", None)
    if not isinstance(pool_size, int) or pool_size <= 0:
        report.fail("metadata", "POOL_SIZE must be a positive int, got %r"
                    % (pool_size,))
    if not isinstance(getattr(cls, "USES_LIBPMEM", False), bool):
        report.fail("metadata", "USES_LIBPMEM must be a bool")


def _check_space(report, space):
    kinds = getattr(space, "kinds", ())
    if not kinds or not all(isinstance(kind, str) for kind in kinds):
        report.fail("space", "kinds must be a non-empty tuple of strings, "
                    "got %r" % (kinds,))
        return
    if space.insert_kind not in kinds:
        report.fail("space", "insert_kind %r not in kinds %r"
                    % (space.insert_kind, kinds))
    if not space.op_needs_value(space.insert_kind):
        report.fail("space", "op_needs_value(%r) must be True: the populate "
                    "strategy attaches values to every insert"
                    % space.insert_kind)
    rng = random.Random(CHECK_SEED)
    ops = []
    for _n in range(CHECK_OPS):
        op = space.random_op(rng)
        if not isinstance(op, dict) or op.get("op") not in kinds:
            report.fail("space", "random_op produced invalid op %r" % (op,))
            return
        ops.append(space.mutate_op(op, rng))
    for op in ops:
        if not isinstance(op, dict) or op.get("op") not in kinds:
            report.fail("space", "mutate_op produced invalid op %r" % (op,))
            return
    data = space.serialize(ops)
    if not isinstance(data, bytes):
        report.fail("space", "serialize must return bytes, got %r"
                    % type(data))
        return
    parsed, invalid = space.parse(data)
    if invalid or parsed != ops:
        report.fail("space", "serialize/parse round-trip lost ops: "
                    "%d in, %d out, %d invalid"
                    % (len(ops), len(parsed), invalid))


def _check_setup(report, target):
    state = target.setup()
    if not isinstance(state, TargetState):
        report.fail("setup", "setup() must return a TargetState, got %r"
                    % type(state))
        return None
    if state.pool is None:
        report.fail("setup", "TargetState.pool is None")
        return None
    snap = state.snapshot()
    state.restore(snap)
    return state


def _check_exec(report, target, state, space):
    # Run under a bounded scheduler, exactly like a fuzzing campaign: a
    # target with a seeded deadlock (e.g. P-CLHT's leaked bucket lock)
    # may legitimately hang mid-batch — target behavior, not a contract
    # violation — whereas an exception is a conformance failure.
    scheduler = Scheduler(RoundRobinPolicy(), max_steps=50_000,
                          spin_hang_limit=200)
    ctx = InstrumentationContext()
    view = PmView(state.pool, scheduler, ctx)
    instance = target.open(state, view, scheduler)
    rng = random.Random(CHECK_SEED + 1)
    results = {"bogus": None}

    def batch():
        for _n in range(CHECK_OPS):
            target.exec_op(instance, view, space.random_op(rng))
        results["bogus"] = target.exec_op(
            instance, view, {"op": "__not_a_real_kind__", "key": 0})

    scheduler.spawn(batch, "conformance")
    outcome = scheduler.run()
    if outcome.status == "error":
        report.fail("exec", "exec_op raised: %r" % (outcome.error,))
    elif outcome.status == "ok" and results["bogus"]:
        report.fail("exec", "exec_op must return falsy for unknown op "
                    "kinds, got %r" % (results["bogus"],))


def _check_recover(report, target_cls, state):
    image = state.pool.crash_image()
    pool = PmemPool.from_image("conformance", image)
    view = raw_view(pool)
    target_cls().recover(pool, view)


def check_target(cls):
    """Run every conformance probe against ``cls``; never raises."""
    report = ConformanceReport(getattr(cls, "NAME", cls.__name__), cls)
    run = _contained(report, "metadata")
    run(_check_metadata, report, cls)

    run = _contained(report, "construct")
    target = run(lambda: cls())
    if target is None:
        return report

    run = _contained(report, "space")
    space = run(target.operation_space)
    if space is not None:
        run = _contained(report, "space")
        run(_check_space, report, space)

    run = _contained(report, "setup")
    state = run(_check_setup, report, target)
    if state is None or space is None:
        return report

    run = _contained(report, "exec")
    run(_check_exec, report, target, state, space)

    run = _contained(report, "recover")
    run(_check_recover, report, cls, cls().setup())
    return report


def check_all(classes=None):
    """Conformance reports for ``classes`` (default: all registered)."""
    if classes is None:
        from .registry import registered_classes
        classes = registered_classes()
    return [check_target(cls) for cls in classes]
