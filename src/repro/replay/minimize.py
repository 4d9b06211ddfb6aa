"""Delta-debugging minimization of repro bundles (``repro shrink``).

Classic ddmin (Zeller's delta debugging) over two dimensions, in order:

1. the **input op-sequence** — the bundle's per-thread operation lists
   are flattened to ``(tid, op)`` pairs and chunks are removed while the
   bundled record still reproduces;
2. the **schedule decision vector** — decisions are removed the same
   way; the :class:`~repro.runtime.policies.ReplayPolicy` fallback
   absorbs the gaps, and reproduction is re-tested after each cut.

Every candidate is re-executed with :func:`~repro.replay.replayer.
replay_campaign` and, when the original bundle carried a ``bug``
verdict, re-validated through the *cached* validation service — the
crash images of sibling candidates are usually dedup-equal, so the
digest cache makes the verdict check nearly free after the first
replay.

The minimized bundle is a **fresh capture** of the last successful
candidate: its actual decision sequence and served RNG draws are
journaled during the candidate run, so the output replays *strictly*
(no fallback, no divergence) even though the search itself ran loose. A
final strict replay verifies exactly that before the result is
returned.
"""

from ..detect.records import Verdict
from ..obs.tracer import NULL_TRACER
from ..runtime.scheduler import CarrierPool
from .replayer import replay_bundle, replay_campaign

#: Default replay budget for one ``repro shrink`` invocation.
DEFAULT_BUDGET = 200


def _flatten(ops):
    """Per-thread op lists → ordered ``(tid, op)`` pairs."""
    flat = []
    for tid, thread_ops in enumerate(ops):
        for op in thread_ops:
            flat.append((tid, op))
    return flat


def _rebuild(flat, n_threads):
    """Ordered ``(tid, op)`` pairs → per-thread op lists."""
    threads = [[] for _ in range(n_threads)]
    for tid, op in flat:
        threads[tid].append(op)
    return threads


class ShrinkResult:
    """Outcome of one :func:`shrink_bundle` invocation.

    Attributes:
        bundle: The minimized :class:`~repro.replay.bundle.ReproBundle`
            (None when the input bundle did not reproduce at all).
        reproduced: The input bundle's baseline replay reproduced.
        verified: The minimized bundle strictly replayed (no fallback,
            no divergence) and reproduced the dedup key.
        original_ops / min_ops: Operation counts before/after.
        original_schedule / min_schedule: Decision counts before/after.
        tests: Candidate replays executed (the budget consumed).
        steps: Per-test journal: phase, candidate size, reproduced.
    """

    def __init__(self, original_ops, original_schedule):
        self.bundle = None
        self.reproduced = False
        self.verified = False
        self.original_ops = original_ops
        self.min_ops = original_ops
        self.original_schedule = original_schedule
        self.min_schedule = original_schedule
        self.tests = 0
        self.steps = []

    @property
    def op_reduction(self):
        """Fraction of operations removed (0.0 when nothing shrank)."""
        if self.original_ops <= 0:
            return 0.0
        return 1.0 - (self.min_ops / float(self.original_ops))

    def summary(self):
        return {
            "reproduced": self.reproduced,
            "verified": self.verified,
            "ops": "%d -> %d" % (self.original_ops, self.min_ops),
            "schedule": "%d -> %d" % (self.original_schedule,
                                      self.min_schedule),
            "op_reduction": round(self.op_reduction, 3),
            "tests": self.tests,
        }


class _Shrinker:
    """One shrink session: shared budget, validation cache, best state."""

    def __init__(self, bundle, budget, validation, require_bug,
                 tracer, metrics, carriers):
        self.bundle = bundle
        self.budget = budget
        self.validation = validation
        self.require_bug = require_bug
        self.tracer = tracer
        self.metrics = metrics
        self.carriers = carriers
        self.n_threads = len(bundle.ops)
        self.result = ShrinkResult(bundle.op_count, len(bundle.schedule))
        # Best reproducing candidate: (flat ops, schedule, ReplayRun).
        self.best = None
        self.exhausted = False

    # ------------------------------------------------------------------
    # the predicate

    def test(self, flat, schedule, phase):
        """Replay one candidate; True when the record still reproduces."""
        if self.result.tests >= self.budget:
            self.exhausted = True
            return False
        self.result.tests += 1
        if self.metrics is not None:
            self.metrics.counter("shrink.steps").inc()
        run = replay_campaign(self.bundle,
                              ops=_rebuild(flat, self.n_threads),
                              schedule=schedule, carriers=self.carriers)
        ok = run.error is None \
            and self.bundle.dedup_key in run.records
        if ok and self.require_bug:
            record = run.records[self.bundle.dedup_key]
            self.validation.enqueue(record)
            self.validation.drain()
            ok = record.verdict is Verdict.BUG
        if ok:
            self.best = (list(flat), list(schedule), run)
        self.result.steps.append({"phase": phase, "ops": len(flat),
                                  "schedule": len(schedule),
                                  "reproduced": ok})
        if self.tracer.enabled:
            self.tracer.emit("shrink_step", phase=phase, ops=len(flat),
                             schedule=len(schedule), reproduced=ok,
                             tests=self.result.tests)
        return ok

    # ------------------------------------------------------------------
    # ddmin

    def ddmin(self, items, test):
        """Classic ddmin over ``items``; returns the reduced list."""
        n = 2
        while len(items) >= 2 and not self.exhausted:
            chunk = -(-len(items) // n)  # ceil division
            reduced = False
            for index in range(n):
                if self.exhausted:
                    break
                complement = items[:index * chunk] \
                    + items[(index + 1) * chunk:]
                if not complement or len(complement) == len(items):
                    continue
                if test(complement):
                    items = complement
                    n = max(n - 1, 2)
                    reduced = True
                    break
            if not reduced:
                if n >= len(items):
                    break
                n = min(n * 2, len(items))
        return items


def shrink_bundle(bundle, budget=DEFAULT_BUDGET, validation=None,
                  tracer=None, metrics=None):
    """Minimize ``bundle`` with delta debugging; the ``repro shrink``
    entry point.

    Args:
        bundle: The :class:`~repro.replay.bundle.ReproBundle` to shrink.
        budget: Maximum candidate replays across both phases.
        validation: Optional :class:`~repro.detect.validation_service.
            ValidationQueue` reused (cache and all) across candidates;
            built on demand when the bundle's verdict is ``bug`` and
            none is supplied.
        tracer: Optional tracer (``shrink_step`` / ``shrink_done``).
        metrics: Optional metrics registry (``shrink.steps``,
            ``shrink.reduced_ops``, ``shrink.reduced_schedule``).

    Returns:
        A :class:`ShrinkResult`; ``result.bundle`` replays strictly.
        Every replay runs on one pool of carrier threads, closed before
        this returns.
    """
    with CarrierPool() as carriers:
        return _shrink(bundle, budget, validation, tracer, metrics,
                       carriers)


def _shrink(bundle, budget, validation, tracer, metrics, carriers):
    tracer = tracer if tracer is not None else NULL_TRACER
    require_bug = bundle.verdict == "bug"
    if require_bug and validation is None:
        from ..detect.validation_service import make_validation_queue
        validation = make_validation_queue(bundle.target, metrics=metrics)
    shrinker = _Shrinker(bundle, budget, validation, require_bug,
                         tracer, metrics, carriers)
    result = shrinker.result

    # Baseline: the bundle must reproduce before any cutting starts.
    flat = _flatten(bundle.ops)
    schedule = list(bundle.schedule)
    if not shrinker.test(flat, schedule, "baseline"):
        if tracer.enabled:
            tracer.emit("shrink_done", reproduced=False,
                        tests=result.tests)
        return result
    result.reproduced = True

    # Phase 1: ddmin the op sequence under the recorded schedule.
    flat = shrinker.ddmin(
        flat, lambda candidate: shrinker.test(candidate, schedule, "ops"))

    # Phase 2: ddmin the schedule decision vector. Start from the
    # decisions the best op-phase candidate *actually* consumed — the
    # recorded vector often over-covers a shorter run.
    schedule = list(shrinker.best[2].decisions)
    schedule = shrinker.ddmin(
        schedule, lambda candidate: shrinker.test(flat, candidate,
                                                  "schedule"))

    # Re-capture the winner: its journaled decisions and draws replay
    # strictly, so the minimized bundle is self-verifying.
    best_flat, _, best_run = shrinker.best
    minimized = bundle.with_updates(
        ops=_rebuild(best_flat, shrinker.n_threads),
        schedule=list(best_run.decisions),
        priv_draws=list(best_run.priv_draws),
        evict_draws=list(best_run.evict_draws),
        first_key=list(best_run.first_key)
        if best_run.first_key is not None else None,
        callsites=best_run.callsites.snapshot(),
        shrink={"original_ops": result.original_ops,
                "original_schedule": result.original_schedule,
                "tests": result.tests})
    result.bundle = minimized
    result.min_ops = minimized.op_count
    result.min_schedule = len(minimized.schedule)
    verify = replay_bundle(minimized, metrics=metrics, carriers=carriers)
    result.verified = verify.reproduced and verify.divergence is None
    if metrics is not None:
        metrics.counter("shrink.runs").inc()
        metrics.counter("shrink.reduced_ops").inc(
            result.original_ops - result.min_ops)
        metrics.counter("shrink.reduced_schedule").inc(
            max(0, result.original_schedule - result.min_schedule))
    if tracer.enabled:
        tracer.emit("shrink_done", reproduced=True,
                    verified=result.verified, tests=result.tests,
                    **{"ops": "%d->%d" % (result.original_ops,
                                          result.min_ops),
                       "schedule": "%d->%d" % (result.original_schedule,
                                               result.min_schedule)})
    return result
