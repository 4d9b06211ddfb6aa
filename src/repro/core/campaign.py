"""One fuzz campaign: a single scheduled execution plus its checkers.

A campaign wires a target instance, a seed's per-thread operation lists,
the active scheduling policy, and (optionally) a sync-point controller
into one deterministic run, and collects everything the engine needs as
feedback: coverage and the shared-access profile, folded from the
campaign's access trace once the run is over, and detected
inconsistencies.
"""

from ..detect.checkers import InconsistencyChecker
from ..instrument.context import InstrumentationContext
from ..instrument.hooks import PmView
from ..runtime.scheduler import Scheduler
from .coverage import FeedbackCollector
from .syncpoints import SyncPointController


class CampaignResult:
    """Everything observed during one campaign."""

    def __init__(self, outcome, checker, branch_edges, alias_pairs,
                 profiler, controller, op_errors):
        self.outcome = outcome
        self.checker = checker
        self.branch_edges = branch_edges
        self.alias_pairs = alias_pairs
        self.profiler = profiler
        self.controller = controller
        self.op_errors = op_errors

    @property
    def hang(self):
        return self.outcome.status in ("hang", "budget")

    def __repr__(self):
        return ("<CampaignResult %s cand=%d inc=%d sync=%d>"
                % (self.outcome.status, len(self.checker.candidates),
                   len(self.checker.inconsistencies),
                   len(self.checker.sync_inconsistencies)))


def run_campaign(target, state, seed_threads, policy, config, entry=None,
                 rng=None, initial_skips=None, extra_observers=(),
                 metrics=None, callsites=None, evict_rng=None, carriers=None):
    """Execute one campaign; returns a :class:`CampaignResult`.

    Args:
        target: The :class:`~repro.targets.base.Target`.
        state: An initialized (fresh or checkpoint-restored) TargetState.
        seed_threads: List of per-thread operation lists.
        policy: Scheduling policy instance (already seeded).
        config: The :class:`~repro.core.config.PMRaceConfig` whose
            execution settings the campaign runs with (taint, crash
            images, eviction, the sync-point writer stall, the step
            budget and the hang threshold).
        entry: Optional SharedAccessEntry enabling sync-point scheduling:
            *interned* instruction ids from the run's CallSiteTable,
            grouped from earlier campaigns' shared-access profile. The
            controller stalls loads at its load sites until one of its
            store sites (or a store to ``entry.addr``) fires.
        rng: RNG for privileged-thread selection.
        initial_skips: Carried-over cond_wait skip counts (Pitfall 3).
        metrics: Optional :class:`~repro.obs.metrics.Metrics` registry
            wired into the PM access hooks and the scheduler.
        callsites, carriers: The run-wide :class:`~repro.instrument.
            callsite.CallSiteTable` and :class:`~repro.runtime.scheduler.
            CarrierPool`; standalone campaigns get private ones.
        evict_rng: Campaign RNG for the eviction sampling
            ``config.evict_fraction`` asks for (from the engine so
            eviction patterns follow the campaign seed).
    """
    ctx = InstrumentationContext(annotations=state.annotations,
                                 taint_enabled=config.taint_enabled,
                                 metrics=metrics, callsites=callsites,
                                 trace=[])
    checker = ctx.add_observer(InconsistencyChecker(
        state.pool, snapshot_images=config.snapshot_images,
        callsites=ctx.callsites, evict_fraction=config.evict_fraction,
        evict_rng=evict_rng))
    for observer in extra_observers:
        ctx.add_observer(observer)
    scheduler = Scheduler(policy, max_steps=config.max_steps,
                          spin_hang_limit=config.spin_hang_limit,
                          metrics=metrics, carriers=carriers)
    view = PmView(state.pool, scheduler, ctx)
    controller = None
    if entry is not None:
        controller = SyncPointController(
            entry, scheduler, rng=rng, writer_waiting=config.writer_waiting,
            initial_skips=initial_skips, callsites=ctx.callsites)
        ctx.controller = controller
    instance = target.open(state, view, scheduler)
    op_errors = [0]

    def make_worker(ops):
        def worker():
            for op in ops:
                # Record stacks name this line: keep it at line 100.
                status = target.exec_op(instance, view, op)
                if status is False:
                    op_errors[0] += 1
        return worker

    for tid, ops in enumerate(seed_threads):
        scheduler.spawn(make_worker(ops), "worker-%d" % tid)
    outcome = scheduler.run()
    feedback = FeedbackCollector()
    feedback.on_trace(ctx.trace)
    if metrics is not None:
        metrics.counter("callsite.stack_walks").inc(checker.stack_walks)
        metrics.counter("detect.records_minted").inc(
            len(checker.candidates) + len(checker.inconsistencies)
            + len(checker.sync_inconsistencies))
    return CampaignResult(outcome, checker, feedback.edges, feedback.pairs,
                          feedback, controller, op_errors[0])
