"""Replay side: re-execute a bundle's campaign and check its identity.

:func:`replay_campaign` reconstructs everything
:func:`~repro.core.campaign.run_campaign` needs from a
:class:`~repro.replay.bundle.ReproBundle` — a fresh registry target and
state, a fresh call-site table with the bundle's sync-point sites and
skips re-interned, a :class:`~repro.runtime.policies.ReplayPolicy` over
the recorded decision vector, and :class:`~repro.replay.recorder.
ReplayRandom` streams for the privileged-election and eviction draws —
and runs one campaign under a plain scheduler driven by that policy.
The actual decisions and draws are re-journaled, so a
replay (or a shrink candidate) that reproduces can be saved as a new,
exactly-replayable bundle.

:func:`replay_bundle` wraps that into the ``repro replay`` verdict:
did the same record (by dedup key) appear, is the campaign's *first*
inconsistency identical, where did the schedule first diverge, and —
when validation is requested — what verdict does the re-detected record
earn through the cached validation service.
"""

import copy

from ..core.campaign import run_campaign
from ..core.checkpoints import make_state_provider
from ..core.priority import SharedAccessEntry
from ..core.seeding import policy_seed
from ..instrument.callsite import CallSiteTable
from ..obs.tracer import NULL_TRACER
from ..runtime.policies import (
    RecordingPolicy,
    ReplayPolicy,
    SeededRandomPolicy,
)
from ..targets.registry import make_target
from .bundle import ReproBundle, config_from_snapshot
from .recorder import ReplayRandom


class ReplayRun:
    """Raw outcome of re-executing one bundle campaign.

    Attributes:
        campaign: The :class:`~repro.core.campaign.CampaignResult`, or
            None when the run errored before completing.
        status: Scheduler outcome status ("ok", "hang", "budget") or
            "error" when a simulated thread raised.
        keys: Dedup keys of every detected record, detection order
            (inter/intra first, then sync).
        first_key: Dedup key of the first detected inconsistency.
        records: dedup key → record for re-validation.
        divergence: First schedule mismatch diagnostic, or None.
        decisions: The schedule actually driven (re-capture input).
        priv_draws / evict_draws: The RNG draws actually served.
        error: The exception a simulated thread raised, if any.
    """

    def __init__(self):
        self.campaign = None
        self.status = "error"
        self.keys = []
        self.first_key = None
        self.records = {}
        self.divergence = None
        self.decisions = []
        self.priv_draws = []
        self.evict_draws = []
        self.callsites = None
        self.error = None

    @property
    def faithful(self):
        """True when the schedule replayed without any divergence."""
        return self.divergence is None and self.error is None


def _reconstruct_entry(bundle, callsites):
    data = bundle.entry
    if data is None:
        return None
    return SharedAccessEntry(
        data["addr"],
        {callsites.intern_name(site) for site in data["loads"]},
        {callsites.intern_name(site) for site in data["stores"]},
        data["frequency"])


def replay_campaign(bundle, ops=None, schedule=None, metrics=None,
                    carriers=None):
    """Run one campaign reconstructed from ``bundle``.

    Args:
        bundle: The :class:`ReproBundle` to re-execute.
        ops: Override per-thread op lists (shrink candidates); defaults
            to the bundle's.
        schedule: Override decision vector (shrink candidates); defaults
            to the bundle's.
        metrics: Optional metrics registry threaded into the campaign.
        carriers: Optional :class:`~repro.runtime.scheduler.CarrierPool`
            shared by a caller's replays; a private one by default.

    Returns:
        A :class:`ReplayRun`. Replay never raises for in-simulation
        failures: a target exception surfaces as ``status == "error"``
        with the exception on ``run.error``.
    """
    config = config_from_snapshot(bundle.config)
    run = ReplayRun()
    target = make_target(bundle.target)
    provider = make_state_provider(target, config.use_checkpoints,
                                   eadr=config.eadr)
    state = provider.provide()
    callsites = CallSiteTable()
    entry = _reconstruct_entry(bundle, callsites)
    skips = {callsites.intern_name(site): count
             for site, count in bundle.skips.items()}
    fallback = SeededRandomPolicy(
        policy_seed(bundle.base_seed, bundle.campaign_index))
    policy = RecordingPolicy(ReplayPolicy(
        schedule if schedule is not None else bundle.schedule,
        fallback=fallback))
    priv_rng = ReplayRandom(bundle.priv_draws,
                            fallback_seed=bundle.base_seed + 1)
    evict_rng = ReplayRandom(bundle.evict_draws,
                             fallback_seed=bundle.base_seed + 2)
    priv_rng.begin_segment()
    evict_rng.begin_segment()
    campaign = run_campaign(
        target, state,
        copy.deepcopy(ops if ops is not None else bundle.ops),
        policy, config, entry=entry, rng=priv_rng, initial_skips=skips,
        metrics=metrics, callsites=callsites, evict_rng=evict_rng,
        carriers=carriers)
    run.campaign = campaign
    run.status = campaign.outcome.status
    run.error = campaign.outcome.error
    run.divergence = policy.divergence
    run.decisions = list(policy.decisions)
    run.priv_draws = priv_rng.end_segment()
    run.evict_draws = evict_rng.end_segment()
    run.callsites = callsites
    checker = campaign.checker
    for record in list(checker.inconsistencies) \
            + list(checker.sync_inconsistencies):
        key = record.dedup_key()
        run.keys.append(key)
        run.records.setdefault(key, record)
    if checker.inconsistencies:
        run.first_key = checker.inconsistencies[0].dedup_key()
    elif checker.sync_inconsistencies:
        run.first_key = checker.sync_inconsistencies[0].dedup_key()
    return run


class ReplayOutcome:
    """The ``repro replay`` verdict for one bundle."""

    def __init__(self, bundle, run):
        self.bundle = bundle
        self.run = run
        self.record = run.records.get(bundle.dedup_key)
        #: The bundled record re-appeared under replay.
        self.reproduced = self.record is not None
        #: The campaign's first inconsistency is the recorded one.
        self.first_match = run.first_key == bundle.first_key
        self.divergence = run.divergence
        #: Verdict of the re-detected record after validation, or None.
        self.verdict = None

    @property
    def ok(self):
        return self.reproduced and self.first_match \
            and self.divergence is None

    def describe(self):
        """Human-readable replay report lines."""
        lines = []
        lines.append("bundle    : %s %s" % (self.bundle.target,
                                            self.bundle.kind))
        lines.append("dedup key : %s" % (self.bundle.dedup_key,))
        lines.append("schedule  : %d decisions, %d ops"
                     % (len(self.bundle.schedule), self.bundle.op_count))
        lines.append("status    : %s" % self.run.status)
        lines.append("reproduced: %s" % ("yes" if self.reproduced
                                         else "NO"))
        lines.append("first-inconsistency match: %s"
                     % ("yes" if self.first_match else "NO (expected %s, "
                        "got %s)" % (self.bundle.first_key,
                                     self.run.first_key)))
        if self.divergence is not None:
            div = self.divergence
            lines.append(
                "DIVERGENCE at decision %d (scheduler step %d): "
                "expected tid %s, runnable %s (%s)"
                % (div["index"], div["step"], div["expected_tid"],
                   div["runnable_tids"], div["reason"]))
        else:
            lines.append("divergence: none (%d decisions driven, "
                         "%d recorded)" % (len(self.run.decisions),
                                           len(self.bundle.schedule)))
        if self.verdict is not None:
            lines.append("verdict   : %s" % self.verdict.value)
        if self.run.error is not None:
            lines.append("error     : %r" % self.run.error)
        return lines


def replay_bundle(bundle, validation=None, tracer=None, metrics=None,
                  carriers=None):
    """Replay ``bundle`` and assert its identity; the ``repro replay``
    entry point.

    Args:
        bundle: A :class:`ReproBundle` (or a path — strings are loaded).
        validation: Optional :class:`~repro.detect.validation_service.
            ValidationQueue`; when given and the record reproduces, it
            is validated and the outcome carries the verdict.
        tracer: Optional tracer (``replay_start`` / ``replay_end`` /
            ``replay_divergence`` events).
        metrics: Optional metrics registry (``replay.runs``,
            ``replay.reproduced``, ``replay.divergence`` counters).
        carriers: Optional :class:`~repro.runtime.scheduler.CarrierPool`
            to replay on.

    Returns:
        A :class:`ReplayOutcome`.
    """
    if isinstance(bundle, str):
        bundle = ReproBundle.load(bundle)
    tracer = tracer if tracer is not None else NULL_TRACER
    if tracer.enabled:
        tracer.emit("replay_start", target=bundle.target,
                    kind=bundle.kind, dedup_key=list(bundle.dedup_key),
                    schedule_len=len(bundle.schedule),
                    op_count=bundle.op_count)
    run = replay_campaign(bundle, metrics=metrics, carriers=carriers)
    outcome = ReplayOutcome(bundle, run)
    if validation is not None and outcome.record is not None:
        validation.enqueue(outcome.record)
        validation.drain()
        outcome.verdict = outcome.record.verdict
    if metrics is not None:
        metrics.counter("replay.runs").inc()
        if outcome.reproduced:
            metrics.counter("replay.reproduced").inc()
        if outcome.divergence is not None:
            metrics.counter("replay.divergence").inc()
    if outcome.divergence is not None and tracer.enabled:
        tracer.emit("replay_divergence", target=bundle.target,
                    **outcome.divergence)
    if tracer.enabled:
        tracer.emit("replay_end", target=bundle.target,
                    reproduced=outcome.reproduced,
                    first_match=outcome.first_match,
                    diverged=outcome.divergence is not None,
                    status=run.status,
                    verdict=outcome.verdict.value
                    if outcome.verdict is not None else None)
    return outcome
