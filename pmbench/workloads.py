"""The benchmark's four workloads and the numbers one run of each reports.

A run is a closed loop of *units* on one process: it starts unit after
unit until its measuring window has passed, and each unit runs to
completion, so every unit is deterministic in the workload seed.

* Fuzz workloads (``pclht``, ``memcached``, ``pmring``): a unit is one
  ``PMRace`` session of a fixed number of campaigns.  Session ``k`` of a
  run with seed ``S`` fuzzes base seed ``S + 6k``, so seed 7 starts with
  the bug-matrix pins 7 and 13.  An *exec* is one campaign.
* ``validate``: a unit is one pass over the checked-in fixture
  (:mod:`make_fixture`): a fresh cold-cache validation queue per target,
  the fixture's records enqueued in an order shuffled by
  ``Random(S + pass)``, then drained.  An *exec* is one pass: the
  replays alone fall into a fast and a slow cluster of nearly equal
  size, so their median sat in the gap and jumped between runs.

With tracing on, every unit runs twice, untraced and then traced, and
the two must produce identical fingerprints; per-layer numbers come from
the traced twins only.

End-to-end times are scaled to a reference host speed: an untraced
fuzzing session keeps a :class:`hostspeed.ScaledClock` that re-times the
reference loop between campaigns; a validate pass is short enough to
take the loops at its two ends.
"""

import hashlib
import os
import pickle
import random
import resource
import statistics
import threading
import time
import traceback

import repro.core.engine as engine
from repro.core.bugmatrix import RECORD_KINDS, bug_records
from repro.core.engine import PMRace, PMRaceConfig
from repro.core.results import expected_bugs_for, match_expected
from repro.detect.postfailure import PostFailureValidator
from repro.detect.records import Verdict
from repro.detect.validation_service import make_validation_queue
from repro.targets.registry import make_target

import hostspeed
import layertrace
from make_fixture import load_fixture

SEED_STRIDE = 6
#: Campaigns the untraced determinism re-check replays from session 0.
RECHECK_CAMPAIGNS = 3
#: Fixture loads per validate run; their median is the set-up time.
FIXTURE_LOADS = 3


class FuzzWorkload:
    """One target fuzzed in back-to-back sessions of ``campaigns``."""

    def __init__(self, target, campaigns, max_seeds):
        self.target = target
        self.campaigns = campaigns
        self.max_seeds = max_seeds


#: Sessions are as long as the fuzzer is run to find every catalogued
#: bug: P-CLHT and memcached-pmem at the bug-matrix pin (70 campaigns,
#: 16 seeds), so evolved seeds, the corpus and the priority queue get
#: the share of the work they get in use.
FUZZ_WORKLOADS = {
    # The paper's headline target: spin-heavy locks, sync-point stalls,
    # all five bug classes; scheduler handoff does the most work here.
    "pclht": FuzzWorkload("P-CLHT", campaigns=70, max_seeds=16),
    # Costliest step, most records, taint flows and annotations: detect
    # and taint do the most work; a 2 KiB pool makes crash images cheap.
    "memcached": FuzzWorkload("memcached-pmem", campaigns=70,
                               max_seeds=16),
    # Short campaigns: per-campaign fixed costs (thread start and join,
    # provide(), harvest, coverage merge, corpus) dominate.
    "pmring": FuzzWorkload("pmring", campaigns=400, max_seeds=60),
}
WORKLOADS = tuple(FUZZ_WORKLOADS) + ("validate",)


class Unit:
    """What one unit produced; small enough to keep for a whole run."""

    def __init__(self):
        #: Scaled times of every exec and of the set-up, and the scaled
        #: time the unit took (untraced units).
        self.exec_s = []
        self.setup_s = None
        self.busy_s = None
        #: Peak RSS of the process the unit ran in (untraced units).
        self.peak_rss_mb = None
        #: Unscaled time the unit took.
        self.wall_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.convicted = set()
        self.problems = []
        #: Campaign fingerprints (fuzz) or per-record verdicts (validate).
        self.fingerprint = ()
        #: Sorted (dedup key, verdict) of every kept record.
        self.verdicts = ()
        self.steps = 0
        self.campaigns = 0
        self.records = 0
        self.candidates = 0
        self.productive = 0
        self.coverage = 0
        self.cache_hits = 0
        self.cache_misses = 0


def campaign_fingerprint(campaign):
    """Steps, outcome, coverage and a digest of every record and
    candidate with its call sites and stacks: a wrapper that shifted the
    call-site frame walk changes the digest."""
    checker = campaign.checker
    lines = sorted(
        repr((r.dedup_key(), tuple(r.stack),
              tuple(getattr(getattr(r, "candidate", None), "stack", ()))))
        for r in checker.inconsistencies + checker.sync_inconsistencies)
    lines += [repr((c.read_instr, c.write_instr, tuple(c.stack)))
              for c in checker.candidates]
    digest = hashlib.sha1("\n".join(lines).encode()).hexdigest()[:16]
    return (campaign.outcome.status, campaign.outcome.steps,
            len(campaign.branch_edges), len(campaign.alias_pairs),
            len(checker.candidates),
            len(checker.inconsistencies) + len(checker.sync_inconsistencies),
            digest)


class _CampaignProbe:
    """Times every ``run_campaign`` call the engine makes and keeps its
    fingerprint; the campaign result itself (crash images included) is
    dropped.  Patches the engine module's name, restored on exit.

    Untraced, times go to ``clock``, which may re-time the reference
    loop before a campaign; traced, events go to ``timeline``."""

    def __init__(self, unit, timeline, clock):
        self.unit = unit
        self.timeline = timeline
        self.clock = clock
        self.fingerprints = []

    def __enter__(self):
        self._original = engine.run_campaign
        engine.run_campaign = self._run_campaign
        return self

    def __exit__(self, *exc):
        engine.run_campaign = self._original
        return False

    def _run_campaign(self, *args, **kwargs):
        clock = self.clock
        if clock is not None:
            if not self.fingerprints:
                clock.add("setup", time.perf_counter() - clock.start)
            clock.tick()
        start = time.perf_counter()
        campaign = self._original(*args, **kwargs)
        end = time.perf_counter()
        if self.timeline is not None:
            self.timeline.enter(layertrace.HARNESS)
        if clock is not None:
            clock.add("exec", end - start)
        unit = self.unit
        fingerprint = campaign_fingerprint(campaign)
        self.fingerprints.append(fingerprint)
        unit.steps += campaign.outcome.steps
        unit.candidates += fingerprint[4]
        unit.records += fingerprint[5]
        if campaign.outcome.status in ("error", "budget"):
            unit.failed += 1
        if self.timeline is not None:
            self.timeline.flush()
            self.timeline.exit()
        return campaign


def fuzz_session(spec, base_seed, campaigns, timeline=None):
    """One fuzzing session as a :class:`Unit`; untraced when no
    ``timeline`` is given."""
    unit = Unit()
    bugs = expected_bugs_for(spec.target)
    clock = hostspeed.ScaledClock() if timeline is None else None
    start = time.perf_counter()
    with _CampaignProbe(unit, timeline, clock) as probe:
        fuzzer = PMRace(make_target(spec.target), PMRaceConfig(
            max_campaigns=campaigns, max_seeds=spec.max_seeds,
            base_seed=base_seed))
        if clock is not None:
            result = fuzzer.run()
            clock.close()
        else:
            with layertrace.Patch(timeline):
                timeline.begin()
                result = fuzzer.run()
                timeline.finish()
    if clock is None:
        unit.wall_s = time.perf_counter() - start
    else:
        unit.wall_s = clock.raw_s
        unit.exec_s = clock.scaled["exec"]
        unit.setup_s, = clock.scaled["setup"]
        unit.busy_s = clock.busy_s
    unit.fingerprint = tuple(probe.fingerprints)
    kept = list(result.inconsistencies) + list(result.sync_inconsistencies)
    unit.verdicts = tuple(sorted((repr(r.dedup_key()), r.verdict.value)
                                 for r in kept))
    unit.campaigns = result.campaigns
    unit.attempted = result.campaigns + len(kept)
    unit.failed += sum(1 for r in kept if r.verdict is Verdict.PENDING)
    unit.convicted = {
        bug.bug_id for bug in bugs if match_expected(bug, result) and (
            bug.kind not in RECORD_KINDS or bug_records(result, bug))}
    previous = (0, 0)
    for _index, _elapsed, branch, alias in result.coverage_timeline:
        unit.productive += (branch, alias) != previous
        previous = (branch, alias)
    unit.coverage = sum(previous)
    unit.cache_hits = fuzzer.validation.cache_hits
    unit.cache_misses = fuzzer.validation.cache_misses
    return unit


class FuzzRunner:
    def __init__(self, name, campaigns=None):
        self.spec = FUZZ_WORKLOADS[name]
        self.campaigns = campaigns or self.spec.campaigns

    def unit(self, seed, index, timeline=None):
        unit = fuzz_session(self.spec, seed + SEED_STRIDE * index,
                            self.campaigns, timeline)
        if not unit.convicted:
            unit.problems.append("session %d convicted no catalogued bug"
                                 % (seed + SEED_STRIDE * index))
        return unit

    def plain_unit(self, seed, index):
        """An untraced session, run in its own forked child."""
        return in_child(lambda: self.unit(seed, index))

    def setup_seconds(self, units):
        """Scaled set-up time of every session."""
        return [unit.setup_s for unit in units]

    def recheck(self, seed, first):
        """Replay the first campaigns of session 0; they must match."""
        count = min(RECHECK_CAMPAIGNS, self.campaigns)
        again = fuzz_session(self.spec, seed, count)
        if again.fingerprint != first.fingerprint[:count]:
            return ["session %d is not deterministic: %r != %r" % (
                seed, again.fingerprint, first.fingerprint[:count])]
        return []


class _ReplayProbe:
    """Counts retried ``PostFailureValidator.replay`` calls; the class
    attribute is restored on exit."""

    def __init__(self, unit):
        self.unit = unit

    def __enter__(self):
        self._original = vars(PostFailureValidator)["replay"]
        original, unit = self._original, self.unit

        def replay(validator, image):
            result = original(validator, image)
            unit.failed += bool(result.retried)
            return result

        PostFailureValidator.replay = replay
        return self

    def __exit__(self, *exc):
        PostFailureValidator.replay = self._original
        return False


class ValidateRunner:
    def __init__(self):
        self.load_s = []
        for _ in range(FIXTURE_LOADS):
            self.entries, seconds = hostspeed.timed(load_fixture)
            self.load_s.append(seconds)
        self.targets = []
        self.expected = set()
        for doc, _record in self.entries:
            if doc["target"] not in self.targets:
                self.targets.append(doc["target"])
            if doc["verdict"] == Verdict.BUG.value:
                self.expected.update(doc["bugs"])

    def unit(self, seed, index, timeline=None):
        unit = Unit()
        order = list(range(len(self.entries)))
        random.Random(seed + index).shuffle(order)
        for _doc, record in self.entries:
            record.verdict, record.note = Verdict.PENDING, ""
        before = hostspeed.reference_s() if timeline is None else None
        start = time.perf_counter()
        with _ReplayProbe(unit):
            queues = {name: make_validation_queue(name)
                      for name in self.targets}
            for position in order:
                doc, record = self.entries[position]
                queues[doc["target"]].enqueue(record)
            if timeline is None:
                for queue in queues.values():
                    queue.drain()
            else:
                with layertrace.Patch(timeline):
                    timeline.begin()
                    for queue in queues.values():
                        queue.drain()
                    timeline.finish()
        unit.wall_s = time.perf_counter() - start
        if timeline is None:
            # A pass lasts about 0.1 s: one scale factor fits all of it.
            unit.busy_s = hostspeed.scaled(unit.wall_s, before,
                                           hostspeed.reference_s())
            unit.exec_s = [unit.busy_s]
        unit.attempted = len(self.entries)
        for doc, record in self.entries:
            unit.failed += record.verdict is Verdict.PENDING
            if record.verdict.value != doc["verdict"]:
                unit.problems.append("pass %d: %s record %s judged %s, "
                                     "pinned %s" % (
                                         index, doc["target"], doc["kind"],
                                         record.verdict.value,
                                         doc["verdict"]))
            if record.verdict is Verdict.BUG:
                unit.convicted.update(doc["bugs"])
        if unit.convicted != self.expected:
            unit.problems.append("pass %d: judged bugs %s, expected %s" % (
                index, sorted(unit.convicted), sorted(self.expected)))
        unit.fingerprint = tuple((record.verdict.value, record.note)
                                 for _doc, record in self.entries)
        unit.verdicts = unit.fingerprint
        for queue in queues.values():
            unit.cache_hits += queue.cache_hits
            unit.cache_misses += queue.cache_misses
        return unit

    def recheck(self, seed, first):
        return []

    def plain_unit(self, seed, index):
        """An untraced pass, in this process: the fixture it replays is
        fixed, so the process peak is the same for every pass."""
        unit = self.unit(seed, index)
        unit.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return unit

    def setup_seconds(self, units):
        """Scaled fixture load times (loaded when the run starts)."""
        return self.load_s


def in_child(fn):
    """``fn()`` run in a forked child; returns its result with the
    child's peak RSS in MB set as ``peak_rss_mb``.

    Each session then starts from the same small process, so its peak
    RSS is its own: in one long-lived process the peak is the heaviest
    session drawn so far plus what the allocator kept from earlier ones.
    No thread may be running, as a fork copies only the calling one.
    """
    if threading.active_count() != 1:
        raise RuntimeError("cannot fork with %d threads running"
                           % threading.active_count())
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = (True, fn())
            except Exception:
                payload = (False, traceback.format_exc())
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(payload, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _pid, status, usage = os.wait4(pid, 0)
    if status != 0 or not data:
        raise RuntimeError("unit child exited with status %d" % status)
    # Only this function's own child wrote these bytes.
    ok, result = pickle.loads(data)
    if not ok:
        raise RuntimeError("unit failed in its child:\n" + result)
    result.peak_rss_mb = usage.ru_maxrss / 1024.0
    return result


def make_runner(name, campaigns=None):
    if name == "validate":
        return ValidateRunner()
    return FuzzRunner(name, campaigns)


class RunReport:
    """Everything one run measured; :meth:`end_to_end` and
    :meth:`per_layer` turn it into named metric values."""

    def __init__(self, runner, plain, traced, import_s, problems,
                 timeline=None, calibration=None):
        self.runner = runner
        self.plain = plain
        self.traced = traced
        self.import_s = import_s
        self.problems = problems
        self.timeline = timeline
        self.calibration = calibration
        self.attempted = sum(u.attempted for u in plain + traced)
        self.failed = sum(u.failed for u in plain + traced)

    @property
    def correct(self):
        return not self.problems

    def end_to_end(self):
        """End-to-end metrics, times scaled to reference host speed."""
        execs = [seconds for unit in self.plain for seconds in unit.exec_s]
        busy = sum(unit.busy_s for unit in self.plain)
        setup = statistics.median(self.import_s) + statistics.median(
            self.runner.setup_seconds(self.plain))
        return {
            "execs_per_s": len(execs) / busy,
            "exec_ms.p50": statistics.median(execs) * 1e3,
            "exec_ms.p90": statistics.quantiles(execs, n=10)[-1] * 1e3,
            "setup_s": setup,
            "peak_rss_mb": statistics.mean(
                unit.peak_rss_mb for unit in self.plain),
            "bugs_per_session": statistics.mean(
                len(unit.convicted) for unit in self.plain),
        }

    def per_layer(self):
        timeline, units = self.timeline, self.traced
        callee_ns, caller_ns = self.calibration
        layers = layertrace.corrected_self_s(
            timeline, callee_ns, caller_ns)
        wall = timeline.wall_s
        steps = sum(u.steps for u in units)
        campaigns = sum(u.campaigns for u in units)
        calls = timeline.calls

        def ratio(numerator, denominator):
            return numerator / denominator if denominator else 0.0

        def per_step_us(*names):
            return ratio(sum(layers.get(n, 0.0) for n in names) * 1e6, steps)

        def per_call(name, scale):
            return ratio(layers.get(name, 0.0) * scale, calls[name])

        named = sum(seconds for layer, seconds in layers.items()
                    if layer not in (layertrace.RESIDUAL, layertrace.HARNESS))
        residual = layers.get(layertrace.RESIDUAL, 0.0)
        return {
            "scheduler.handoff_us_per_step": per_step_us(layertrace.HANDOFF),
            "scheduler.lifecycle_ms_per_campaign": ratio(
                layers.get(layertrace.LIFECYCLE, 0.0) * 1e3, campaigns),
            "scheduler.steps_per_campaign": ratio(steps, campaigns),
            "scheduler.spin_share": ratio(timeline.spin_steps, steps),
            "policies.pick_us_per_step": per_step_us("policies.pick"),
            "pmem.us_per_step": per_step_us(
                "pmem.ops", "pmem.crash_image", "pmem.checkpoint"),
            "pmem.ops_per_step": ratio(calls["pmem.ops"], steps),
            "pmem.crash_image_ms": per_call("pmem.crash_image", 1e3),
            "pmem.crash_images": ratio(calls["pmem.crash_image"], campaigns),
            "pmem.from_image_ms": per_call("pmem.from_image", 1e3),
            "callsite.us_per_step": per_step_us("callsite"),
            "context.dispatch_us_per_step": per_step_us("context.dispatch"),
            "taint.us_per_step": per_step_us("taint"),
            "detect.us_per_step": per_step_us("detect"),
            "detect.records_per_candidate": ratio(
                sum(u.records for u in units),
                sum(u.candidates for u in units)),
            "coverage.us_per_step": per_step_us("coverage.collect"),
            "coverage.merge_ms_per_campaign": ratio(
                layers.get("coverage.merge", 0.0) * 1e3, campaigns),
            "coverage.productive_share": ratio(
                sum(u.productive for u in units), campaigns),
            "coverage.edges_per_session": ratio(
                sum(u.coverage for u in units), len(units)),
            "priority.us_per_step": per_step_us("priority.profile"),
            "priority.queue_ms_per_seed": ratio(
                layers.get("priority.queue", 0.0) * 1e3, timeline.seeds),
            "syncpoints.us_per_step": per_step_us("syncpoints"),
            "syncpoints.stall_share": ratio(timeline.stall_spins, steps),
            "checkpoints.provide_ms": per_call("checkpoints.provide", 1e3),
            "engine.ms_per_campaign": ratio(
                layers.get(layertrace.ENGINE, 0.0) * 1e3, campaigns),
            "corpus.ms_per_seed": ratio(
                layers.get("corpus", 0.0) * 1e3, timeline.seeds),
            "validation.replay_ms": per_call("validation.replay", 1e3),
            "validation.digest_ms": per_call("validation.digest", 1e3),
            "validation.verdict_us": per_call("validation.verdict", 1e6),
            "validation.cache_hit_ratio": ratio(
                sum(u.cache_hits for u in units),
                sum(u.cache_hits + u.cache_misses for u in units)),
            "validation.retries": timeline.replay_retries,
            "validation.fuzz_share": ratio(
                timeline.drain_s, wall),
            "residual.us_per_step": per_step_us(layertrace.RESIDUAL),
            "trace.overhead_ratio": ratio(
                sum(u.wall_s for u in units),
                sum(u.wall_s for u in self.plain)),
            "trace.wrapper_ns": callee_ns + caller_ns,
            "trace.attributed_share": ratio(named, named + residual),
        }

    def layer_sum_error(self):
        """|sum of raw per-layer self time - traced wall| / traced wall."""
        timeline = self.timeline
        total = sum(timeline.self_s.values())
        return abs(total - timeline.wall_s) / timeline.wall_s


def run(name, seed, seconds, trace=False, units=None, campaigns=None,
        import_s=(0.0,)):
    """Run one workload; returns a :class:`RunReport`.

    Starts units until ``seconds`` have passed (at least one), or runs
    exactly ``units`` of them when given.  ``campaigns`` overrides the
    session size of a fuzz workload; ``import_s`` holds scaled import
    times of the program, which count towards set-up time.
    """
    runner = make_runner(name, campaigns)
    timeline = calibration = None
    if trace:
        calibration = layertrace.calibrate()
        timeline = layertrace.Timeline()
    plain, traced, problems = [], [], []
    start = time.perf_counter()
    while True:
        index = len(plain)
        for tracing in (False, True) if trace else (False,):
            unit = runner.unit(seed, index, timeline) if tracing \
                else runner.plain_unit(seed, index)
            problems.extend(unit.problems)
            (traced if tracing else plain).append(unit)
        if trace:
            for part in ("fingerprint", "verdicts"):
                if getattr(traced[-1], part) != getattr(plain[-1], part):
                    problems.append("unit %d: traced %s differ from "
                                    "untraced" % (index, part))
        done = len(plain) >= units if units is not None \
            else time.perf_counter() - start >= seconds
        if done:
            break
    if not trace:
        problems.extend(runner.recheck(seed, plain[0]))
    report = RunReport(runner, plain, traced, import_s, problems,
                       timeline, calibration)
    if trace and report.layer_sum_error() > 0.01:
        problems.append("layers sum to %.4f of traced wall time" % (
            1 - report.layer_sum_error()))
    return report
