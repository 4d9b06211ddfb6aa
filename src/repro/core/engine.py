"""PMRace engine: PM-aware coverage-guided fuzzing (§4).

The engine drives the three exploration tiers of §4.2.3 over one target:

* **Execution tier** — each interleaving choice is executed several times
  (different scheduler seeds) before moving on.
* **Interleaving tier** — when executions stop improving coverage, the
  next entry from the shared-access priority queue becomes the new set of
  sync points for the Figure-6 controller.
* **Seed tier** — when no interleaving of the current seed improves
  coverage, the operation mutator evolves the corpus and the priority
  queue is reconstructed.

Feedback is branch (edge) coverage plus PM alias pair coverage; every new
unique inconsistency goes straight through post-failure validation so the
run result carries final verdicts.
"""

import random
import time

from ..detect.dedup import group_bugs
from ..detect.postfailure import PostFailureValidator
from ..detect.records import Verdict
from ..detect.validation_service import ValidationQueue, fresh_target_factory
from ..detect.whitelist import Whitelist
from ..instrument.callsite import CallSiteTable
from ..obs.tracer import NULL_TRACER
from ..runtime.policies import DelayInjectionPolicy, SeededRandomPolicy
from .campaign import run_campaign
from .checkpoints import make_state_provider
from .corpus import Corpus
from .coverage import CoverageSet
from .inputgen import OperationMutator
from .priority import SharedAccessQueue
from .seeding import policy_seed


def _trace_fields(record):
    """``inconsistency`` trace event fields for a kept record."""
    if record.kind == "sync":
        return dict(kind="sync", annotation=record.annotation_name,
                    addr=record.addr)
    return dict(kind=record.kind, read_code=record.read_instr,
                write_code=record.write_instr,
                side_effect_addr=record.side_effect_addr)


class PMRaceConfig:
    """Tunables for one fuzzing run. Defaults follow §6.1 where sensible.

    Attributes:
        mode: "pmrace" (sync-point guided), "delay" (random delay
            injection baseline), or "random" (plain random scheduler).
        n_threads: Worker threads per campaign (4 in the paper).
        enable_interleaving_tier / enable_seed_tier: Figure 9 ablations.
        coverage_feedback: "both", "branch", or "alias" — which metrics
            count as progress (alias-coverage ablation).
    """

    def __init__(self, mode="pmrace", n_threads=4, ops_per_thread=6,
                 max_campaigns=120, execs_per_interleaving=2,
                 max_interleavings_per_seed=8, max_seeds=40,
                 use_checkpoints=None, enable_interleaving_tier=True,
                 enable_seed_tier=True, taint_enabled=True,
                 snapshot_images=True, capture_stacks=True, validate=True,
                 writer_waiting=150, max_steps=30_000, spin_hang_limit=400,
                 coverage_feedback="both", base_seed=0, whitelist=None,
                 eadr=False, evict_fraction=0.0, capture_repro=False,
                 corpus_dir=None, initial_corpus=None, target_modules=()):
        self.mode = mode
        self.n_threads = n_threads
        self.ops_per_thread = ops_per_thread
        self.max_campaigns = max_campaigns
        self.execs_per_interleaving = execs_per_interleaving
        self.max_interleavings_per_seed = max_interleavings_per_seed
        self.max_seeds = max_seeds
        self.use_checkpoints = use_checkpoints
        self.enable_interleaving_tier = enable_interleaving_tier
        self.enable_seed_tier = enable_seed_tier
        self.taint_enabled = taint_enabled
        self.snapshot_images = snapshot_images
        self.capture_stacks = capture_stacks
        self.validate = validate
        self.writer_waiting = writer_waiting
        self.max_steps = max_steps
        self.spin_hang_limit = spin_hang_limit
        self.coverage_feedback = coverage_feedback
        self.base_seed = base_seed
        self.whitelist = whitelist
        #: Simulate an eADR platform (persistent caches, §6.6).
        self.eadr = eadr
        #: Per-line probability that a DIRTY line was evicted by the
        #: hardware before a crash point (arbitrary cache eviction,
        #: §2.1); sampled with a campaign RNG derived from ``base_seed``
        #: so eviction patterns vary across campaigns and seeds.
        self.evict_fraction = evict_fraction
        #: Record a deterministic repro bundle (schedule decision vector,
        #: RNG draw journals, op lists — :mod:`repro.replay`) for every
        #: kept inconsistency record. Off by default: capture costs one
        #: policy wrapper plus per-campaign journaling.
        self.capture_repro = capture_repro
        #: Optional on-disk corpus directory (one versioned JSON file per
        #: retained seed, written atomically): loaded on start, so a
        #: killed run resumes with its retained corpus.
        self.corpus_dir = corpus_dir
        #: Exported corpus entries (``RunResult.corpus_seeds`` shape) to
        #: adopt before fuzzing — how the parallel service re-seeds a
        #: retried worker from the already-merged shared corpus.
        self.initial_corpus = initial_corpus
        #: Plugin modules (``--target-module`` specs) to import before
        #: resolving targets by name. Carried in the config so worker
        #: *processes* (parallel fuzzing, ``validate --jobs``) can
        #: re-register dynamically loaded targets in their own
        #: interpreter before ``make_target`` runs.
        self.target_modules = tuple(target_modules)


class HangRecord:
    """A pre-failure hang not caused by sync-point stalls (e.g. a missing
    unlock — a conventional DRAM concurrency bug, Table 2's bug 5)."""

    def __init__(self, blocked, seed_id):
        self.blocked = list(blocked)
        self.seed_id = seed_id
        self.kind = "hang"

    def signature(self):
        return frozenset(reason for _, reason in self.blocked
                         if reason is not None)

    def __repr__(self):
        return "<HangRecord %s>" % (sorted(self.signature()),)


class RunResult:
    """Aggregated outcome of one fuzzing run on one target."""

    def __init__(self, target_name, config):
        self.target_name = target_name
        self.config = config
        self.campaigns = 0
        self.duration = 0.0
        self.candidates = []
        self.inconsistencies = []
        self.sync_inconsistencies = []
        self.hangs = []
        self.coverage_timeline = []
        self.inter_hit_times = []
        self.first_inter_time = None
        self.first_candidate_time = None
        self.op_errors = 0
        self.annotation_count = 0
        self.bug_reports = []
        #: Per-worker statistics attached by the parallel service
        #: (:mod:`repro.core.parallel`); empty for single-session runs.
        self.worker_stats = []
        #: Exported retained corpus (plain-JSON ``SeedEntry`` documents,
        #: :meth:`repro.core.corpus.Corpus.export`); :meth:`merge` folds
        #: sessions together by content digest so the parallel service
        #: can re-seed retried workers from the shared corpus.
        self.corpus_seeds = []
        #: PENDING records upgraded during :meth:`merge` by adopting a
        #: dedup-equal duplicate's verdict (cross-session re-validation).
        self.verdict_upgrades = 0
        #: Signal number when a durable-session run was stopped by
        #: SIGINT/SIGTERM (None for a run that completed normally).
        self.interrupted = None
        self._candidate_keys = set()
        # Key → record maps (not plain sets): merge and the PENDING
        # upgrade path both need the surviving record for a dedup key.
        self._inconsistency_keys = {}
        self._sync_keys = {}
        self._hang_signatures = set()

    # ------------------------------------------------------------------
    # accounting views

    @property
    def inter_candidates(self):
        return [c for c in self.candidates if c.cross_thread]

    @property
    def inter_inconsistencies(self):
        return [r for r in self.inconsistencies if r.kind == "inter"]

    @property
    def intra_inconsistencies(self):
        return [r for r in self.inconsistencies if r.kind == "intra"]

    def by_verdict(self, records, verdict):
        return [r for r in records if r.verdict is verdict]

    @property
    def executions_per_second(self):
        if self.duration <= 0:
            return 0.0
        return self.campaigns / self.duration

    def merge(self, other):
        """Fold another run's findings in (multiple sessions ≈ more
        fuzzing time); bug reports are regrouped afterwards."""
        for candidate in other.candidates:
            key = candidate.dedup_key()
            if key not in self._candidate_keys:
                self._candidate_keys.add(key)
                self.candidates.append(candidate)
        for records, (kept, known) in zip(
                (other.inconsistencies, other.sync_inconsistencies),
                self._record_tables()):
            for record in records:
                key = record.dedup_key()
                if key not in known:
                    known[key] = record
                    kept.append(record)
                else:
                    self._upgrade_verdict(known[key], record)
        for hang in other.hangs:
            signature = hang.signature()
            if signature not in self._hang_signatures:
                self._hang_signatures.add(signature)
                self.hangs.append(hang)
        offset_c = self.campaigns
        offset_t = self.duration
        for campaign, elapsed, branch, alias in other.coverage_timeline:
            self.coverage_timeline.append(
                (campaign + offset_c, elapsed + offset_t, branch, alias))
        self.inter_hit_times.extend(
            (t + offset_t, n) for t, n in other.inter_hit_times)
        if other.first_inter_time is not None and self.first_inter_time \
                is None:
            self.first_inter_time = other.first_inter_time + offset_t
        if other.first_candidate_time is not None and \
                self.first_candidate_time is None:
            self.first_candidate_time = other.first_candidate_time + offset_t
        known = {entry["digest"]: entry for entry in self.corpus_seeds}
        for entry in other.corpus_seeds:
            kept = known.get(entry["digest"])
            if kept is None:
                # A private copy: the stats summing below must never
                # write through into the merged-in result.
                kept = dict(entry, stats=dict(entry["stats"]))
                known[entry["digest"]] = kept
                self.corpus_seeds.append(kept)
            else:
                # Same input retained by several sessions: one document
                # survives, carrying the summed scheduling statistics.
                for field in ("picks", "campaigns", "new_branch",
                              "new_alias", "inconsistencies"):
                    kept["stats"][field] += entry["stats"][field]
        self.campaigns += other.campaigns
        self.duration += other.duration
        self.worker_stats.extend(other.worker_stats)
        self.op_errors += other.op_errors
        self.annotation_count = max(self.annotation_count,
                                    other.annotation_count)
        self.verdict_upgrades += other.verdict_upgrades
        self._regroup()
        return self

    def _record_tables(self):
        """(kept records, dedup key → record) for inconsistencies, then
        sync inconsistencies — the order every fold walks them in."""
        return ((self.inconsistencies, self._inconsistency_keys),
                (self.sync_inconsistencies, self._sync_keys))

    def _upgrade_verdict(self, kept, duplicate):
        """Adopt a dedup-equal duplicate's judgement when the kept record
        never got one: a session whose first occurrence carried no crash
        image stamps PENDING, and another session's duplicate — validated
        with an image — settles the verdict."""
        # Repro bundles ride the same adoption rule as crash images: a
        # duplicate captured with a bundle makes a bundle-less kept
        # record replayable (the bundles reproduce the same dedup key).
        if getattr(kept, "bundle", None) is None and \
                getattr(duplicate, "bundle", None) is not None:
            kept.bundle = duplicate.bundle
        if kept.verdict is Verdict.PENDING:
            if duplicate.verdict is not Verdict.PENDING:
                kept.verdict = duplicate.verdict
                kept.note = duplicate.note
                if kept.crash_image is None:
                    kept.crash_image = duplicate.crash_image
                self.verdict_upgrades += 1
            elif kept.crash_image is None and \
                    duplicate.crash_image is not None:
                # Neither side was judged, but the duplicate carries an
                # image a later validation pass can replay.
                kept.crash_image = duplicate.crash_image

    def _regroup(self):
        bug_records = [r for r in self.inconsistencies
                       if r.verdict is Verdict.BUG]
        bug_records += [r for r in self.sync_inconsistencies
                        if r.verdict is Verdict.BUG]
        self.bug_reports = group_bugs(self.target_name, bug_records)
        from ..detect.records import BugReport
        for hang in self.hangs:
            self.bug_reports.append(BugReport(
                len(self.bug_reports) + 1, self.target_name, "hang",
                None, None,
                "threads blocked forever on %s (missing unlock or "
                "lost wake-up)" % sorted(hang.signature()),
                [hang]))

    def summary(self):
        return {
            "target": self.target_name,
            "campaigns": self.campaigns,
            "inter_candidates": len(self.inter_candidates),
            "inter": len(self.inter_inconsistencies),
            "intra": len(self.intra_inconsistencies),
            "sync": len(self.sync_inconsistencies),
            "inter_validated_fp": len(self.by_verdict(
                self.inter_inconsistencies, Verdict.VALIDATED_FP)),
            "inter_whitelisted_fp": len(self.by_verdict(
                self.inter_inconsistencies, Verdict.WHITELISTED_FP)),
            "sync_validated_fp": len(self.by_verdict(
                self.sync_inconsistencies, Verdict.VALIDATED_FP)),
            "bugs": len(self.bug_reports),
            "hangs": len(self.hangs),
            "annotations": self.annotation_count,
            "verdict_upgrades": self.verdict_upgrades,
            "corpus_seeds": len(self.corpus_seeds),
        }


class PMRace:
    """The fuzzer facade: ``PMRace(target, config).run()``.

    Args:
        target: The :class:`~repro.targets.base.Target` to fuzz.
        config: A :class:`PMRaceConfig`.
        tracer: Optional :class:`~repro.obs.tracer.Tracer`; defaults to
            the shared null tracer (no records, near-zero cost).
        metrics: Optional :class:`~repro.obs.metrics.Metrics` registry
            threaded into every hot path of the run.
    """

    def __init__(self, target, config=None, tracer=None, metrics=None):
        self.target = target
        self.config = config or PMRaceConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.whitelist = self.config.whitelist or Whitelist()
        # Replay recovery on a *fresh* target instance, never the live
        # fuzzing one: a target whose recover() keeps instance state
        # would otherwise contaminate both the ongoing run and every
        # later replay.
        self.validator = PostFailureValidator(
            fresh_target_factory(target), self.whitelist,
            tracer=self.tracer, metrics=self.metrics)
        self.validation = ValidationQueue(self.validator,
                                          tracer=self.tracer,
                                          metrics=self.metrics)

    # ------------------------------------------------------------------

    def _make_policy(self, campaign_index):
        seed = policy_seed(self.config.base_seed, campaign_index)
        if self.config.mode == "delay":
            return DelayInjectionPolicy(seed)
        return SeededRandomPolicy(seed)

    def _progress(self, new_branch, new_alias):
        feedback = self.config.coverage_feedback
        if feedback == "branch":
            return new_branch > 0
        if feedback == "alias":
            return new_alias > 0
        return new_branch > 0 or new_alias > 0

    # ------------------------------------------------------------------

    def run(self):
        """Execute the fuzzing loop; returns a :class:`RunResult`."""
        cfg = self.config
        self._result = result = RunResult(self.target.NAME, cfg)
        self._provider = make_state_provider(self.target, cfg.use_checkpoints,
                                             eadr=cfg.eadr)
        mutator = OperationMutator(self.target.operation_space(),
                                   cfg.n_threads, cfg.ops_per_thread,
                                   rng=random.Random(cfg.base_seed))
        # Capture mode journals the draws each campaign consumes (the
        # streams span campaigns, so replaying campaign N needs its draws,
        # not the seed). Eviction sampling gets its own stream so it never
        # perturbs the privileged-election or mutation draws.
        rng_class = random.Random
        if cfg.capture_repro:
            from ..replay import RecordingRandom as rng_class
        self._priv_rng = rng_class(cfg.base_seed + 1)
        self._evict_rng = rng_class(cfg.base_seed + 2)
        # One interning table per run: skips, coverage, and the priority
        # queue compare call-site ids across campaigns.
        self._callsites = CallSiteTable()
        # Seed-tier corpus: persisted seeds (resume) come first; the
        # deterministic populate/initial seeds are always regenerated (so
        # the mutator RNG stream never depends on a resume) and dedup.
        corpus = self._corpus = Corpus(
            persist_dir=cfg.corpus_dir, metrics=self.metrics,
            tracer=self.tracer)
        corpus.load()
        corpus.add_initial(mutator.populate_seed())
        corpus.add_initial(mutator.initial_seed())
        for exported in cfg.initial_corpus or ():
            corpus.add_exported(exported)
        self._branch_cov = CoverageSet(self.metrics, "coverage.branch")
        self._alias_cov = CoverageSet(self.metrics, "coverage.alias")
        self._campaign_counter = None if self.metrics is None else \
            self.metrics.counter("engine.campaigns")
        self._skips = {}
        self._start = time.monotonic()
        self.tracer.emit(
            "run_start", target=self.target.NAME, mode=cfg.mode,
            base_seed=cfg.base_seed, n_threads=cfg.n_threads,
            max_campaigns=cfg.max_campaigns,
            coverage_feedback=cfg.coverage_feedback, eadr=cfg.eadr)
        seed_index = 0
        while seed_index < cfg.max_seeds and not self._out_of_budget():
            corpus_entry, evolved = corpus.next_entry(mutator, seed_index)
            self._fuzz_seed(corpus_entry, evolved, seed_index)
            # Seed-tier ablation: loop on the first seed only.
            seed_index = seed_index + 1 if cfg.enable_seed_tier else 0
        self._drain_validation()
        result.corpus_seeds = corpus.export()
        result.duration = time.monotonic() - self._start
        self._finalize(result)
        self.tracer.emit("run_end", target=self.target.NAME,
                         duration_s=round(result.duration, 6),
                         summary=result.summary())
        return result

    def _out_of_budget(self):
        return self._result.campaigns >= self.config.max_campaigns

    def _fuzz_seed(self, corpus_entry, evolved, seed_index):
        """Seed tier: explore one seed's interleavings, validate what
        they found, and credit the seed in the corpus."""
        cfg = self.config
        result = self._result
        seed = corpus_entry.seed
        self.tracer.emit("seed_start", seed_index=seed_index,
                         seed_id=seed.seed_id)
        # Seed tier: reconstruct the priority queue per seed.
        queue = SharedAccessQueue(self.metrics)
        seed_skips = self._skips.setdefault(seed.seed_id, {})
        campaigns_before = result.campaigns
        records_before = len(result.inconsistencies) \
            + len(result.sync_inconsistencies)
        progress = False
        gained_branch = gained_alias = 0
        guided = cfg.mode == "pmrace" and cfg.enable_interleaving_tier
        rounds = cfg.max_interleavings_per_seed if guided else 1
        for round_index in range(rounds + 1):
            if self._out_of_budget():
                break
            entry = None
            if guided and round_index > 0:
                entry = queue.fetch()
                if entry is None:
                    break
                if self.tracer.enabled:
                    self.tracer.emit(
                        "interleaving", seed_id=seed.seed_id,
                        round=round_index, addr=entry.addr,
                        loads=len(entry.load_instrs),
                        stores=len(entry.store_instrs),
                        frequency=entry.frequency)
            round_progress, branch, alias = self._run_round(
                seed, entry, queue, seed_skips, round_index)
            progress = progress or round_progress
            gained_branch += branch
            gained_alias += alias
        # Deferred validation: replay the seed's new crash images now,
        # off the campaign hot path (cache makes the work proportional
        # to unique images, not records).
        self._drain_validation()
        self._corpus.account(
            corpus_entry, result.campaigns - campaigns_before,
            gained_branch, gained_alias,
            len(result.inconsistencies) + len(result.sync_inconsistencies)
            - records_before)
        if evolved and cfg.enable_seed_tier:
            # Seed tier: keep an evolved seed only while productive.
            # Settling is restricted to *evolved* entries, so the pinned
            # initial seeds never leave the corpus.
            self._corpus.settle(corpus_entry, progress)

    def _run_round(self, seed, entry, queue, seed_skips, round_index):
        """Execution tier: run one interleaving choice up to
        ``execs_per_interleaving`` times; returns (progress, new branch,
        new alias) summed over its executions."""
        progress = False
        gained_branch = gained_alias = 0
        for _ in range(self.config.execs_per_interleaving):
            if self._out_of_budget():
                break
            new_branch, new_alias = self._run_one_campaign(
                seed, entry, queue, seed_skips)
            gained_branch += new_branch
            gained_alias += new_alias
            if self._progress(new_branch, new_alias):
                progress = True
            elif round_index > 0:
                # Execution-tier cutoff: a guided interleaving whose
                # latest execution added no coverage stops burning its
                # remaining execution budget; the next queue entry
                # becomes the new sync points.
                break
        return progress, gained_branch, gained_alias

    def _run_one_campaign(self, seed, entry, queue, seed_skips):
        """Run one campaign and fold its feedback into the run; returns
        the (new branch, new alias) coverage it added."""
        cfg = self.config
        result = self._result
        state = self._provider.provide()
        result.annotation_count = max(result.annotation_count,
                                      state.annotations.annotation_count)
        policy = self._make_policy(result.campaigns)
        capture = None
        if cfg.capture_repro:
            from ..replay import CampaignCapture
            from ..runtime.policies import RecordingPolicy
            capture = CampaignCapture(
                self.target.NAME, cfg, cfg.base_seed, result.campaigns,
                seed.threads, entry, dict(seed_skips))
            policy = RecordingPolicy(policy)
            self._priv_rng.begin_segment()
            self._evict_rng.begin_segment()
        # Looked up through the module global on every call so a
        # harness can wrap ``engine.run_campaign``.
        campaign = run_campaign(
            self.target, state, seed.threads, policy, entry=entry,
            rng=self._priv_rng, initial_skips=dict(seed_skips),
            writer_waiting=cfg.writer_waiting,
            taint_enabled=cfg.taint_enabled,
            snapshot_images=cfg.snapshot_images,
            capture_stacks=cfg.capture_stacks, max_steps=cfg.max_steps,
            spin_hang_limit=cfg.spin_hang_limit, metrics=self.metrics,
            callsites=self._callsites,
            evict_fraction=cfg.evict_fraction,
            evict_rng=self._evict_rng)
        result.campaigns += 1
        if self._campaign_counter is not None:
            self._campaign_counter.inc()
        elapsed = time.monotonic() - self._start
        if capture is not None:
            checker = campaign.checker
            first = checker.inconsistencies or checker.sync_inconsistencies
            capture.finish(policy.decisions, self._priv_rng.end_segment(),
                           self._evict_rng.end_segment(), self._callsites,
                           first_key=first[0].dedup_key() if first else None)
        if campaign.outcome.status == "error":
            raise campaign.outcome.error
        new_branch = self._branch_cov.merge(campaign.branch_edges)
        new_alias = self._alias_cov.merge(campaign.alias_pairs)
        result.coverage_timeline.append(
            (result.campaigns, elapsed, len(self._branch_cov),
             len(self._alias_cov)))
        queue.update_from(campaign.profiler)
        if campaign.controller is not None:
            for instr, skip in campaign.controller.updated_skips.items():
                seed_skips[instr] = seed_skips.get(instr, 0) + skip
        self._harvest(result, campaign, seed, elapsed, capture=capture)
        if self.tracer.enabled:
            self.tracer.emit("campaign", index=result.campaigns,
                             status=campaign.outcome.status,
                             steps=campaign.outcome.steps,
                             new_branch=new_branch, new_alias=new_alias,
                             branch_total=len(self._branch_cov),
                             alias_total=len(self._alias_cov))
        return new_branch, new_alias

    # ------------------------------------------------------------------

    def _drain_validation(self):
        """Validate every record queued since the last drain."""
        if not self.config.validate or not self.validation:
            return
        self.validation.drain()

    def _harvest(self, result, campaign, seed, elapsed, capture=None):
        checker = campaign.checker
        tracer = self.tracer
        metrics = self.metrics
        result.op_errors += campaign.op_errors
        for candidate in checker.candidates:
            key = candidate.dedup_key()
            if key not in result._candidate_keys:
                result._candidate_keys.add(key)
                result.candidates.append(candidate)
                if result.first_candidate_time is None:
                    result.first_candidate_time = elapsed
                if metrics is not None:
                    metrics.counter("detect.candidates").inc()
                if tracer.enabled:
                    tracer.emit("candidate", kind=candidate.kind,
                                addr=candidate.addr,
                                read_code=candidate.read_instr,
                                write_code=candidate.write_instr)
        inter_found = 0
        for records, (kept, known) in zip(
                (checker.inconsistencies, checker.sync_inconsistencies),
                result._record_tables()):
            for record in records:
                key = record.dedup_key()
                if record.kind == "inter":
                    inter_found += 1
                if key in known:
                    # Dedup-equal duplicate: its crash image may settle a
                    # kept record that arrived imageless, and its
                    # campaign's bundle can make a bundle-less kept
                    # record replayable.
                    self.validation.offer_image(key, record.crash_image)
                    if capture is not None and known[key].bundle is None:
                        known[key].bundle = capture.bundle_for(known[key])
                    continue
                known[key] = record
                kept.append(record)
                if capture is not None:
                    record.bundle = capture.bundle_for(record)
                if metrics is not None:
                    metrics.counter("detect.inconsistencies.%s"
                                    % record.kind).inc()
                if tracer.enabled:
                    tracer.emit("inconsistency", **_trace_fields(record))
                if self.config.validate:
                    self.validation.enqueue(record)
                else:
                    self.validation.register(record)
                if record.kind == "inter" and \
                        result.first_inter_time is None:
                    result.first_inter_time = elapsed
        if inter_found:
            result.inter_hit_times.append((elapsed, inter_found))
        if campaign.outcome.status == "hang":
            hang = HangRecord(campaign.outcome.blocked, seed.seed_id)
            signature = hang.signature()
            sync_stall = all(reason is not None
                             and reason.startswith("cond_wait:")
                             for reason in signature) and signature
            if not sync_stall and signature \
                    and signature not in result._hang_signatures:
                result._hang_signatures.add(signature)
                result.hangs.append(hang)
                if metrics is not None:
                    metrics.counter("detect.hangs").inc()

    def _finalize(self, result):
        result._regroup()
