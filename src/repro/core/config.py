"""Campaign settings: :class:`PMRaceConfig` and the field lists that
record it.

``PMRaceConfig`` is the one place a fuzzing run's settings get their
defaults; :func:`~repro.core.campaign.run_campaign` and the replayer
read them from a config rather than carrying defaults of their own.
Two lists name the fields other formats keep:
:data:`CONFIG_DIGEST_FIELDS` (a durable session's compatibility digest)
and :data:`CONFIG_FIELDS` (the executable subset a repro bundle stores).
"""


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

    #: Scheduler steps a writer stalls after a sync point's cond_signal
    #: (§4.2.2, Figure 6).
    writer_waiting = 150
    #: Scheduler step budget of one campaign.
    max_steps = 30_000
    #: Consecutive spinning steps after which a campaign counts as hung.
    spin_hang_limit = 400

    def __init__(self, mode="pmrace", n_threads=4, ops_per_thread=6,
                 max_campaigns=120, execs_per_interleaving=2,
                 max_interleavings_per_seed=8, max_seeds=40,
                 use_checkpoints=None, enable_interleaving_tier=True,
                 enable_seed_tier=True, taint_enabled=True,
                 snapshot_images=True, validate=True,
                 coverage_feedback="both", base_seed=0, whitelist=None,
                 eadr=False, evict_fraction=0.0, capture_repro=False,
                 corpus_dir=None, target_modules=()):
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
        self.validate = validate
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
        #: Plugin modules (``--target-module`` specs) to import before
        #: resolving targets by name. Carried in the config so worker
        #: *processes* (``repro fuzz --parallel N``) can re-register
        #: dynamically loaded targets in their own interpreter before
        #: ``make_target`` runs.
        self.target_modules = tuple(target_modules)


#: Settings every run takes one value of, with that value. Digests and
#: bundles still record them; a bundle that recorded another value is
#: refused. ``capture_stacks`` has no attribute: access events always
#: carry their frame, and the checker walks it only when it mints a
#: record.
FIXED_SETTINGS = {
    "writer_waiting": PMRaceConfig.writer_waiting,
    "capture_stacks": True,
    "max_steps": PMRaceConfig.max_steps,
    "spin_hang_limit": PMRaceConfig.spin_hang_limit,
}

#: Config fields folded into the manifest's compatibility digest. The
#: digest detects *behavioural* divergence between the original run and
#: a resume — observability and output knobs are deliberately excluded.
CONFIG_DIGEST_FIELDS = (
    "mode", "n_threads", "ops_per_thread", "max_campaigns",
    "execs_per_interleaving", "max_interleavings_per_seed", "max_seeds",
    "enable_interleaving_tier", "enable_seed_tier", "taint_enabled",
    "snapshot_images", "validate", "writer_waiting", "max_steps",
    "spin_hang_limit", "coverage_feedback", "eadr", "evict_fraction",
)

#: Config fields serialized into (and reconstructed from) a bundle.
CONFIG_FIELDS = (
    "mode", "n_threads", "writer_waiting", "taint_enabled",
    "snapshot_images", "capture_stacks", "max_steps", "spin_hang_limit",
    "use_checkpoints", "eadr", "evict_fraction",
)
