"""PMRace core: PM-aware coverage-guided fuzzing."""

from .._lazy import lazy_exports
from .campaign import CampaignResult, run_campaign
from .checkpoints import StateProvider, make_state_provider
from .coverage import CoverageSet, FeedbackCollector
from .corpus import (
    Corpus,
    SeedEntry,
    minimize_by_coverage,
    seed_digest,
)
from .config import PMRaceConfig
from .engine import HangRecord, PMRace, RunResult
from .inputgen import AflByteMutator, OperationMutator, Seed
from .priority import SharedAccessEntry, SharedAccessQueue
from .seeding import mix_seeds, policy_seed
from .syncpoints import SyncPointController

# Not on the fuzzing path: imported on first use (see repro._lazy).
__getattr__ = lazy_exports(globals(), {
    ".bugmatrix": ("MATRIX_BUDGETS", "matrix_failures", "matrix_targets",
                   "run_bug_matrix", "run_matrix_target",
                   "target_matrix_rows"),
    ".parallel": ("ParallelFuzzService", "WorkerStats", "fuzz_parallel"),
    ".session": ("FaultInjector", "Session", "SessionError",
                 "SessionInterrupted", "result_fingerprint"),
    ".results": ("EXPECTED_BUGS", "SEEDED_BUGS", "ExpectedBug",
                 "build_table2", "build_table3", "build_table5",
                 "build_table6", "build_worker_table", "expected_bugs_for",
                 "match_expected", "render_table"),
})

__all__ = [
    "PMRace",
    "PMRaceConfig",
    "RunResult",
    "fuzz_parallel",
    "ParallelFuzzService",
    "WorkerStats",
    "mix_seeds",
    "policy_seed",
    "Session",
    "SessionError",
    "SessionInterrupted",
    "FaultInjector",
    "result_fingerprint",
    "HangRecord",
    "run_campaign",
    "CampaignResult",
    "StateProvider",
    "make_state_provider",
    "CoverageSet",
    "FeedbackCollector",
    "Seed",
    "OperationMutator",
    "AflByteMutator",
    "Corpus",
    "SeedEntry",
    "seed_digest",
    "minimize_by_coverage",
    "SharedAccessEntry",
    "SharedAccessQueue",
    "SyncPointController",
    "MATRIX_BUDGETS",
    "matrix_targets",
    "run_matrix_target",
    "target_matrix_rows",
    "run_bug_matrix",
    "matrix_failures",
]
