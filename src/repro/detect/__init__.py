"""PM inconsistency checkers, post-failure validation, and bug reports."""

from .._lazy import lazy_exports
from .checkers import InconsistencyChecker
from .dedup import group_bugs, unique_key
from .postfailure import PostFailureValidator, ReplayResult, WriteRecorder
from .validation_service import (
    ValidationQueue,
    fresh_target_factory,
    image_digest,
)
from .records import (
    BugReport,
    CandidateRecord,
    InconsistencyRecord,
    SyncInconsistencyRecord,
    Verdict,
)
from .whitelist import DEFAULT_WHITELIST, Whitelist

# Not on the fuzzing path: imported on first use (see repro._lazy).
__getattr__ = lazy_exports(globals(), {
    ".extra_checkers": ("FenceCounter", "MissingFlushRecord",
                        "RedundantFlushChecker", "RedundantFlushRecord",
                        "scan_missing_flushes"),
    ".reporting": ("dump_run_result", "load_run_report", "load_whitelist",
                   "record_to_dict", "report_to_dict", "save_whitelist"),
})

__all__ = [
    "InconsistencyChecker",
    "RedundantFlushChecker",
    "RedundantFlushRecord",
    "MissingFlushRecord",
    "scan_missing_flushes",
    "FenceCounter",
    "dump_run_result",
    "load_run_report",
    "record_to_dict",
    "report_to_dict",
    "save_whitelist",
    "load_whitelist",
    "PostFailureValidator",
    "ReplayResult",
    "ValidationQueue",
    "WriteRecorder",
    "fresh_target_factory",
    "image_digest",
    "Whitelist",
    "DEFAULT_WHITELIST",
    "Verdict",
    "CandidateRecord",
    "InconsistencyRecord",
    "SyncInconsistencyRecord",
    "BugReport",
    "group_bugs",
    "unique_key",
]
