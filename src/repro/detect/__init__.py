"""PM inconsistency checkers, post-failure validation, and bug reports."""

from .checkers import InconsistencyChecker
from .extra_checkers import (
    FenceCounter,
    MissingFlushRecord,
    RedundantFlushChecker,
    RedundantFlushRecord,
    scan_missing_flushes,
)
from .reporting import (
    dump_run_result,
    load_run_report,
    load_whitelist,
    record_to_dict,
    report_to_dict,
    save_whitelist,
)
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
