"""PMRace reproduction: detecting concurrency bugs in PM programs.

A pure-Python reproduction of *"Efficiently Detecting Concurrency Bugs in
Persistent Memory Programs"* (ASPLOS 2022): a simulated persistent-memory
platform, a deterministic interleaving scheduler, PM-aware coverage-guided
fuzzing with sync-point scheduling, taint-based durable-side-effect
confirmation, post-failure validation, and re-implementations of the five
concurrent PM systems the paper tested.

Quickstart::

    from repro import PMRace, PMRaceConfig, make_target

    result = PMRace(make_target("P-CLHT"), PMRaceConfig(max_campaigns=60)).run()
    for report in result.bug_reports:
        print(report.format())
"""

from ._lazy import lazy_exports
from .core import (
    AflByteMutator,
    OperationMutator,
    PMRace,
    PMRaceConfig,
    RunResult,
    Seed,
    run_campaign,
)
from .detect import (
    BugReport,
    InconsistencyChecker,
    PostFailureValidator,
    Verdict,
    Whitelist,
)
from .instrument import AnnotationRegistry, InstrumentationContext, PmView
from .obs import Metrics, NullTracer, Tracer
from .pmem import PersistentAllocator, PersistentMemory, PmemPool
from .runtime import (
    DelayInjectionPolicy,
    RoundRobinPolicy,
    Scheduler,
    SeededRandomPolicy,
    SimLock,
)
from .targets import (
    OperationSpace,
    Target,
    TargetState,
    make_target,
    table1_rows,
    target_names,
)

# Not on the fuzzing path: imported on first use (see repro._lazy).
__getattr__ = lazy_exports(globals(), {
    ".core.parallel": ("ParallelFuzzService", "WorkerStats",
                       "fuzz_parallel"),
    ".detect.extra_checkers": ("RedundantFlushChecker",
                               "scan_missing_flushes"),
    ".detect.reporting": ("dump_run_result", "load_whitelist",
                          "save_whitelist"),
})

__version__ = "1.0.0"

__all__ = [
    "PMRace",
    "PMRaceConfig",
    "RunResult",
    "Seed",
    "OperationMutator",
    "AflByteMutator",
    "run_campaign",
    "fuzz_parallel",
    "ParallelFuzzService",
    "WorkerStats",
    "InconsistencyChecker",
    "PostFailureValidator",
    "Whitelist",
    "Verdict",
    "RedundantFlushChecker",
    "scan_missing_flushes",
    "dump_run_result",
    "save_whitelist",
    "load_whitelist",
    "BugReport",
    "PmView",
    "InstrumentationContext",
    "AnnotationRegistry",
    "Tracer",
    "NullTracer",
    "Metrics",
    "PmemPool",
    "PersistentMemory",
    "PersistentAllocator",
    "Scheduler",
    "SeededRandomPolicy",
    "RoundRobinPolicy",
    "DelayInjectionPolicy",
    "SimLock",
    "Target",
    "TargetState",
    "OperationSpace",
    "make_target",
    "target_names",
    "table1_rows",
    "__version__",
]
