"""Seeded-bug matrix: detect → validate → replay, per catalogued bug.

The extended bug catalog (:data:`repro.core.results.SEEDED_BUGS`: the
paper's Table 2 rows 1-14 plus the SDK extension targets' bugs 15/16)
is this reproduction's ground truth — every entry is a bug we *seeded*
into a target, so every entry must come back out of the pipeline. This
module is the harness that walks the full loop for each bug under
pinned seeds:

1. **detect** — a bounded capture-mode fuzzing run
   (:func:`run_matrix_target`) rediscovers the bug
   (:func:`repro.core.results.match_expected`);
2. **validate** — for record-backed kinds (inter/intra/sync), at least
   one matching record carries the ``BUG`` verdict from the cached
   validation service;
3. **replay** — that record's captured reproducer bundle replays
   deterministically (:func:`repro.replay.replayer.replay_bundle`) and
   re-validates to the same ``BUG`` verdict through a fresh
   :func:`~repro.detect.validation_service.make_validation_queue`.

``tests/integration/test_bug_matrix.py`` asserts each row;
``benchmarks/bench_bug_matrix.py`` renders the matrix as a table. Both
share :data:`MATRIX_BUDGETS` so "pinned seeds" means the same seeds
everywhere. Dynamically registered plugin targets participate
automatically once their bugs are added to ``SEEDED_BUGS``-style
catalogs: :func:`run_bug_matrix` takes any list of registered names.
"""

from ..detect.records import Verdict
from ..detect.validation_service import make_validation_queue
from .engine import PMRaceConfig
from .parallel import fuzz_parallel
from .results import SEEDED_BUGS, expected_bugs_for, match_expected

#: Pinned per-target budgets: seeds + campaign caps that rediscover
#: every catalogued bug (mirrors ``tests/integration/
#: test_bug_detection.py``; FAST-FAIR needs the longer run for the
#: split-heavy workloads that expose bug 8).
MATRIX_BUDGETS = {
    "P-CLHT": {"seeds": (7, 13), "max_campaigns": 70},
    "clevel hashing": {"seeds": (7, 13), "max_campaigns": 70},
    "CCEH": {"seeds": (7, 13), "max_campaigns": 70},
    "FAST-FAIR": {"seeds": (7, 42), "max_campaigns": 110, "max_seeds": 22},
    "memcached-pmem": {"seeds": (7, 13), "max_campaigns": 70},
    "pmring": {"seeds": (7, 13), "max_campaigns": 40},
    "txkv": {"seeds": (7, 13), "max_campaigns": 40},
}

#: Budget for targets absent from :data:`MATRIX_BUDGETS` (plugins).
DEFAULT_BUDGET = {"seeds": (7, 13), "max_campaigns": 50}

#: Record-backed bug kinds: these produce validated, replayable
#: records; candidate/hang findings are matched but have no verdict.
RECORD_KINDS = ("inter", "intra", "sync")


def matrix_targets():
    """Target names carrying at least one catalogued seeded bug, in
    catalog order."""
    names = []
    for bug in SEEDED_BUGS:
        if bug.target not in names:
            names.append(bug.target)
    return names


def run_matrix_target(name, budget=None):
    """One pinned-seed capture-mode fuzzing run for ``name``."""
    budget = dict(budget if budget is not None
                  else MATRIX_BUDGETS.get(name, DEFAULT_BUDGET))
    seeds = budget.pop("seeds")
    config = PMRaceConfig(capture_repro=True,
                          max_seeds=budget.pop("max_seeds", 16), **budget)
    return fuzz_parallel(name, config, seeds=seeds, processes=1)


def _site_text(record):
    """The matcher haystack for one record (mirrors match_expected)."""
    return " ".join(
        str(part) for part in (getattr(record, "write_instr", None),
                               getattr(record, "read_instr", None),
                               getattr(record, "annotation_name", None))
        if part)


def bug_records(result, expected):
    """Matching ``BUG``-verdict records for one catalog entry."""
    if expected.kind not in RECORD_KINDS:
        return []
    pool = list(result.inconsistencies) + list(result.sync_inconsistencies)
    return [record for record in pool
            if getattr(record, "kind", "sync") in expected.kinds
            and record.verdict is Verdict.BUG
            and any(needle in _site_text(record)
                    for needle in expected.matcher)]


def replay_bug_record(record, queue):
    """Replay one record's captured bundle; ``(ok, verdict)``.

    ``ok`` requires the full reproducer contract: the bundled record
    re-appears, it is the campaign's first inconsistency, the schedule
    drives to completion without divergence, *and* re-validation through
    ``queue`` re-assigns the ``BUG`` verdict.
    """
    from ..replay.replayer import replay_bundle

    if record.bundle is None:
        return False, None
    outcome = replay_bundle(record.bundle, validation=queue)
    return (outcome.ok and outcome.verdict is Verdict.BUG,
            outcome.verdict)


def target_matrix_rows(name, result, replay=True):
    """One matrix row per catalogued bug of ``name``.

    Row fields: ``bug`` / ``system`` / ``type`` / ``detected`` (bool),
    ``verdict_bug`` (bool, or None for candidate/hang kinds) and
    ``replayed`` (bool, or None when not applicable / disabled).
    """
    rows = []
    queue = make_validation_queue(name) if replay else None
    for expected in expected_bugs_for(name):
        row = {
            "bug": expected.bug_id,
            "system": name,
            "type": expected.kind,
            "detected": match_expected(expected, result),
            "verdict_bug": None,
            "replayed": None,
        }
        if expected.kind in RECORD_KINDS:
            records = bug_records(result, expected)
            row["verdict_bug"] = bool(records)
            if replay:
                bundled = [r for r in records if r.bundle is not None]
                if bundled:
                    ok, _verdict = replay_bug_record(bundled[0], queue)
                    row["replayed"] = ok
                else:
                    row["replayed"] = False
        rows.append(row)
    return rows


def run_bug_matrix(names=None, budgets=None, replay=True):
    """Run the full matrix; ``(rows, results_by_target)``."""
    names = list(names) if names is not None else matrix_targets()
    rows = []
    results = {}
    for name in names:
        budget = (budgets or {}).get(name)
        result = run_matrix_target(name, budget=budget)
        results[name] = result
        rows.extend(target_matrix_rows(name, result, replay=replay))
    return rows, results


def matrix_failures(rows):
    """Rows violating the matrix contract (empty list = all green)."""
    return [row for row in rows
            if not row["detected"]
            or row["verdict_bug"] is False
            or row["replayed"] is False]
