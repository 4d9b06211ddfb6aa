#!/usr/bin/env python3
"""Regenerate the checked-in golden repro bundle.

The golden bundle (``tests/replay/golden/memcached-pmem-bug.json``) is
replayed by ``tests/replay/test_golden.py`` and by CI's replay-smoke
step; any divergence fails the build. Its call-site strings embed
target source line numbers, so an intentional change to
``src/repro/targets/memcached.py`` (or to input generation, scheduling,
or the bundle format) requires re-running this script:

    PYTHONPATH=src python tools/make_golden_bundle.py

The script fuzzes memcached with the pinned seed, takes the first
confirmed bug, ddmin-shrinks it (small file, strict replay), verifies
the result replays cleanly, and rewrites the golden file. Commit the
updated JSON together with the change that moved it.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.engine import PMRace, PMRaceConfig  # noqa: E402
from repro.detect.records import Verdict  # noqa: E402
from repro.replay import replay_bundle, shrink_bundle  # noqa: E402
from repro.targets.registry import make_target  # noqa: E402

BASE_SEED = 7
MAX_CAMPAIGNS = 30
SHRINK_BUDGET = 150
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "..", "tests",
                           "replay", "golden", "memcached-pmem-bug.json")


def main():
    cfg = PMRaceConfig(max_campaigns=MAX_CAMPAIGNS, base_seed=BASE_SEED,
                       capture_repro=True)
    print("fuzzing memcached-pmem (seed %d, %d campaigns)..."
          % (BASE_SEED, MAX_CAMPAIGNS))
    result = PMRace(make_target("memcached-pmem"), cfg).run()
    bugs = [record for record in result.inconsistencies
            + result.sync_inconsistencies
            if record.verdict is Verdict.BUG and record.bundle is not None]
    if not bugs:
        print("no confirmed bug captured; golden bundle unchanged",
              file=sys.stderr)
        return 1
    bundle = bugs[0].bundle.with_updates(verdict=bugs[0].verdict.value)
    print("shrinking %s (%d ops)..." % (list(bundle.dedup_key),
                                        bundle.op_count))
    shrunk = shrink_bundle(bundle, budget=SHRINK_BUDGET)
    if not shrunk.verified:
        print("shrink output failed strict verification", file=sys.stderr)
        return 1
    outcome = replay_bundle(shrunk.bundle)
    if not outcome.ok:
        print("golden candidate does not replay cleanly:", file=sys.stderr)
        for line in outcome.describe():
            print("  " + line, file=sys.stderr)
        return 1
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    path = shrunk.bundle.save(GOLDEN_PATH)
    print("golden bundle written to %s (%d ops, %d decisions)"
          % (os.path.relpath(path), shrunk.bundle.op_count,
             len(shrunk.bundle.schedule)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
