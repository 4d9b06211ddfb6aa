"""End-to-end reproducer pipeline: fuzz → capture → replay → shrink.

Pins the whole chain on memcached with a fixed seed: the captured
bundle of the first confirmed bug must replay to the identical first
inconsistency, and ddmin must cut its op sequence by at least 30%
(the acceptance bar) down to the golden-pinned count.
"""

import pytest

from repro.core.engine import PMRace, PMRaceConfig
from repro.detect.records import Verdict
from repro.replay import ReproBundle, replay_bundle, shrink_bundle
from repro.targets.registry import make_target

pytestmark = pytest.mark.replay

BASE_SEED = 7
MAX_CAMPAIGNS = 30
SHRINK_BUDGET = 150
#: Golden pin: ops in the minimized bundle of the first confirmed
#: memcached bug under the settings above. An intentional change to
#: input generation, scheduling, or ddmin moves this — re-pin after
#: confirming the new value replays (`repro replay` on the output).
GOLDEN_MIN_OPS = 19


@pytest.fixture(scope="module")
def bug_bundle():
    cfg = PMRaceConfig(max_campaigns=MAX_CAMPAIGNS, base_seed=BASE_SEED,
                       capture_repro=True)
    result = PMRace(make_target("memcached-pmem"), cfg).run()
    bugs = [record for record in result.inconsistencies
            + result.sync_inconsistencies
            if record.verdict is Verdict.BUG and record.bundle is not None]
    assert bugs, "pinned-seed memcached run confirmed no bugs"
    record = bugs[0]
    return record.bundle.with_updates(verdict=record.verdict.value)


def test_bundle_replays_to_identical_first_inconsistency(bug_bundle):
    outcome = replay_bundle(bug_bundle)
    assert outcome.ok
    assert outcome.run.first_key == bug_bundle.first_key
    assert outcome.record.dedup_key() == bug_bundle.dedup_key


def test_shrink_reduces_ops_by_at_least_30_percent(bug_bundle, tmp_path):
    result = shrink_bundle(bug_bundle, budget=SHRINK_BUDGET)
    assert result.reproduced
    assert result.verified
    assert result.op_reduction >= 0.30, \
        "shrink only removed %.0f%% of ops" % (100 * result.op_reduction)
    assert result.min_ops == GOLDEN_MIN_OPS

    # The minimized bundle is a first-class reproducer: it survives
    # disk and strictly replays to the same identity.
    path = str(tmp_path / "min.json")
    result.bundle.save(path)
    outcome = replay_bundle(ReproBundle.load(path))
    assert outcome.ok
    assert outcome.record.dedup_key() == bug_bundle.dedup_key


def test_shrunk_bug_still_validates_as_bug(bug_bundle):
    # The shrink predicate ran through the cached validation service
    # (verdict "bug" requires it); the minimized run's record must
    # re-earn the BUG verdict end to end.
    from repro.detect.validation_service import make_validation_queue

    result = shrink_bundle(bug_bundle, budget=40)
    validation = make_validation_queue(bug_bundle.target)
    outcome = replay_bundle(result.bundle, validation=validation)
    assert outcome.ok
    assert outcome.verdict is Verdict.BUG
