"""Everything under tests/replay/ carries the replay marker.

Also hosts the shared capture fixtures: fuzzing with ``capture_repro``
on is the expensive part of these tests, so one pinned-seed run per
target is captured once per session and shared.
"""

import pytest

from repro.core.engine import PMRace, PMRaceConfig
from repro.targets.registry import make_target


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(pytest.mark.replay)


def capture_run(target_name, base_seed=7, max_campaigns=25, **overrides):
    """One pinned-seed capture-mode engine run; returns its RunResult."""
    cfg = PMRaceConfig(max_campaigns=max_campaigns, base_seed=base_seed,
                       capture_repro=True, **overrides)
    return PMRace(make_target(target_name), cfg).run()


def bundled_records(result):
    """Every kept record carrying a repro bundle, detection order."""
    return [record for record in list(result.inconsistencies)
            + list(result.sync_inconsistencies)
            if record.bundle is not None]


@pytest.fixture(scope="session")
def memcached_run():
    """Shared pinned-seed memcached capture run (the richest target)."""
    return capture_run("memcached-pmem", base_seed=7, max_campaigns=30)


@pytest.fixture(scope="session")
def memcached_bundle(memcached_run):
    records = bundled_records(memcached_run)
    assert records, "pinned-seed memcached run found no inconsistencies"
    return records[0].bundle
