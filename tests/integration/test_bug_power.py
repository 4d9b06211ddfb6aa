"""Bug-finding power: hard bugs stay as likely to be found as measured.

``benchmarks/results/bug_power.txt`` counts, per catalogued bug, the
sessions (one per base seed 7 + 6k at ``MATRIX_BUDGETS``) that find it.
Sessions are deterministic, so the counts reproduce exactly. The slow
test re-runs the 60 memcached-pmem sessions and fails when bug 9, 10
or 13 drops below the lower end of its checked-in Wilson 95% interval
(43/60 [0.59, 0.81], 31/60 [0.39, 0.64], 11/60 [0.11, 0.30]).
"""

import pytest

from repro.core.bugmatrix import bugs_hit, power_session

SESSIONS = 60
#: Fewest of 60 sessions that must find each hard memcached-pmem bug:
#: the lower interval ends above, times 60, rounded up.
FLOORS = {9: 36, 10: 24, 13: 7}


def test_bugs_hit_counts_a_convicted_bug():
    assert bugs_hit("pmring", power_session("pmring", 7)) == {15}


@pytest.mark.slow
def test_hard_memcached_bugs_keep_their_hit_rates():
    hits = dict.fromkeys(FLOORS, 0)
    for k in range(SESSIONS):
        found = bugs_hit("memcached-pmem", power_session("memcached-pmem",
                                                         7 + 6 * k))
        for bug_id in hits:
            hits[bug_id] += bug_id in found
    low = {bug_id: "%d/%d (floor %d)" % (hits[bug_id], SESSIONS, floor)
           for bug_id, floor in FLOORS.items() if hits[bug_id] < floor}
    assert not low, "hard bugs found in fewer sessions: %s" % low
