"""Bug-finding power: how often each catalogued bug is found.

The seeded-bug matrix is pass/fail at two pinned seeds, so it cannot
see a change that makes a hard bug rarer. This runs one session per
base seed ``7 + 6k`` (k = 0..N-1) at the target's
:data:`~repro.core.bugmatrix.MATRIX_BUDGETS` campaign budget
(:func:`~repro.core.bugmatrix.power_session`) and reports, per
catalogued bug, how many sessions found it
(:func:`~repro.core.bugmatrix.bugs_hit`: a ``BUG``-verdict record, or
a match for candidate and hang kinds), the Wilson 95% interval of that
hit rate, and the median session wall time.

Sessions are deterministic, so the hit counts reproduce exactly; only
the seconds depend on the host. Pin the process to one CPU
(``taskset -c 0``) for comparable timings.

Runs standalone: ``python benchmarks/bench_bug_power.py`` writes
``benchmarks/results/bug_power.txt`` (memcached-pmem at 60 seeds and
P-CLHT at 30, about 3 minutes on one CPU).
"""

import math
import os
import platform
import statistics
import sys
import time

from conftest import emit

from repro.core.bugmatrix import bugs_hit, power_session
from repro.core.results import expected_bugs_for, render_table

RESULT_NAME = "bug_power"

#: Sessions per target for the checked-in table.
SESSIONS = {"memcached-pmem": 60, "P-CLHT": 30}


def wilson_interval(hits, n, z=1.96):
    """Wilson score interval ``(low, high)`` of the rate ``hits / n``."""
    p = hits / n
    scale = 1 + z * z / n
    center = (p + z * z / (2 * n)) / scale
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / scale
    return max(0.0, center - half), min(1.0, center + half)


def measure(name, sessions):
    """Per-bug hit counts and per-session seconds over ``sessions``
    base seeds."""
    hits = {expected.bug_id: 0 for expected in expected_bugs_for(name)}
    seconds = []
    for seed in (7 + 6 * k for k in range(sessions)):
        start = time.perf_counter()
        result = power_session(name, seed)
        seconds.append(time.perf_counter() - start)
        for bug_id in bugs_hit(name, result):
            hits[bug_id] += 1
    return hits, seconds


def rows_for(name, hits, seconds):
    sessions = len(seconds)
    median = "%.2f" % statistics.median(seconds)
    rows = []
    for expected in expected_bugs_for(name):
        count = hits[expected.bug_id]
        low, high = wilson_interval(count, sessions)
        rows.append({"bug": expected.bug_id, "system": name,
                     "type": expected.kind,
                     "hits": "%d/%d" % (count, sessions),
                     "wilson95": "[%.2f, %.2f]" % (low, high),
                     "median_s": median})
    return rows


def render(rows):
    text = render_table(
        rows, ["bug", "system", "type", "hits", "wilson95", "median_s"],
        title="Bug-finding power: sessions that find each bug "
              "(one session per base seed 7 + 6k, MATRIX_BUDGETS "
              "campaigns)")
    text += "\n\nhost: %d CPUs, Python %s (median_s is wall seconds " \
            "per session)" % (os.cpu_count(), platform.python_version())
    return text


if __name__ == "__main__":
    rows = []
    for name, sessions in SESSIONS.items():
        print("%s: %d sessions" % (name, sessions), file=sys.stderr)
        rows.extend(rows_for(name, *measure(name, sessions)))
    emit(RESULT_NAME, render(rows))
