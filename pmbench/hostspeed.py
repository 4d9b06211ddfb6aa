"""Host-speed reference: scale measured times to one reference speed.

The shared host this benchmark was built on switches between a fast and
a slow state (about 1.6x apart) that last seconds, and every Python
workload here slows down with it: a fixed pure-Python loop tracks a
unit's throughput with correlation 0.94-0.97.  So :func:`reference_s`
times such a loop right before and right after the measured work, and
:func:`scaled` multiplies the work's time by ``REFERENCE_S`` over the
loop's mean time: it reads as if the loop had taken exactly
``REFERENCE_S``.  The loop runs no code of the program, so a change to
the program cannot move it.  Work that lasts seconds is split into
periods of about :data:`PERIOD_S` by a :class:`ScaledClock`, each scaled
by the loops at its own two ends.

Run as a script, it prints how long ``import repro`` takes in this fresh
interpreter, scaled the same way::

    python3 pmbench/hostspeed.py src
"""

import collections
import sys
import time

REFERENCE_ITERATIONS = 20_000
#: Seconds the reference loop is taken to last (its time on the host
#: this benchmark was built on, in the slow state).
REFERENCE_S = 0.005
#: Seconds of work between two timings of the reference loop in a
#: :class:`ScaledClock`.  Scaling a whole 3 s fuzzing session by the
#: loops at its ends left a 16-21% quartile spread between repeats of
#: the same session; re-timing the loop every 0.25 s left 2-5%.
PERIOD_S = 0.25


def reference_s():
    """Seconds a fixed pure-Python loop takes right now."""
    table = {}
    acc = 0
    start = time.perf_counter()
    for i in range(REFERENCE_ITERATIONS):
        table[i & 1023] = i
        acc ^= len(table) + i
    return time.perf_counter() - start


def scaled(seconds, before, after):
    """``seconds`` as if the reference loop, which took ``before`` and
    ``after`` around the work, had taken ``REFERENCE_S``."""
    return seconds * 2 * REFERENCE_S / (before + after)


def timed(fn):
    """``(fn(), seconds it took)``, the seconds scaled."""
    before = reference_s()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    return result, scaled(elapsed, before, reference_s())


class ScaledClock:
    """Scaled time of work that runs for seconds.

    Created when the work starts; :meth:`tick` goes between two pieces
    of the work and, once :data:`PERIOD_S` have passed, ends the current
    period; :meth:`close` ends the last one.  Each period is scaled by
    the reference loops at its two ends, and so is every interval
    :meth:`add`-ed during it.  The loops' own time counts nowhere.
    """

    def __init__(self):
        #: kind -> scaled intervals, filled as periods end.
        self.scaled = collections.defaultdict(list)
        #: Scaled and unscaled seconds of the ended periods.
        self.busy_s = 0.0
        self.raw_s = 0.0
        self._pending = []
        self._before = reference_s()
        self.start = time.perf_counter()
        self._mark = self.start

    def add(self, kind, seconds):
        """An interval of ``seconds`` that lies in the current period."""
        self._pending.append((kind, seconds))

    def tick(self):
        if time.perf_counter() - self._mark >= PERIOD_S:
            self.close()

    def close(self):
        end = time.perf_counter()
        after = reference_s()
        factor = scaled(1.0, self._before, after)
        self.busy_s += (end - self._mark) * factor
        self.raw_s += end - self._mark
        for kind, seconds in self._pending:
            self.scaled[kind].append(seconds * factor)
        self._pending = []
        self._before = after
        self._mark = time.perf_counter()


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    print(timed(lambda: __import__("repro"))[1])
