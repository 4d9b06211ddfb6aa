#!/usr/bin/env python3
"""Count Python calls per scheduler step on the pinned fuzzing session.

Runs the session of ``repro fuzz memcached-pmem --campaigns 20 --seeds 7``
(the same ``PMRaceConfig``, through ``PMRace.run``) with no metrics
registry or tracer attached, under a profile hook on every thread that
counts each Python-level function call (builtin C calls are not
counted). The count is divided by the scheduler steps the session took:
one ``Scheduler._step_locked`` call per step, parked steps included.
Both numbers depend only on the code and the seed, never on timing, so
the ratio is a deterministic measure of how much Python the fuzzer runs
per step.

    PYTHONPATH=src python tools/calls_per_step.py [--max N]

``--max`` exits 1 when the ratio is above ``N``.
"""

import argparse
import os
import sys
import threading

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core import PMRace, PMRaceConfig  # noqa: E402
from repro.runtime.scheduler import Scheduler  # noqa: E402
from repro.targets import make_target  # noqa: E402

TARGET = "memcached-pmem"
#: ``repro fuzz``'s config for ``--campaigns 20 --seeds 7``.
CONFIG = dict(max_campaigns=20, max_seeds=20, base_seed=7)


def count_calls():
    """(Python calls, scheduler steps) of the pinned session."""
    session = PMRace(make_target(TARGET), PMRaceConfig(**CONFIG))
    step_code = Scheduler._step_locked.__code__
    calls = [0]
    steps = [0]

    def profile(frame, event, _arg):
        if event == "call":
            calls[0] += 1
            if frame.f_code is step_code:
                steps[0] += 1

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        session.run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return calls[0], steps[0]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max", type=float, default=None,
                        help="fail when calls per step exceed this")
    args = parser.parse_args(argv)
    calls, steps = count_calls()
    ratio = calls / steps
    print("%s, 20 campaigns, seed 7: %d Python calls / %d scheduler "
          "steps = %.2f calls per step" % (TARGET, calls, steps, ratio))
    if args.max is not None and ratio > args.max:
        print("above the bound of %.2f calls per step" % args.max)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
