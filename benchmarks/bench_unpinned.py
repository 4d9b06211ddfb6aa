"""Unpinned against pinned product runs of ``repro fuzz``.

The cooperative scheduler runs one simulated thread at a time, so a
fuzzing session never needs more than one CPU.  This measures whether
letting the OS place its threads on any CPU costs wall time: it times
``python -m repro fuzz P-CLHT --campaigns 70 --seeds 7`` in a fresh
subprocess twice per pair, once with the affinity this script inherited
and once pinned to that affinity's first CPU (``os.sched_setaffinity``
in the child before it starts).  Pairs alternate which arm runs first.
Both arms must print identical findings.

pmbench pins itself, so only an end-to-end run like this one sees
unpinned behaviour.  Start it without ``taskset``: a pinned parent makes
both arms pinned.

Runs standalone: ``python benchmarks/bench_unpinned.py [--pairs N]``.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time

from conftest import emit

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")
COMMAND = [sys.executable, "-m", "repro", "fuzz", "P-CLHT",
           "--campaigns", "70", "--seeds", "7"]
PAIRS = 5


def timed_run(pin_to):
    """Wall seconds and stdout of one ``repro fuzz`` subprocess."""
    env = dict(os.environ, PYTHONPATH=SRC)
    preexec = None
    if pin_to is not None:
        def preexec():
            os.sched_setaffinity(0, {pin_to})
    start = time.perf_counter()
    done = subprocess.run(COMMAND, env=env, preexec_fn=preexec,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          check=True)
    return time.perf_counter() - start, done.stdout


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return "%.3f [%.3f, %.3f]" % (median, q1, q3)


def run_pairs(pairs):
    inherited = sorted(os.sched_getaffinity(0))
    cpu = inherited[0]
    rows = []
    for pair in range(pairs):
        order = ("unpinned", "pinned") if pair % 2 == 0 \
            else ("pinned", "unpinned")
        seconds, outputs = {}, {}
        for arm in order:
            seconds[arm], outputs[arm] = timed_run(
                cpu if arm == "pinned" else None)
        assert outputs["pinned"] == outputs["unpinned"], \
            "pinned and unpinned runs found different things"
        rows.append({"pair": pair, "first": order[0],
                     "unpinned_s": "%.3f" % seconds["unpinned"],
                     "pinned_s": "%.3f" % seconds["pinned"],
                     "unpinned/pinned": "%.3f" % (seconds["unpinned"]
                                                  / seconds["pinned"]),
                     "_unpinned": seconds["unpinned"],
                     "_pinned": seconds["pinned"]})
    return inherited, cpu, rows


def render(inherited, cpu, rows):
    lines = [
        "repro fuzz P-CLHT --campaigns 70 --seeds 7: wall seconds, "
        "inherited affinity (CPUs %s) vs pinned to CPU %d"
        % (",".join(map(str, inherited)), cpu),
        "pair | first    | unpinned_s | pinned_s | unpinned/pinned",
        "-----+----------+------------+----------+----------------",
    ]
    for row in rows:
        lines.append("%-4d | %-8s | %-10s | %-8s | %s" % (
            row["pair"], row["first"], row["unpinned_s"], row["pinned_s"],
            row["unpinned/pinned"]))
    if len(rows) >= 2:
        lines.append("median [q1, q3]: unpinned %s s, pinned %s s; "
                     "unpinned slower in %d of %d pairs" % (
                         quartiles([r["_unpinned"] for r in rows]),
                         quartiles([r["_pinned"] for r in rows]),
                         sum(r["_unpinned"] > r["_pinned"] for r in rows),
                         len(rows)))
    return "\n".join(lines)


def test_unpinned_vs_pinned():
    """Both arms run the same session; the timings are reported only."""
    inherited, cpu, rows = run_pairs(2)
    emit("unpinned", render(inherited, cpu, rows))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=PAIRS)
    args = parser.parse_args()
    emit("unpinned", render(*run_pairs(args.pairs)))
