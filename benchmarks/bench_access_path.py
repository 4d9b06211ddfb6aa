"""Hot-path access pipeline benchmark: fuzz throughput + raw access rate.

Two measurements cover the instrumented-access pipeline end to end:

* ``execs_per_s`` — full fuzzing throughput on the toy target (campaigns
  per second across two base seeds), the number the access-path overhaul
  is judged by: call-site interning, word-mask persistency tracking,
  journaled checkpoint restores, and the scheduler fast paths all sit on
  this path.
* ``raw_accesses_per_s`` — a scheduler-free ``PmView`` loop
  (store/load/clwb/sfence over distinct lines), isolating the
  instrumentation + memory-model cost from scheduling and detection.

Modes:

* default           — best of ``FULL_ROUNDS`` interleaved rounds; emits
  the before/after table to ``benchmarks/results/bench_access_path.txt``
  with machine-readable ``execs_per_s:`` / ``raw_accesses_per_s:`` lines.
* ``--quick``       — ``QUICK_ROUNDS`` rounds (CI's perf-smoke budget).
* ``--check``       — measure, then compare against the *checked-in*
  result file instead of rewriting it; exits non-zero when fuzz
  throughput regressed more than ``MAX_REGRESSION`` (20%).

The ``pre-PR baseline`` row is frozen: it was measured with this same
harness against the tree before the access-path overhaul (commit
1c1ae91) and is kept for context in the regenerated table.

Runs standalone too: ``python benchmarks/bench_access_path.py``.
"""

import argparse
import os
import re
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _ROOT)
sys.path.insert(0, os.path.join(_ROOT, "src"))  # works without pip install

from repro.core import PMRaceConfig, fuzz_parallel
from repro.core.results import render_table
from repro.instrument import InstrumentationContext, PmView
from repro.pmem import PmemPool

from conftest import RESULTS_DIR, emit
from tests.core.toy_target import ToyTarget

CAMPAIGNS = 40
SEEDS = (7, 13)
RAW_ACCESSES = 60_000
FULL_ROUNDS = 5
QUICK_ROUNDS = 2
MAX_REGRESSION = 0.20
RESULT_NAME = "bench_access_path"

#: Frozen measurements of the pre-overhaul tree (see module docstring).
PRE_PR_EXECS_PER_S = 60.9
PRE_PR_RAW_PER_S = 173_324


def measure_fuzz():
    """Campaigns per second of one bounded toy-target fuzzing session."""
    config = PMRaceConfig(max_campaigns=CAMPAIGNS)
    start = time.perf_counter()
    result = fuzz_parallel(ToyTarget, config, seeds=SEEDS, processes=1)
    elapsed = time.perf_counter() - start
    assert result.campaigns == CAMPAIGNS * len(SEEDS)
    return result.campaigns / elapsed


def measure_raw(accesses=RAW_ACCESSES):
    """Instrumented accesses per second without a scheduler."""
    pool = PmemPool("bench-access-path", 1 << 16)
    ctx = InstrumentationContext()
    view = PmView(pool, None, ctx)
    span = (pool.size // 2) - 64
    start = time.perf_counter()
    for index in range(accesses // 4):
        addr = (index * 64) % span
        view.store_u64(addr, index)
        view.load_u64(addr)
        view.clwb(addr)
        view.sfence()
    elapsed = time.perf_counter() - start
    return accesses / elapsed


def run_bench(rounds):
    """Best-of-``rounds`` for both measurements, interleaved so machine
    load drift is shared between them."""
    best = {"execs_per_s": 0.0, "raw_accesses_per_s": 0.0}
    for _ in range(rounds):
        best["execs_per_s"] = max(best["execs_per_s"], measure_fuzz())
        best["raw_accesses_per_s"] = max(best["raw_accesses_per_s"],
                                         measure_raw())
    return best


def result_path():
    return os.path.join(RESULTS_DIR, RESULT_NAME + ".txt")


def load_baseline():
    """The checked-in ``execs_per_s`` the CI perf smoke guards against."""
    with open(result_path()) as handle:
        text = handle.read()
    found = re.findall(r"^execs_per_s:\s*([0-9.]+)\s*$", text, re.M)
    if not found:
        raise RuntimeError("no execs_per_s line in %s" % result_path())
    return float(found[-1])


def render(best, rounds):
    rows = [
        {
            "configuration": "pre-PR baseline (per-word dicts, string ids)",
            "execs_per_s": "%.1f" % PRE_PR_EXECS_PER_S,
            "raw_accesses_per_s": "%d" % PRE_PR_RAW_PER_S,
        },
        {
            "configuration": "interned ids + word masks (current)",
            "execs_per_s": "%.1f" % best["execs_per_s"],
            "raw_accesses_per_s": "%d" % best["raw_accesses_per_s"],
        },
    ]
    table = render_table(
        rows, ["configuration", "execs_per_s", "raw_accesses_per_s"],
        title="Hot-path access pipeline (toy target, %d campaigns x "
              "seeds %s, best of %d rounds)"
              % (CAMPAIGNS, SEEDS, rounds))
    speedup = best["execs_per_s"] / PRE_PR_EXECS_PER_S
    machine = ("speedup_vs_pre_pr: %.2fx\n"
               "execs_per_s: %.1f\n"
               "raw_accesses_per_s: %d"
               % (speedup, best["execs_per_s"],
                  best["raw_accesses_per_s"]))
    return table + "\n\n" + machine


def run_and_emit(rounds):
    best = run_bench(rounds)
    emit(RESULT_NAME, render(best, rounds))
    return best


def run_check(rounds):
    """CI perf smoke: fail when fuzz throughput regresses > 20%."""
    baseline = load_baseline()
    best = run_bench(rounds)
    floor = baseline * (1.0 - MAX_REGRESSION)
    print("execs_per_s: %.1f (checked-in baseline %.1f, floor %.1f)"
          % (best["execs_per_s"], baseline, floor))
    print("raw_accesses_per_s: %d" % best["raw_accesses_per_s"])
    if best["execs_per_s"] < floor:
        print("FAIL: fuzz throughput regressed more than %d%%"
              % int(MAX_REGRESSION * 100))
        return 1
    print("OK")
    return 0


def test_access_path(benchmark):
    best = benchmark.pedantic(run_bench, args=(QUICK_ROUNDS,),
                              rounds=1, iterations=1)
    emit(RESULT_NAME, render(best, QUICK_ROUNDS))
    # the same floor the CI perf-smoke job enforces
    assert best["execs_per_s"] >= \
        PRE_PR_EXECS_PER_S * (1.0 - MAX_REGRESSION)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="run %d rounds instead of %d"
                             % (QUICK_ROUNDS, FULL_ROUNDS))
    parser.add_argument("--check", action="store_true",
                        help="compare against the checked-in result "
                             "instead of rewriting it; non-zero exit on "
                             ">%d%% regression"
                             % int(MAX_REGRESSION * 100))
    cli = parser.parse_args()
    n_rounds = QUICK_ROUNDS if cli.quick else FULL_ROUNDS
    if cli.check:
        sys.exit(run_check(n_rounds))
    run_and_emit(n_rounds)
