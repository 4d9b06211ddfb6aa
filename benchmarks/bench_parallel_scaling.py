"""Parallel fuzzing scaling: merged campaign throughput vs pool size.

The paper's §5 evaluation runs 13 concurrent fuzzing workers; here the
fault-tolerant parallel service fuzzes the same target with 1, 2 and 4
worker processes (same per-worker budget) and reports merged campaigns
per wall-clock second.  Expected shape: throughput increases from 1 to
2 workers and again — hardware permitting — at 4.  On a single-core
host there is no parallelism to exploit, so the scaling assertion is
replaced by an overhead bound: every pool size must complete the
identical merged workload within 1.8x of the serial wall clock.

A second measurement pins the cost of durability: the identical workload
with and without a ``--session-dir`` (per-unit checkpoints, journal,
corpus mirror).  The crash-safe session layer must cost < 5% throughput.

Runs standalone too: ``python benchmarks/bench_parallel_scaling.py``.
"""

import multiprocessing
import shutil
import tempfile
import time

import pytest

from repro.core import PMRaceConfig, Session, fuzz_parallel
from repro.core.results import render_table

from conftest import emit

TARGET = "P-CLHT"
CAMPAIGNS_PER_WORKER = 12
SEEDS = (7, 13, 42, 99)
POOL_SIZES = (1, 2, 4)

#: Wall-clock repeats for the session-overhead comparison; the best of
#: each arm is compared, which discards scheduler noise.
OVERHEAD_REPEATS = 3
OVERHEAD_BUDGET = 0.05


def measure(processes):
    """Merged campaigns per wall-clock second at one pool size."""
    config = PMRaceConfig(max_campaigns=CAMPAIGNS_PER_WORKER, max_seeds=6,
                          snapshot_images=False, capture_stacks=False,
                          validate=False)
    start = time.monotonic()
    merged = fuzz_parallel(TARGET, config, seeds=SEEDS,
                           processes=processes)
    elapsed = time.monotonic() - start
    return merged, elapsed


def run_scaling():
    rows = []
    for processes in POOL_SIZES:
        merged, elapsed = measure(processes)
        # campaign counts and per-worker throughput both come from the
        # merged RunResult, so the benchmark only supplies wall clock
        campaigns = merged.campaigns
        throughput = campaigns / elapsed
        rows.append({
            "workers": processes,
            "campaigns": campaigns,
            "wall_s": "%.2f" % elapsed,
            "campaigns_per_s": "%.2f" % throughput,
            # worker-side rate (executions over summed worker-local
            # durations): dips when the pool oversubscribes the cores
            "worker_side_per_s": "%.2f" % merged.executions_per_second,
            "ok_workers": sum(s.status == "ok"
                              for s in merged.worker_stats),
            "_throughput": throughput,
        })
    return rows


def check_and_emit(rows):
    cores = multiprocessing.cpu_count()
    text = render_table(
        rows, ["workers", "campaigns", "wall_s", "campaigns_per_s",
               "worker_side_per_s", "ok_workers"],
        title="Parallel fuzzing scaling (merged campaigns/second, "
              "%d core%s)" % (cores, "" if cores == 1 else "s"))
    emit("parallel_scaling", text)
    by_size = {row["workers"]: row for row in rows}
    # every pool size completed the full merged workload...
    assert all(row["campaigns"] == CAMPAIGNS_PER_WORKER * len(SEEDS)
               for row in rows), rows
    if cores >= 2:
        # ...and two workers beat the serial baseline
        assert by_size[2]["_throughput"] > by_size[1]["_throughput"], rows
    else:
        # ...single-core host: no parallelism to exploit, so pin the
        # service overhead instead of the (impossible) speedup
        assert by_size[4]["_throughput"] > \
            by_size[1]["_throughput"] / 1.8, rows


def _measure_once(session_dir):
    """Wall clock for the fixed workload, durably or not."""
    config = PMRaceConfig(max_campaigns=CAMPAIGNS_PER_WORKER, max_seeds=6,
                          snapshot_images=False, capture_stacks=False,
                          validate=False)
    session = None
    if session_dir is not None:
        session = Session.open(session_dir, TARGET, "parallel", SEEDS,
                               config)
    start = time.monotonic()
    merged = fuzz_parallel(TARGET, config, seeds=SEEDS, processes=1,
                           session=session)
    elapsed = time.monotonic() - start
    assert merged.campaigns == CAMPAIGNS_PER_WORKER * len(SEEDS)
    return elapsed


def run_session_overhead():
    """Best-of-N wall clock with and without a session directory."""
    plain = durable = None
    for _ in range(OVERHEAD_REPEATS):
        bare = _measure_once(None)
        plain = bare if plain is None else min(plain, bare)
        root = tempfile.mkdtemp(prefix="bench-session-")
        try:
            timed = _measure_once(root + "/session")
        finally:
            shutil.rmtree(root, ignore_errors=True)
        durable = timed if durable is None else min(durable, timed)
    return {
        "no_session_s": "%.3f" % plain,
        "session_s": "%.3f" % durable,
        "overhead_pct": "%.2f" % (100.0 * (durable - plain) / plain),
        "_overhead": (durable - plain) / plain,
    }


def check_and_emit_overhead(row):
    text = render_table(
        [row], ["no_session_s", "session_s", "overhead_pct"],
        title="Session durability overhead (best of %d, %d campaigns, "
              "budget < %.0f%%)" % (OVERHEAD_REPEATS,
                                    CAMPAIGNS_PER_WORKER * len(SEEDS),
                                    100 * OVERHEAD_BUDGET))
    emit("session_overhead", text)
    assert row["_overhead"] < OVERHEAD_BUDGET, row


def test_parallel_scaling(benchmark):
    rows = benchmark.pedantic(run_scaling, rounds=1, iterations=1)
    check_and_emit(rows)


def test_session_overhead(benchmark):
    row = benchmark.pedantic(run_session_overhead, rounds=1, iterations=1)
    check_and_emit_overhead(row)


if __name__ == "__main__":
    check_and_emit(run_scaling())
    check_and_emit_overhead(run_session_overhead())
