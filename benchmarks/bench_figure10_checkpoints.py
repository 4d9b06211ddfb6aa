"""Figure 10: the impact of in-memory checkpoints on fuzzing speed.

For each workload, measure campaign throughput with pool state provided
by (a) a fresh ``setup()`` per campaign and (b) checkpoint restore (§5).
Expected shape: every libpmemobj-based workload (P-CLHT, clevel, CCEH,
FAST-FAIR) speeds up substantially with checkpoints because pool
initialization is slot-by-slot persisted work; memcached-pmem uses
``pmem_map_file`` (libpmem) and barely changes — the paper recommends
disabling checkpoints there.
"""

import time

import pytest

from repro.core import OperationMutator, PMRaceConfig, run_campaign
from repro.core.checkpoints import StateProvider
from repro.core.results import render_table
from repro.runtime import SeededRandomPolicy
from repro.targets import BUILTIN_TARGET_CLASSES

from conftest import emit

ROUNDS = 12


def measure(target, use_checkpoints):
    """Campaigns/second with the given state-provision policy."""
    provider = StateProvider(target, use_checkpoints)
    mutator = OperationMutator(target.operation_space(), n_threads=2,
                               ops_per_thread=4)
    seed = mutator.initial_seed()
    config = PMRaceConfig(snapshot_images=False)
    start = time.monotonic()
    for index in range(ROUNDS):
        state = provider.provide()
        run_campaign(target, state, seed.threads,
                     SeededRandomPolicy(index), config)
    elapsed = time.monotonic() - start
    return ROUNDS / elapsed


def run_figure10():
    rows = []
    for cls in BUILTIN_TARGET_CLASSES:
        target = cls()
        without = measure(target, use_checkpoints=False)
        with_cp = measure(target, use_checkpoints=True)
        rows.append({
            "system": cls.NAME,
            "pool_api": "libpmem" if cls.USES_LIBPMEM else "libpmemobj",
            "no_cp_exec_s": "%.1f" % without,
            "cp_exec_s": "%.1f" % with_cp,
            "speedup": "%.2fx" % (with_cp / without),
            "_speedup": with_cp / without,
        })
    return rows


def test_figure10_checkpoints(benchmark):
    rows = benchmark.pedantic(run_figure10, rounds=1, iterations=1)
    text = render_table(
        rows, ["system", "pool_api", "no_cp_exec_s", "cp_exec_s", "speedup"],
        title="Figure 10: fuzzing speed with/without in-memory checkpoints")
    emit("figure10_checkpoints", text)

    pmdk_speedups = [row["_speedup"] for row in rows
                     if row["pool_api"] == "libpmemobj"]
    memcached = next(row for row in rows
                     if row["system"] == "memcached-pmem")
    # every libpmemobj workload benefits from checkpoints...
    assert all(speedup > 1.05 for speedup in pmdk_speedups), pmdk_speedups
    # ...and gains far more than the libpmem workload does
    assert max(pmdk_speedups) > memcached["_speedup"]
