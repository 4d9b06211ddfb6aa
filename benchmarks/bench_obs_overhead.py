"""Observability overhead: execs/sec with the layer null and recording.

Two configurations fuzz the toy target with identical budgets:

* ``null``  — the shipped default: tracer/metrics unset, so hot paths
  pay one pre-bound ``is not None`` check per access.
* ``full``  — tracer (to an in-memory sink) plus a live metrics
  registry: everything recording.

Recording everything is allowed to cost real time, so the full path is
only loosely bounded: it must keep more than half the null path's
throughput. A collapse below that would mean a hot-path hook regressed
into per-access work.

Runs standalone too: ``python benchmarks/bench_obs_overhead.py``.
"""

import io
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.core import PMRaceConfig, fuzz_parallel
from repro.core.results import render_table
from repro.obs import Metrics, Tracer

from conftest import emit
from tests.core.toy_target import ToyTarget

CAMPAIGNS = 40
ROUNDS = 5


def measure(with_sinks):
    config = PMRaceConfig(max_campaigns=CAMPAIGNS)
    tracer = Tracer(io.StringIO()) if with_sinks else None
    metrics = Metrics() if with_sinks else None
    start = time.perf_counter()
    result = fuzz_parallel(ToyTarget, config, seeds=(7,), processes=1,
                           tracer=tracer, metrics=metrics)
    elapsed = time.perf_counter() - start
    assert result.campaigns == CAMPAIGNS
    return result.campaigns / elapsed


def run_overhead():
    best = {"null": 0.0, "full": 0.0}
    # interleave both arms so machine-load drift is shared evenly
    for _ in range(ROUNDS):
        best["null"] = max(best["null"], measure(with_sinks=False))
        best["full"] = max(best["full"], measure(with_sinks=True))
    return best


def check_and_emit(best):
    rows = []
    for name, label in (("null", "null path (default)"),
                        ("full", "tracer + metrics recording")):
        rows.append({
            "configuration": label,
            "execs_per_s": "%.1f" % best[name],
            "vs_null": "%+.1f%%" % (100 * (best[name] / best["null"] - 1)),
        })
    text = render_table(
        rows, ["configuration", "execs_per_s", "vs_null"],
        title="Observability overhead (toy target, %d campaigns, "
              "best of %d interleaved rounds)" % (CAMPAIGNS, ROUNDS))
    emit("obs_overhead", text)
    # full recording may cost time, but an order-of-magnitude collapse
    # would mean a hot-path hook regressed into per-access work
    assert best["full"] > best["null"] * 0.5, best


def test_obs_overhead(benchmark):
    best = benchmark.pedantic(run_overhead, rounds=1, iterations=1)
    check_and_emit(best)


if __name__ == "__main__":
    check_and_emit(run_overhead())
