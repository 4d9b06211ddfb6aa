"""Null-observability overhead guard.

The observability layer must be pay-for-what-you-use: with no tracer
and no metrics registry attached (the default), every hot-path hook
reduces to one ``is not None`` check against a pre-bound instrument
slot. This test measures execs/sec on the toy target with observability
compiled all the way out (``profile=False``, no tracer/metrics) against
the shipped default (null path), interleaving the measurements and
taking best-of-N to shed scheduler noise, and fails if the null path
costs more than 5%.

Marked ``slow``: it exists to bound a performance property, not logic,
and runs in the dedicated slow-tier CI job.
"""

import time

import pytest

from repro.core import PMRaceConfig, fuzz_parallel

from ..core.toy_target import ToyTarget

pytestmark = pytest.mark.slow

CAMPAIGNS = 40
MIN_ROUNDS = 3
MAX_ROUNDS = 15
MAX_OVERHEAD = 0.05


def execs_per_sec(profile):
    config = PMRaceConfig(max_campaigns=CAMPAIGNS, profile=profile)
    start = time.perf_counter()
    result = fuzz_parallel(ToyTarget, config, seeds=(7,), processes=1)
    elapsed = time.perf_counter() - start
    assert result.campaigns == CAMPAIGNS
    return result.campaigns / elapsed


def test_null_observability_overhead_under_5_percent():
    # alternate the two configurations so drift (thermal, co-tenant
    # load) hits both sides equally; best-of-N discards the noise.
    # Single runs on a loaded host can swing far more than the 5%
    # budget, so keep adding rounds until the bound holds (a true
    # regression keeps failing all MAX_ROUNDS best-of attempts).
    baseline = null_path = 0.0
    for round_index in range(MAX_ROUNDS):
        baseline = max(baseline, execs_per_sec(profile=False))
        null_path = max(null_path, execs_per_sec(profile=True))
        if round_index + 1 >= MIN_ROUNDS and \
                null_path >= baseline * (1.0 - MAX_OVERHEAD):
            break
    overhead = 1.0 - null_path / baseline
    assert overhead < MAX_OVERHEAD, \
        "null observability path costs %.1f%% (baseline %.1f execs/s, " \
        "null path %.1f execs/s; budget %.0f%%)" \
        % (100 * overhead, baseline, null_path, 100 * MAX_OVERHEAD)


def test_default_config_keeps_profiling_on():
    # the guard compares against profile=False, so make sure the
    # shipped default actually exercises the guarded path
    assert PMRaceConfig().profile is True
    result = fuzz_parallel(ToyTarget, PMRaceConfig(max_campaigns=2),
                           seeds=(7,), processes=1)
    assert result.profile["executions"] == 2
    assert result.profile["execs_per_sec"] > 0
