"""Pinned schedule fingerprints for every built-in target.

Each target fuzzes 6 campaigns at seed 7 in-process, and the test pins
what the cooperative scheduler did (total and spin yield steps, run
outcomes) and what the pipeline found (record counts by kind and
verdict). A scheduler optimisation that claims identical schedules must
leave every number here unchanged; any drift is a behaviour change that
has to be explained and re-pinned deliberately.

Only counts are pinned, never stack strings or call-site names, so the
pins hold on every supported Python version.
"""

from collections import Counter

import pytest

from repro.core import PMRaceConfig, fuzz_parallel
from repro.obs.metrics import Metrics
from repro.targets.registry import target_names

SEED = 7
CAMPAIGNS = 6

#: target -> (steps, spin steps, outcome counts, {kind/verdict: records})
PINNED = {
    "P-CLHT": (15111, 6057, {"ok": 6},
               {"inter/bug": 5, "intra/bug": 2, "sync/bug": 1,
                "sync/validated_fp": 3}),
    "clevel hashing": (6422, 1059, {"ok": 6},
                       {"inter/validated_fp": 1, "inter/whitelisted_fp": 2,
                        "intra/validated_fp": 1}),
    "CCEH": (13355, 4283, {"ok": 6}, {"intra/bug": 1, "sync/bug": 1}),
    "FAST-FAIR": (47256, 22360, {"ok": 6}, {}),
    "memcached-pmem": (8653, 309, {"ok": 6},
                       {"inter/bug": 8, "inter/validated_fp": 8,
                        "intra/bug": 2, "intra/validated_fp": 7}),
    "pmring": (1784, 270, {"ok": 6}, {"intra/bug": 1}),
    "txkv": (14546, 10045, {"ok": 6},
             {"inter/bug": 2, "inter/validated_fp": 1, "intra/bug": 1,
              "intra/validated_fp": 1, "sync/validated_fp": 1}),
}

OUTCOME_PREFIX = "scheduler.outcome."


def fingerprint(name):
    metrics = Metrics()
    result = fuzz_parallel(name, PMRaceConfig(max_campaigns=CAMPAIGNS),
                           seeds=(SEED,), processes=1, metrics=metrics)
    assert result.campaigns == CAMPAIGNS
    outcomes = {metric[len(OUTCOME_PREFIX):]: metrics.value(metric)
                for metric in metrics.snapshot()
                if metric.startswith(OUTCOME_PREFIX)}
    records = Counter(
        "%s/%s" % (record.kind, record.verdict.value)
        for record in list(result.inconsistencies)
        + list(result.sync_inconsistencies))
    return (metrics.value("scheduler.steps"),
            metrics.value("scheduler.spin_steps"), outcomes, dict(records))


def test_every_builtin_target_is_pinned():
    assert sorted(PINNED) == sorted(target_names())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_schedule_fingerprint(name):
    assert fingerprint(name) == PINNED[name]
