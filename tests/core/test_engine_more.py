"""Additional engine tests: budgets, merging, multi-seed runs."""

import pytest

from repro.core import PMRace, PMRaceConfig, fuzz_parallel
from repro.detect import Verdict

from .toy_target import ToyTarget


def run(**overrides):
    options = {"max_campaigns": 15, "max_seeds": 6, "base_seed": 2}
    options.update(overrides)
    return PMRace(ToyTarget(), PMRaceConfig(**options)).run()


class TestBudgets:
    def test_single_campaign(self):
        assert run(max_campaigns=1).campaigns == 1

    def test_max_seeds_limits_corpus(self):
        result = run(max_seeds=1, max_campaigns=200)
        # one seed, bounded rounds per seed -> far fewer than the cap
        assert result.campaigns < 200


class TestMerge:
    def test_merge_dedups(self):
        a = run(base_seed=1)
        before = len(a.inconsistencies)
        a.merge(run(base_seed=1))  # identical run adds nothing
        assert len(a.inconsistencies) == before

    def test_merge_accumulates_campaigns(self):
        a = run(base_seed=1)
        b = run(base_seed=2)
        campaigns = a.campaigns + b.campaigns
        a.merge(b)
        assert a.campaigns == campaigns

    def test_merge_extends_timeline_monotonically(self):
        a = run(base_seed=1)
        a.merge(run(base_seed=2))
        indexes = [c for c, _t, _b, _a in a.coverage_timeline]
        assert indexes == sorted(indexes)

    def test_merge_regroups_bugs(self):
        a = run(base_seed=1)
        b = run(base_seed=2)
        a.merge(b)
        ids = [report.bug_id for report in a.bug_reports]
        assert ids == list(range(1, len(ids) + 1))

    def test_merge_first_times_offset(self):
        a = run(base_seed=1)
        b = run(base_seed=2)
        a_first = a.first_inter_time
        a.merge(b)
        assert a.first_inter_time == a_first  # first hit stays first


class TestFuzzTarget:
    """Serial multi-seed runs: ``fuzz_parallel`` with ``processes=1``."""

    def test_multiple_seeds_merged(self):
        result = fuzz_parallel(ToyTarget,
                               PMRaceConfig(max_campaigns=8, max_seeds=3),
                               seeds=(1, 2, 3), processes=1)
        assert result.campaigns == 24

    def test_config_not_mutated(self):
        config = PMRaceConfig(max_campaigns=5, max_seeds=2, base_seed=99)
        fuzz_parallel(ToyTarget, config, seeds=(1,), processes=1)
        assert config.base_seed == 99

    def test_default_config(self):
        result = fuzz_parallel(ToyTarget,
                               PMRaceConfig(max_campaigns=3, max_seeds=2),
                               seeds=(5,), processes=1)
        assert result.campaigns == 3


class TestVerdictAccounting:
    def test_by_verdict_partition(self):
        result = run()
        records = result.inter_inconsistencies
        partitioned = sum(len(result.by_verdict(records, verdict))
                          for verdict in Verdict)
        assert partitioned == len(records)

    def test_op_errors_zero_for_valid_space(self):
        assert run().op_errors == 0
