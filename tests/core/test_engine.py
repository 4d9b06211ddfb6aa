"""PMRace engine tests on the toy target."""

import pytest

from repro.core import PMRace, PMRaceConfig
from repro.detect import Verdict

from .toy_target import SHADOW, ToyTarget


def run_engine(**overrides):
    options = {"max_campaigns": 25, "max_seeds": 8, "ops_per_thread": 4,
               "base_seed": 2}
    options.update(overrides)
    return PMRace(ToyTarget(), PMRaceConfig(**options)).run()


class TestEngine:
    def test_finds_inter_inconsistency(self):
        result = run_engine()
        assert result.inter_inconsistencies

    def test_validation_splits_fp_and_bug(self):
        result = run_engine()
        verdicts = {r.verdict for r in result.inter_inconsistencies}
        assert Verdict.VALIDATED_FP in verdicts
        assert Verdict.BUG in verdicts

    def test_bug_reports_grouped(self):
        result = run_engine()
        kinds = {report.kind for report in result.bug_reports}
        assert "inter" in kinds
        assert "sync" in kinds  # toy_lock never re-initialized

    def test_coverage_timeline_grows(self):
        result = run_engine()
        assert len(result.coverage_timeline) == result.campaigns
        branches = [b for _c, _t, b, _a in result.coverage_timeline]
        assert branches == sorted(branches)
        assert branches[-1] > 0

    def test_first_hit_times_recorded(self):
        result = run_engine()
        assert result.first_candidate_time is not None
        assert result.first_inter_time is not None
        assert result.inter_hit_times

    def test_budget_respected(self):
        result = run_engine(max_campaigns=5)
        assert result.campaigns == 5

    def test_delay_mode_runs(self):
        result = run_engine(mode="delay", max_campaigns=10)
        assert result.campaigns == 10

    def test_random_mode_runs(self):
        result = run_engine(mode="random", max_campaigns=10)
        assert result.campaigns == 10

    def test_validation_can_be_disabled(self):
        result = run_engine(validate=False, max_campaigns=10)
        assert all(r.verdict is Verdict.PENDING
                   for r in result.inter_inconsistencies)

    def test_ablation_flags(self):
        no_ie = run_engine(enable_interleaving_tier=False, max_campaigns=10)
        no_se = run_engine(enable_seed_tier=False, max_campaigns=10)
        assert no_ie.campaigns == 10
        assert no_se.campaigns == 10

    def test_annotation_count_reported(self):
        result = run_engine(max_campaigns=5)
        assert result.annotation_count == 1

    def test_summary_keys(self):
        summary = run_engine(max_campaigns=5).summary()
        for key in ("target", "campaigns", "inter_candidates", "inter",
                    "bugs", "annotations"):
            assert key in summary

    def test_executions_per_second_positive(self):
        result = run_engine(max_campaigns=5)
        assert result.executions_per_second > 0

    def test_deterministic_given_seed(self):
        a = run_engine(max_campaigns=15)
        b = run_engine(max_campaigns=15)
        assert len(a.inconsistencies) == len(b.inconsistencies)
        assert len(a.candidates) == len(b.candidates)

    def test_shadow_effect_is_bug(self):
        result = run_engine()
        bug_addrs = {r.side_effect_addr
                     for r in result.inter_inconsistencies
                     if r.verdict is Verdict.BUG}
        assert SHADOW in bug_addrs


class TestExplorationTiers:
    """The three §4.2.3 tiers must actually change exploration."""

    def timeline(self, result):
        return [(branch, alias)
                for _c, _t, branch, alias in result.coverage_timeline]

    def test_ablation_tiers_diverge_on_timeline(self):
        budget = {"max_campaigns": 30}
        full = run_engine(**budget)
        no_inter = run_engine(enable_interleaving_tier=False, **budget)
        no_seed = run_engine(enable_seed_tier=False, **budget)
        assert self.timeline(full) != self.timeline(no_inter)
        assert self.timeline(full) != self.timeline(no_seed)
        assert self.timeline(no_inter) != self.timeline(no_seed)

    def test_exec_tier_cutoff_bounds_nonprogressing_rounds(self):
        """A guided interleaving whose execution adds no coverage is
        abandoned instead of burning the rest of its execution budget,
        so a 10x execution budget cannot 10x the campaign count."""
        small = run_engine(execs_per_interleaving=2, max_campaigns=500,
                           max_seeds=4)
        big = run_engine(execs_per_interleaving=20, max_campaigns=500,
                         max_seeds=4)
        assert big.campaigns < 10 * small.campaigns
