"""Golden-run regression test: the full pipeline under a pinned seed.

Fuzz the toy target, detect, and post-failure validate with fixed seeds
(7, 13) and exactly 12 campaigns per seed, then assert the *exact*
findings. The engine is deterministic by construction (seeded Mersenne
twister, insertion-ordered structures, no wall-clock decisions), so any
drift here means a behavior change in the fuzzing/detection pipeline —
which must be either a bug or an intentional change that re-pins these
numbers.
"""

from collections import Counter

from repro.core import PMRaceConfig, fuzz_parallel
from repro.detect.records import Verdict

from ..core.toy_target import COUNTER, LOCK, MIRROR, SHADOW, ToyTarget

SEEDS = (7, 13)
CAMPAIGNS_PER_SEED = 12


def golden_run():
    return fuzz_parallel(ToyTarget,
                         PMRaceConfig(max_campaigns=CAMPAIGNS_PER_SEED),
                         seeds=SEEDS, processes=1)


class TestGoldenRun:
    @classmethod
    def setup_class(cls):
        cls.result = golden_run()

    def test_campaign_count(self):
        assert self.result.campaigns == len(SEEDS) * CAMPAIGNS_PER_SEED

    def test_exact_summary(self):
        summary = self.result.summary()
        assert summary["inter_candidates"] == 4
        assert summary["inter"] == 3
        assert summary["intra"] == 3
        assert summary["sync"] == 1
        assert summary["inter_validated_fp"] == 1
        assert summary["inter_whitelisted_fp"] == 0
        assert summary["sync_validated_fp"] == 0
        assert summary["bugs"] == 3
        assert summary["hangs"] == 0

    def test_first_inconsistency_kind_and_addr(self):
        first = self.result.inconsistencies[0]
        assert first.kind == "inter"
        assert first.side_effect_addr == COUNTER
        assert first.side_effect_size == 8
        assert first.verdict is Verdict.BUG

    def test_exact_inconsistency_set(self):
        found = sorted((r.kind, r.side_effect_addr)
                       for r in self.result.inconsistencies)
        assert found == [("inter", COUNTER), ("inter", MIRROR),
                         ("inter", SHADOW), ("intra", COUNTER),
                         ("intra", MIRROR), ("intra", SHADOW)]

    def test_exact_verdict_counts(self):
        records = list(self.result.inconsistencies) \
            + list(self.result.sync_inconsistencies)
        verdicts = Counter(r.verdict.value for r in records)
        assert dict(verdicts) == {"bug": 5, "validated_fp": 2}

    def test_mirror_validated_as_false_positive(self):
        # recovery rewrites MIRROR, so its inconsistency must validate away
        mirror = [r for r in self.result.inconsistencies
                  if r.side_effect_addr == MIRROR]
        assert mirror and all(r.verdict is Verdict.VALIDATED_FP
                              for r in mirror)

    def test_sync_inconsistency_is_the_lock(self):
        (record,) = self.result.sync_inconsistencies
        assert record.annotation_name == "toy_lock"
        assert record.addr == LOCK
        assert record.verdict is Verdict.BUG

    def test_bug_report_kinds(self):
        kinds = sorted(report.kind for report in self.result.bug_reports)
        assert kinds == ["inter", "intra", "sync"]

    def test_rerun_is_bit_identical(self):
        other = golden_run()
        assert other.summary() == self.result.summary()
        assert [(r.kind, r.side_effect_addr, r.verdict)
                for r in other.inconsistencies] \
            == [(r.kind, r.side_effect_addr, r.verdict)
                for r in self.result.inconsistencies]
