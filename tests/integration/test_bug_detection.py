"""End-to-end bug detection: PMRace finds the paper's bugs (Table 2).

These are the heaviest tests in the suite: each runs a bounded seeded
fuzzing session against one re-implemented target and checks that the
expected bug classes are reported with the right verdicts.
"""

import pytest

from repro.core import PMRaceConfig, fuzz_parallel
from repro.core.results import expected_bugs_for, match_expected
from repro.detect import Verdict
from repro.targets import (
    CcehTarget,
    ClevelTarget,
    FastFairTarget,
    MemcachedTarget,
    PclhtTarget,
)


def fuzz(target, campaigns=70, seeds=(7, 13), **overrides):
    options = {"max_campaigns": campaigns, "max_seeds": 16}
    options.update(overrides)
    return fuzz_parallel(target, PMRaceConfig(**options), seeds=seeds,
                         processes=1)


@pytest.fixture(scope="module")
def pclht_result():
    return fuzz(PclhtTarget)


@pytest.fixture(scope="module")
def cceh_result():
    return fuzz(CcehTarget)


@pytest.fixture(scope="module")
def clevel_result():
    return fuzz(ClevelTarget)


@pytest.fixture(scope="module")
def fastfair_result():
    return fuzz(FastFairTarget, campaigns=110, max_seeds=22,
                seeds=(7, 42))


@pytest.fixture(scope="module")
def memcached_result():
    return fuzz(MemcachedTarget)


class TestPclht:
    def test_inter_bug_found(self, pclht_result):
        """Bug 1: insert through the unflushed table pointer."""
        bugs = [b for b in pclht_result.bug_reports if b.kind == "inter"]
        assert any("_resize" in (b.write_instr or "") for b in bugs)

    def test_sync_bug_found(self, pclht_result):
        """Bug 2: bucket locks not re-initialized."""
        sync_bugs = [r for r in pclht_result.sync_inconsistencies
                     if r.verdict is Verdict.BUG]
        assert {r.annotation_name for r in sync_bugs} == {"bucket_lock"}

    def test_benign_sync_filtered(self, pclht_result):
        """3 of 4 annotated lock types are re-initialized: validated FPs."""
        fps = [r for r in pclht_result.sync_inconsistencies
               if r.verdict is Verdict.VALIDATED_FP]
        assert {r.annotation_name for r in fps} == \
            {"resize_lock", "gc_lock", "global_lock"}

    def test_intra_bug_found(self, pclht_result):
        """Bug 3: migration through the unflushed table_new."""
        bugs = [b for b in pclht_result.bug_reports if b.kind == "intra"]
        assert bugs

    def test_candidate_bug4_found(self, pclht_result):
        """Bug 4: lock-free reads of unflushed keys (candidate only)."""
        assert any("pclht:get" in (c.read_instr or "")
                   for c in pclht_result.candidates)

    def test_hang_bug5_found(self, pclht_result):
        """Bug 5: missing unlock in update leads to a hang."""
        assert any("pm_lock:bucket" in reason
                   for hang in pclht_result.hangs
                   for reason in hang.signature())

    def test_all_five_expected_bugs(self, pclht_result):
        for bug in expected_bugs_for("P-CLHT"):
            assert match_expected(bug, pclht_result), \
                "missed paper bug %d" % bug.bug_id


class TestCceh:
    def test_sync_bug6(self, cceh_result):
        sync_bugs = [r for r in cceh_result.sync_inconsistencies
                     if r.verdict is Verdict.BUG]
        assert {r.annotation_name for r in sync_bugs} == {"segment_lock"}

    def test_intra_bug7(self, cceh_result):
        bugs = [b for b in cceh_result.bug_reports if b.kind == "intra"]
        assert any("_double_directory" in (b.write_instr or "")
                   for b in bugs)

    def test_no_inter_bugs(self, cceh_result):
        """CCEH's flush discipline: candidates yes, confirmed inter no."""
        assert cceh_result.inter_candidates
        assert not [b for b in cceh_result.bug_reports
                    if b.kind == "inter"]


class TestClevel:
    def test_no_bugs(self, clevel_result):
        assert clevel_result.bug_reports == []

    def test_whitelisted_allocator_inconsistencies(self, clevel_result):
        whitelisted = [r for r in clevel_result.inter_inconsistencies
                       if r.verdict is Verdict.WHITELISTED_FP]
        assert whitelisted

    def test_figure7_intra_validated(self, clevel_result):
        intra = clevel_result.intra_inconsistencies
        assert intra
        assert all(r.verdict in (Verdict.VALIDATED_FP,
                                 Verdict.WHITELISTED_FP) for r in intra)


class TestFastFair:
    def test_sibling_pointer_bug8(self, fastfair_result):
        bugs = [b for b in fastfair_result.bug_reports if b.kind == "inter"]
        assert any("_split_leaf" in (b.write_instr or "") for b in bugs)

    def test_many_candidates(self, fastfair_result):
        """The endurable-transient design floods the candidate list."""
        assert len(fastfair_result.inter_candidates) >= 5

    def test_no_sync_annotations(self, fastfair_result):
        assert fastfair_result.annotation_count == 0
        assert not fastfair_result.sync_inconsistencies


class TestMemcached:
    def test_value_bug_found(self, memcached_result):
        """Bugs 9/10: value written from a non-persisted value read."""
        bugs = [b for b in memcached_result.bug_reports
                if "_write_value" in (b.write_instr or "")
                or "cmd_" in (b.write_instr or "")]
        assert bugs

    def test_lru_fps_validated(self, memcached_result):
        """The index rebuild turns next/prev flows into validated FPs."""
        fps = [r for r in memcached_result.inconsistencies
               if r.verdict is Verdict.VALIDATED_FP]
        assert len(fps) >= 3

    def test_most_inconsistencies_of_all_targets(self, memcached_result,
                                                 pclht_result):
        assert len(memcached_result.inconsistencies) >= \
            len(pclht_result.intra_inconsistencies)

    def test_multiple_unique_inter_bugs(self, memcached_result):
        inter = [b for b in memcached_result.bug_reports
                 if b.kind == "inter"]
        assert len(inter) >= 2
