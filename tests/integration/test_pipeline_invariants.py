"""Cross-cutting invariants of the whole detection pipeline."""

import pytest

from repro.core import PMRace, PMRaceConfig
from repro.detect import Verdict
from repro.targets import PclhtTarget


@pytest.fixture(scope="module")
def result():
    config = PMRaceConfig(max_campaigns=50, max_seeds=14, base_seed=7)
    return PMRace(PclhtTarget(), config).run()


class TestPipelineInvariants:
    def test_every_inconsistency_has_a_candidate(self, result):
        candidate_pairs = {(c.write_instr, c.read_instr)
                           for c in result.candidates}
        for record in result.inconsistencies:
            assert (record.write_instr, record.read_instr) in \
                candidate_pairs

    def test_inconsistency_kind_consistent_with_candidate(self, result):
        for record in result.inconsistencies:
            expected = "inter" if record.candidate.cross_thread else "intra"
            assert record.kind == expected

    def test_all_validated(self, result):
        for record in result.inconsistencies:
            assert record.verdict is not Verdict.PENDING
        for record in result.sync_inconsistencies:
            assert record.verdict is not Verdict.PENDING

    def test_crash_images_pool_sized(self, result):
        sizes = {len(r.crash_image) for r in result.inconsistencies
                 if r.crash_image is not None}
        assert sizes == {PclhtTarget.POOL_SIZE}

    def test_bug_reports_cover_all_bug_records(self, result):
        bug_records = [r for r in result.inconsistencies
                       if r.verdict is Verdict.BUG]
        bug_records += [r for r in result.sync_inconsistencies
                        if r.verdict is Verdict.BUG]
        grouped = sum(len(report.records)
                      for report in result.bug_reports
                      if report.kind != "hang")
        assert grouped == len(bug_records)

    def test_candidates_have_stacks(self, result):
        assert any(candidate.stack for candidate in result.candidates)

    def test_sync_images_contain_lock_value(self, result):
        for record in result.sync_inconsistencies:
            word = bytes(record.crash_image)[record.addr:record.addr + 8]
            assert word != b"\x00" * 8

    def test_timeline_is_monotonic(self, result):
        branches = [b for _c, _t, b, _a in result.coverage_timeline]
        aliases = [a for _c, _t, _b, a in result.coverage_timeline]
        assert branches == sorted(branches)
        assert aliases == sorted(aliases)

    def test_annotation_count_stable(self, result):
        assert result.annotation_count == 4
