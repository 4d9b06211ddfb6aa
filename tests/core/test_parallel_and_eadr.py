"""Concurrent fuzzing (§5) and eADR-platform (§6.6) tests."""

import pytest

from repro.core import PMRace, PMRaceConfig, fuzz_parallel
from repro.pmem import PersistentMemory

from .toy_target import ToyTarget


class TestEadrMemory:
    def test_stores_immediately_durable(self):
        mem = PersistentMemory(4096, eadr=True)
        mem.store(0, b"hello", thread_id=0)
        assert mem.is_persisted(0, 5)
        assert bytes(mem.crash_image())[:5] == b"hello"

    def test_no_dirty_writers(self):
        mem = PersistentMemory(4096, eadr=True)
        mem.store(0, b"x" * 8, thread_id=0)
        assert mem.nonpersisted_writers(0, 8) == []

    def test_flushes_harmless(self):
        mem = PersistentMemory(4096, eadr=True)
        mem.store(0, b"x" * 8, thread_id=0)
        mem.clwb(0, thread_id=0)
        mem.sfence(thread_id=0)
        assert mem.is_persisted(0, 8)


class TestEadrEngine:
    def run(self, eadr):
        config = PMRaceConfig(max_campaigns=20, max_seeds=6, base_seed=2,
                              eadr=eadr)
        return PMRace(ToyTarget(), config).run()

    def test_eadr_eliminates_inter_inconsistencies(self):
        """§6.6: with persistent caches the flush-gap bugs vanish..."""
        result = self.run(eadr=True)
        assert not result.candidates
        assert not result.inconsistencies

    def test_eadr_keeps_sync_bugs(self):
        """...but unreleased persistent locks still survive crashes."""
        result = self.run(eadr=True)
        assert result.sync_inconsistencies

    def test_adr_baseline_detects_both(self):
        result = self.run(eadr=False)
        assert result.inconsistencies
        assert result.sync_inconsistencies


class TestParallelFuzzing:
    def test_inprocess_fallback(self):
        config = PMRaceConfig(max_campaigns=10, max_seeds=4)
        result = fuzz_parallel("P-CLHT", config, seeds=(7, 13),
                               processes=1)
        assert result.campaigns == 20

    def test_multiprocess_matches_serial_findings(self):
        config = PMRaceConfig(max_campaigns=15, max_seeds=5)
        parallel = fuzz_parallel("P-CLHT", config, seeds=(7, 13),
                                 processes=2)
        serial = fuzz_parallel("P-CLHT", config, seeds=(7, 13),
                               processes=1)
        assert parallel.campaigns == serial.campaigns
        assert len(parallel.inconsistencies) == len(serial.inconsistencies)
        assert len(parallel.sync_inconsistencies) == \
            len(serial.sync_inconsistencies)

    def test_factory_callable(self):
        config = PMRaceConfig(max_campaigns=8, max_seeds=3)
        result = fuzz_parallel(ToyTarget, config, seeds=(1, 2),
                               processes=1)
        assert result.target_name == "toy"
        assert result.campaigns == 16

    def test_merged_reports_regrouped(self):
        config = PMRaceConfig(max_campaigns=15, max_seeds=5)
        result = fuzz_parallel(ToyTarget, config, seeds=(1, 2, 3),
                               processes=2)
        ids = [report.bug_id for report in result.bug_reports]
        assert ids == sorted(ids)
        assert result.bug_reports
