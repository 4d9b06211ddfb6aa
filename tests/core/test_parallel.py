"""Fault-tolerant parallel fuzzing service tests (§5).

Covers the guarantees the service makes beyond plain ``Pool.map``:
streaming merge into a fresh result, failed workers reported once under
their own seed, per-worker config isolation, worker statistics, and the
``RunResult.merge`` time-offset semantics the merge relies on.
"""

import copy
import os
import time

import pytest

from repro.core import (
    PMRaceConfig,
    RunResult,
    WorkerStats,
    fuzz_parallel,
)
from repro.core.engine import HangRecord
from repro.detect.whitelist import Whitelist

from .toy_target import ToyTarget


def small_config(**overrides):
    options = {"max_campaigns": 8, "max_seeds": 3}
    options.update(overrides)
    return PMRaceConfig(**options)


class FlakyFactory:
    """Raises until a marker file exists, then builds ToyTargets.

    The marker file makes the fault injection visible across processes,
    so the same factory works on the in-process and the pool path.
    """

    def __init__(self, marker):
        self.marker = str(marker)

    def __call__(self):
        if not os.path.exists(self.marker):
            with open(self.marker, "w") as handle:
                handle.write("crashed once\n")
            raise RuntimeError("injected worker fault")
        return ToyTarget()


class BrokenFactory:
    """Every construction fails."""

    def __call__(self):
        raise RuntimeError("permanently broken target")


class HangingFactory:
    """Stalls far longer than any test timeout."""

    def __call__(self):
        time.sleep(60)
        return ToyTarget()


class HangFirstAttemptsFactory:
    """Hangs the first ``hangs`` constructions, then builds ToyTargets.

    Each hanging call drops a unique marker file first, so the count is
    visible across pool processes: later seeds (run by fresh processes
    after the stuck ones are killed) see the quota filled and proceed.
    """

    def __init__(self, marker_dir, hangs=2):
        self.marker_dir = str(marker_dir)
        self.hangs = hangs

    def __call__(self):
        if len(os.listdir(self.marker_dir)) < self.hangs:
            with open(os.path.join(self.marker_dir,
                                   "hang-%d" % os.getpid()), "w"):
                pass
            time.sleep(60)
        return ToyTarget()


class TestFaultTolerance:
    def test_worker_fault_is_reported_inprocess(self, tmp_path):
        factory = FlakyFactory(tmp_path / "marker")
        result = fuzz_parallel(factory, small_config(), seeds=(1, 2),
                               processes=1)
        # The run completed despite the injected crash, which is
        # recorded under the seed it hit and not run again.
        assert result.campaigns == 8
        assert [(stats.seed, stats.status)
                for stats in result.worker_stats] == \
            [(1, "failed"), (2, "ok")]
        assert "injected worker fault" in result.worker_stats[0].error

    def test_worker_fault_is_reported_multiprocess(self, tmp_path):
        factory = FlakyFactory(tmp_path / "marker")
        result = fuzz_parallel(factory, small_config(), seeds=(1, 2),
                               processes=2)
        # Both workers may race past the marker check and crash; each
        # seed still leaves exactly one entry, under its own seed.
        assert sorted(stats.seed for stats in result.worker_stats) == [1, 2]
        assert any(stats.status == "failed"
                   for stats in result.worker_stats)
        ok = sum(stats.status == "ok" for stats in result.worker_stats)
        assert result.campaigns == 8 * ok

    def test_failed_seeds_are_reported_not_replaced(self):
        result = fuzz_parallel(BrokenFactory(), seeds=(1, 2), processes=1)
        assert result.campaigns == 0
        assert [(stats.seed, stats.status)
                for stats in result.worker_stats] == \
            [(1, "failed"), (2, "failed")]

    def test_worker_timeout_written_off(self):
        # A budget under 0.1 s pins the note's formatting too.
        start = time.monotonic()
        result = fuzz_parallel(HangingFactory(), small_config(),
                               seeds=(1,), processes=2,
                               worker_timeout=0.05)
        assert time.monotonic() - start < 30
        assert result.campaigns == 0
        assert [(stats.status, stats.error)
                for stats in result.worker_stats] == \
            [("timeout", "worker exceeded 0.05s")]

    def test_retry_behind_stuck_workers_still_runs(self, tmp_path):
        """Liveness: seeds queued behind hung workers still get a slot.
        With every slot held by a hung worker, a queued seed must not
        age past the timeout while it waits (the clock starts at the
        worker's own start report), and the stuck processes are killed
        so the pool can run what is queued."""
        factory = HangFirstAttemptsFactory(tmp_path, hangs=2)
        start = time.monotonic()
        result = fuzz_parallel(factory, small_config(), seeds=(1, 2, 3, 4),
                               processes=2, worker_timeout=1.5)
        assert time.monotonic() - start < 60
        statuses = sorted(stats.status for stats in result.worker_stats)
        assert statuses == ["ok", "ok", "timeout", "timeout"]
        assert sorted(stats.seed for stats in result.worker_stats) == \
            [1, 2, 3, 4]
        assert result.campaigns == 16

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            fuzz_parallel(ToyTarget, small_config(), seeds=())


class TestMergeIsolation:
    def test_worker_results_never_mutated(self):
        """Merging folds into a fresh result; the sources are untouched,
        including two same-seed sessions whose retained corpora
        overlap."""
        from repro.core import PMRace
        a = PMRace(ToyTarget(), small_config(base_seed=1)).run()
        b = PMRace(ToyTarget(), small_config(base_seed=2)).run()
        twin = PMRace(ToyTarget(), small_config(base_seed=1)).run()
        before = (a.campaigns, a.duration, len(a.candidates),
                  len(a.inconsistencies), len(a.sync_inconsistencies),
                  len(a.coverage_timeline), a.config.base_seed,
                  len(a.bug_reports))
        corpora = copy.deepcopy((a.corpus_seeds, twin.corpus_seeds))
        assert {e["digest"] for e in a.corpus_seeds} & \
            {e["digest"] for e in twin.corpus_seeds}
        merged = RunResult(a.target_name, small_config())
        merged.merge(a)
        merged.merge(b)
        merged.merge(twin)
        after = (a.campaigns, a.duration, len(a.candidates),
                 len(a.inconsistencies), len(a.sync_inconsistencies),
                 len(a.coverage_timeline), a.config.base_seed,
                 len(a.bug_reports))
        assert before == after
        assert (a.corpus_seeds, twin.corpus_seeds) == corpora
        assert merged.campaigns == a.campaigns + b.campaigns \
            + twin.campaigns

    def test_merged_config_claims_no_worker_seed(self):
        config = small_config(base_seed=99)
        result = fuzz_parallel(ToyTarget, config, seeds=(1, 2),
                               processes=1)
        assert result.config.base_seed == 99
        assert config.base_seed == 99  # caller's object untouched
        # All worker seeds are carried on the stats instead.
        assert {stats.seed for stats in result.worker_stats} == {1, 2}

    def test_config_deepcopied_per_worker(self, monkeypatch):
        """The in-process path must not share the caller's whitelist."""
        import repro.core.parallel as parallel
        seen = []

        class SpyPMRace:
            def __init__(self, target, cfg, tracer=None, metrics=None):
                self.cfg = cfg
                seen.append(cfg)

            def run(self):
                return RunResult("toy", self.cfg)

        monkeypatch.setattr(parallel, "PMRace", SpyPMRace)
        whitelist = Whitelist()
        config = small_config(whitelist=whitelist)
        fuzz_parallel(ToyTarget, config, seeds=(1, 2), processes=1)
        assert len(seen) == 2
        for cfg in seen:
            assert cfg is not config
            assert cfg.whitelist is not whitelist
        assert seen[0].whitelist is not seen[1].whitelist

    def test_progress_streams_partial_merges(self):
        calls = []
        fuzz_parallel(ToyTarget, small_config(), seeds=(1, 2, 3),
                      processes=1,
                      progress=lambda stats, merged:
                      calls.append((stats.seed, merged.campaigns)))
        assert [seed for seed, _ in calls] == [1, 2, 3]
        totals = [campaigns for _, campaigns in calls]
        assert totals == sorted(totals)
        assert totals[-1] == 24

    def test_worker_stats_in_summary_order(self):
        result = fuzz_parallel(ToyTarget, small_config(), seeds=(5, 6),
                               processes=1)
        for stats in result.worker_stats:
            assert stats.status == "ok"
            assert stats.campaigns == 8
            assert stats.duration > 0
            assert stats.execs_per_sec > 0
            payload = stats.to_dict()
            assert payload["seed"] == stats.seed
            assert payload["error"] is None


@pytest.fixture(scope="module")
def pclht_outcomes():
    """Two finished P-CLHT workers (seeds 7 and 13, 20 campaigns each)
    whose merge is order-sensitive: folded in opposite orders, their
    inter bug reports swap numbers."""
    from repro.core.parallel import ParallelFuzzService, _run_worker
    service = ParallelFuzzService("P-CLHT", PMRaceConfig(max_campaigns=20),
                                  seeds=(7, 13), processes=2)
    return [_run_worker(service._payload(job))
            for job in service._initial_jobs()]


class TestWorkerOrder:
    """Workers are folded in worker (seed) order, whichever finishes
    first."""

    def absorbed(self, outcomes, order):
        from repro.core.parallel import ParallelFuzzService
        service = ParallelFuzzService("P-CLHT",
                                      PMRaceConfig(max_campaigns=20),
                                      seeds=(7, 13), processes=2)
        service._initial_jobs()
        outcomes = copy.deepcopy(outcomes)
        for index in order:
            service._absorb(outcomes[index])
        service.merged._regroup()
        return service.merged

    def test_completion_order_does_not_matter(self, pclht_outcomes):
        results = [self.absorbed(pclht_outcomes, order)
                   for order in ((0, 1), (1, 0))]
        reports, workers = [], []
        for result in results:
            reports.append([(r.bug_id, r.kind, r.write_instr, r.read_instr)
                            for r in result.bug_reports])
            workers.append([(s.worker_id, s.seed)
                            for s in result.worker_stats])
        assert len({r.kind for r in results[0].bug_reports}) > 1
        assert reports[0] == reports[1]
        assert workers[0] == workers[1] == [(0, 7), (1, 13)]

    def test_later_worker_waits_for_earlier(self, pclht_outcomes):
        from repro.core.parallel import ParallelFuzzService
        calls = []
        service = ParallelFuzzService(
            "P-CLHT", PMRaceConfig(max_campaigns=20), seeds=(7, 13),
            processes=2,
            progress=lambda stats, merged: calls.append(stats.seed))
        service._initial_jobs()
        outcomes = copy.deepcopy(pclht_outcomes)
        service._absorb(outcomes[1])
        assert calls == [] and service.merged.campaigns == 0
        service._absorb(outcomes[0])
        assert calls == [7, 13]


class TestMergeOffsets:
    """RunResult.merge time/campaign offset semantics."""

    def make(self, campaigns=10, duration=5.0):
        result = RunResult("toy", PMRaceConfig())
        result.campaigns = campaigns
        result.duration = duration
        return result

    def test_first_inter_time_offset_by_prior_duration(self):
        a = self.make(duration=5.0)
        b = self.make()
        b.first_inter_time = 1.5
        a.merge(b)
        assert a.first_inter_time == pytest.approx(6.5)

    def test_first_inter_time_keeps_earliest(self):
        a = self.make()
        a.first_inter_time = 2.0
        b = self.make()
        b.first_inter_time = 0.5
        a.merge(b)
        assert a.first_inter_time == 2.0

    def test_first_candidate_time_offset(self):
        a = self.make(duration=3.0)
        b = self.make()
        b.first_candidate_time = 1.0
        a.merge(b)
        assert a.first_candidate_time == pytest.approx(4.0)

    def test_coverage_timeline_offsets(self):
        a = self.make(campaigns=10, duration=5.0)
        a.coverage_timeline = [(1, 0.1, 3, 1)]
        b = self.make()
        b.coverage_timeline = [(1, 0.2, 4, 2), (2, 0.4, 5, 2)]
        a.merge(b)
        assert a.coverage_timeline == [
            (1, 0.1, 3, 1),
            (11, pytest.approx(5.2), 4, 2),
            (12, pytest.approx(5.4), 5, 2),
        ]

    def test_inter_hit_times_offset(self):
        a = self.make(duration=2.0)
        b = self.make()
        b.inter_hit_times = [(0.5, 1), (1.5, 2)]
        a.merge(b)
        assert a.inter_hit_times == [
            (pytest.approx(2.5), 1), (pytest.approx(3.5), 2)]

    def test_hang_dedup_across_merge(self):
        a = self.make()
        hang = HangRecord([(0, "pm_lock:bucket")], seed_id=1)
        a.hangs = [hang]
        a._hang_signatures = {hang.signature()}
        b = self.make()
        b.hangs = [HangRecord([(1, "pm_lock:bucket")], seed_id=2),
                   HangRecord([(2, "pm_lock:other")], seed_id=3)]
        a.merge(b)
        assert len(a.hangs) == 2
        signatures = {h.signature() for h in a.hangs}
        assert frozenset(["pm_lock:bucket"]) in signatures
        assert frozenset(["pm_lock:other"]) in signatures

    def test_worker_stats_survive_merge(self):
        a = self.make()
        a.worker_stats = [WorkerStats(0, 7)]
        b = self.make()
        b.worker_stats = [WorkerStats(1, 13)]
        a.merge(b)
        assert [stats.seed for stats in a.worker_stats] == [7, 13]
