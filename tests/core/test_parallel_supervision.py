"""Worker supervision: death detection and session resume.

The death test uses a worker that SIGKILLs itself, exercising the pid
supervision that keeps a ``multiprocessing.Pool`` from hanging on a
vanished worker.
"""

import os
import signal
import time

from repro.core import PMRaceConfig
from repro.core.parallel import ParallelFuzzService, WorkerStats, \
    fuzz_parallel
from repro.core.session import Session
from repro.obs import Metrics


def small_config(**overrides):
    options = {"max_campaigns": 8, "max_seeds": 3}
    options.update(overrides)
    return PMRaceConfig(**options)


class SuicideFactory:
    """SIGKILLs its own process after the start report."""

    def __call__(self):
        # Let the Queue feeder thread flush the start report (it
        # carries the pid the parent's liveness check needs) before
        # dying — a real OOM kill can land any time, but this test
        # pins the detected-death path, not the lost-report race.
        time.sleep(0.1)
        os.kill(os.getpid(), signal.SIGKILL)


class TestWorkerStatsRoundTrip:
    def test_from_dict_inverts_to_dict(self):
        stats = WorkerStats(3, 1234)
        stats.fail("boom", status="died")
        stats.campaigns = 7
        stats.duration = 1.5
        assert WorkerStats.from_dict(stats.to_dict()).to_dict() == \
            stats.to_dict()


class TestDeadWorkerSupervision:
    def test_killed_worker_is_detected_and_reported(self):
        """A SIGKILLed pool worker never completes its result handle;
        the pid supervision must notice and record one 'died' entry
        under the worker's own seed — instead of hanging forever, and
        without running the seed again."""
        metrics = Metrics()
        result = fuzz_parallel(
            SuicideFactory(), small_config(), seeds=(7,), processes=2,
            metrics=metrics)
        assert [(s.seed, s.status) for s in result.worker_stats] == \
            [(7, "died")]
        assert "died without reporting" in result.worker_stats[0].error
        assert metrics.counter("parallel.workers_died").value == 1
        assert metrics.counter("parallel.attempts").value == 1
        assert result.campaigns == 0


class TestSessionResume:
    def test_resume_skips_completed_workers(self, tmp_path):
        session = Session.open(str(tmp_path / "session"), "pmring",
                               "parallel", (7, 13), small_config())
        first = ParallelFuzzService("pmring", small_config(),
                                    seeds=(7, 13), processes=1,
                                    session=session).run()
        assert first.interrupted is None
        resumed_session = Session.open(str(tmp_path / "session"),
                                       "pmring", "parallel", (7, 13),
                                       small_config(), resume=True)
        service = ParallelFuzzService("pmring", small_config(),
                                      seeds=(7, 13), processes=1,
                                      session=resumed_session)
        assert service._initial_jobs() == []
        again = service.run()
        assert again.campaigns == first.campaigns
        assert len(again.worker_stats) == len(first.worker_stats)

    def test_resume_of_finished_session_with_default_pool(self, tmp_path):
        """Nothing left to run: the default pool size would be zero."""
        directory = str(tmp_path / "session")
        fuzz_parallel("pmring", small_config(), seeds=(7,), processes=1,
                      session=Session.open(directory, "pmring", "parallel",
                                           (7,), small_config()))
        resumed = fuzz_parallel(
            "pmring", small_config(), seeds=(7,),
            session=Session.open(directory, "pmring", "parallel", (7,),
                                 small_config(), resume=True))
        assert resumed.campaigns == 8
        assert [s.status for s in resumed.worker_stats] == ["ok"]
