"""Worker supervision: retry backoff, death detection, and
session-backed attempt ledgers.

The backoff tests inject a fake clock/sleep and a pinned jitter RNG so
the exact schedule is asserted without any real waiting; the death test
uses a worker that SIGKILLs itself, exercising the pid supervision that
keeps a ``multiprocessing.Pool`` from hanging on a vanished worker.
"""

import os
import random
import signal
import time

import pytest

from repro.core import PMRaceConfig
from repro.core.parallel import ParallelFuzzService, WorkerStats, \
    fuzz_parallel
from repro.core.seeding import retry_seed
from repro.core.session import Session
from repro.obs import Metrics

from .toy_target import ToyTarget


def small_config(**overrides):
    options = {"max_campaigns": 8, "max_seeds": 3}
    options.update(overrides)
    return PMRaceConfig(**options)


class BrokenFactory:
    """Every attempt raises — exhausts the whole retry budget."""

    def __call__(self):
        raise RuntimeError("factory is broken")


class SuicideFactory:
    """First attempt SIGKILLs its own process (after the start report);
    later attempts succeed. Picklable: coordination via a marker file."""

    def __init__(self, marker):
        self.marker = marker

    def __call__(self):
        if not os.path.exists(self.marker):
            with open(self.marker, "w"):
                pass
            # Let the Queue feeder thread flush the start report (it
            # carries the pid the parent's liveness check needs) before
            # dying — a real OOM kill can land any time, but this test
            # pins the detected-death path, not the lost-report race.
            time.sleep(0.1)
            os.kill(os.getpid(), signal.SIGKILL)
        return ToyTarget()


class FakeClock:
    """Injectable monotonic clock: time only advances when someone
    sleeps, so backoff tests take zero wall-clock time."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


def expected_delays(seed, base, cap, attempts):
    rng = random.Random(seed)
    return [min(cap, base * 2 ** (attempt - 1))
            * (0.5 + 0.5 * rng.random())
            for attempt in range(1, attempts + 1)]


class TestRetryBackoff:
    def run_broken(self, fake, max_retries=3, **kwargs):
        kwargs.setdefault("backoff_rng", random.Random(42))
        return fuzz_parallel(
            BrokenFactory(), small_config(), seeds=(1,), processes=1,
            max_retries=max_retries, clock=fake.clock, sleep=fake.sleep,
            **kwargs)

    def test_schedule_is_exact_and_exponential(self):
        """One worker, three retries: each dispatch sleeps exactly its
        own attempt's delay (previous delays already 'elapsed' on the
        fake clock), doubling per attempt inside the jitter band."""
        fake = FakeClock()
        start = time.monotonic()
        result = self.run_broken(fake, retry_backoff=0.5,
                                 retry_backoff_cap=30.0)
        assert time.monotonic() - start < 2.0  # no real sleeping
        assert fake.sleeps == pytest.approx(
            expected_delays(42, 0.5, 30.0, 3))
        for attempt, delay in enumerate(fake.sleeps, start=1):
            lo = 0.5 * 0.5 * 2 ** (attempt - 1)
            assert lo <= delay < 2 * lo
        assert [s.status for s in result.worker_stats] == ["failed"] * 4
        assert [s.attempt for s in result.worker_stats] == [0, 1, 2, 3]

    def test_cap_bounds_the_delay(self):
        fake = FakeClock()
        self.run_broken(fake, retry_backoff=0.5, retry_backoff_cap=0.6)
        assert fake.sleeps == pytest.approx(
            expected_delays(42, 0.5, 0.6, 3))
        assert all(delay <= 0.6 for delay in fake.sleeps)

    def test_zero_backoff_never_sleeps(self):
        fake = FakeClock()
        self.run_broken(fake, retry_backoff=0.0)
        assert fake.sleeps == []

    def test_schedule_is_deterministic_for_a_seed_set(self):
        """Same seeds, no injected rng: two runs draw identical jitter
        (the rng is seeded from the run's seeds)."""
        first, second = FakeClock(), FakeClock()
        for fake in (first, second):
            fuzz_parallel(BrokenFactory(), small_config(), seeds=(1, 2),
                          processes=1, max_retries=2, clock=fake.clock,
                          sleep=fake.sleep)
        assert first.sleeps == second.sleeps
        assert first.sleeps  # the schedule actually has delays in it

    def test_retry_seeds_still_chain_through_backoff(self):
        fake = FakeClock()
        result = self.run_broken(fake, max_retries=2)
        seeds = [s.seed for s in result.worker_stats]
        assert seeds == [1, retry_seed(1, 1),
                         retry_seed(retry_seed(1, 1), 2)]


class TestWorkerStatsRoundTrip:
    def test_from_dict_inverts_to_dict(self):
        stats = WorkerStats(3, 1234, attempt=2)
        stats.fail("boom", status="died")
        stats.campaigns = 7
        stats.duration = 1.5
        stats.corpus_seeded = 4
        assert WorkerStats.from_dict(stats.to_dict()).to_dict() == \
            stats.to_dict()


class TestDeadWorkerSupervision:
    def test_killed_worker_is_detected_and_retried(self, tmp_path):
        """A SIGKILLed pool worker never completes its result handle;
        the pid supervision must notice, record a 'died' attempt, and
        retry — instead of hanging forever."""
        metrics = Metrics()
        result = fuzz_parallel(
            SuicideFactory(str(tmp_path / "died.marker")),
            small_config(), seeds=(7,), processes=2, max_retries=1,
            retry_backoff=0.05, metrics=metrics)
        statuses = [s.status for s in result.worker_stats]
        assert statuses == ["died", "ok"]
        assert "died without reporting" in result.worker_stats[0].error
        assert metrics.counter("parallel.workers_died").value == 1
        assert result.campaigns > 0


class TestSessionRetryLedger:
    def open_session(self, tmp_path, resume=False):
        return Session.open(str(tmp_path / "session"), "toy-broken",
                            "parallel", (1,), small_config(),
                            resume=resume)

    def run_broken(self, session, max_retries):
        return fuzz_parallel(BrokenFactory(), small_config(), seeds=(1,),
                             processes=1, max_retries=max_retries,
                             retry_backoff=0.0, session=session)

    def test_resume_continues_attempt_counts(self, tmp_path):
        first = self.run_broken(self.open_session(tmp_path),
                                max_retries=1)
        assert [s.attempt for s in first.worker_stats] == [0, 1]
        # Resume with a larger budget: attempts continue at 2, with the
        # seed chained through every earlier retry derivation.
        resumed = self.run_broken(self.open_session(tmp_path, resume=True),
                                  max_retries=3)
        # Restored attempts 0-1 from the checkpoint, fresh attempts 2-3,
        # with the retry seed chained through every earlier derivation.
        assert [s.attempt for s in resumed.worker_stats] == [0, 1, 2, 3]
        seed1 = retry_seed(1, 1)
        seed2 = retry_seed(seed1, 2)
        assert [s.seed for s in resumed.worker_stats] == \
            [1, seed1, seed2, retry_seed(seed2, 3)]

    def test_resume_does_not_regrant_exhausted_budget(self, tmp_path):
        first = self.run_broken(self.open_session(tmp_path),
                                max_retries=1)
        assert len(first.worker_stats) == 2
        resumed = self.run_broken(self.open_session(tmp_path, resume=True),
                                  max_retries=1)
        # attempt 2 exceeds the budget that was already spent: no new
        # attempts, just the restored ledger.
        assert [s.attempt for s in resumed.worker_stats] == [0, 1]
        assert resumed.interrupted is None

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
