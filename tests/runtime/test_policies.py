"""Scheduling policy tests."""

import random

import pytest

from repro.runtime import (
    DelayInjectionPolicy,
    RoundRobinPolicy,
    Scheduler,
    SeededRandomPolicy,
)


class FakeThread:
    def __init__(self, tid):
        self.tid = tid
        self.sleep_steps = 0


class FakeScheduler:
    threads = []


class TestRoundRobin:
    def test_rotates(self):
        policy = RoundRobinPolicy()
        threads = [FakeThread(i) for i in range(3)]
        sched = FakeScheduler()
        sched.threads = threads
        assert policy.pick(sched, threads, threads[0]).tid == 1
        assert policy.pick(sched, threads, threads[2]).tid == 0

    def test_no_prev_picks_first(self):
        policy = RoundRobinPolicy()
        threads = [FakeThread(i) for i in range(3)]
        sched = FakeScheduler()
        sched.threads = threads
        assert policy.pick(sched, threads, None) is threads[0]

    def test_skips_missing(self):
        policy = RoundRobinPolicy()
        threads = [FakeThread(i) for i in range(4)]
        sched = FakeScheduler()
        sched.threads = threads
        candidates = [threads[0], threads[3]]
        assert policy.pick(sched, candidates, threads[1]) is threads[3]


class TestSeededRandom:
    def test_reproducible(self):
        threads = [FakeThread(i) for i in range(4)]
        sched = FakeScheduler()
        picks1 = [SeededRandomPolicy(9).pick(sched, threads, None).tid
                  for _ in range(1)]
        policy_a = SeededRandomPolicy(9)
        policy_b = SeededRandomPolicy(9)
        seq_a = [policy_a.pick(sched, threads, None).tid for _ in range(20)]
        seq_b = [policy_b.pick(sched, threads, None).tid for _ in range(20)]
        assert seq_a == seq_b
        assert picks1[0] == seq_a[0]

    def test_reset_restores_sequence(self):
        threads = [FakeThread(i) for i in range(4)]
        sched = FakeScheduler()
        policy = SeededRandomPolicy(5)
        first = [policy.pick(sched, threads, None).tid for _ in range(10)]
        policy.reset()
        again = [policy.pick(sched, threads, None).tid for _ in range(10)]
        assert first == again

    def test_reseed_changes_sequence(self):
        threads = [FakeThread(i) for i in range(4)]
        sched = FakeScheduler()
        policy = SeededRandomPolicy(5)
        first = [policy.pick(sched, threads, None).tid for _ in range(20)]
        policy.reseed(6)
        second = [policy.pick(sched, threads, None).tid for _ in range(20)]
        assert first != second

    def test_pick_draws_what_random_choice_draws(self):
        # pick inlines Random.choice; the picks and the RNG state after
        # them must be identical, whatever the candidate count.
        sched = FakeScheduler()
        for seed in range(200):
            policy = SeededRandomPolicy(seed)
            reference = random.Random(seed)
            counts = random.Random(-seed).choices(range(1, 10), k=40)
            for n in list(range(1, 10)) + counts:
                threads = [FakeThread(i) for i in range(n)]
                assert policy.pick(sched, threads, None) is \
                    reference.choice(threads)
            assert policy.rng.getstate() == reference.getstate()

    def test_pick_from_nothing_raises(self):
        with pytest.raises(IndexError):
            SeededRandomPolicy(1).pick(FakeScheduler(), [], None)


class TestDelayInjection:
    def test_injects_sleeps_on_op(self):
        policy = DelayInjectionPolicy(seed=1, delay_prob=1.0,
                                      max_delay_steps=3)
        thread = FakeThread(0)
        policy.on_yield(None, thread, "op")
        assert 1 <= thread.sleep_steps <= 3

    def test_no_delay_on_spin(self):
        policy = DelayInjectionPolicy(seed=1, delay_prob=1.0)
        thread = FakeThread(0)
        policy.on_yield(None, thread, "spin")
        assert thread.sleep_steps == 0

    def test_zero_probability(self):
        policy = DelayInjectionPolicy(seed=1, delay_prob=0.0)
        thread = FakeThread(0)
        for _ in range(50):
            policy.on_yield(None, thread, "op")
        assert thread.sleep_steps == 0

    def test_integrates_with_scheduler(self):
        scheduler = Scheduler(DelayInjectionPolicy(seed=3, delay_prob=0.5))
        done = []

        def worker(tid):
            for _ in range(20):
                scheduler.yield_point("op")
            done.append(tid)

        for tid in range(3):
            scheduler.spawn(lambda tid=tid: worker(tid))
        assert scheduler.run().ok
        assert sorted(done) == [0, 1, 2]
