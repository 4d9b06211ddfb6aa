"""Scheduler tests: determinism, hang detection, budgets, errors."""

import os
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import scheduler as scheduler_module
from repro.runtime import (
    CarrierPool,
    DelayInjectionPolicy,
    RecordingPolicy,
    RoundRobinPolicy,
    Scheduler,
    SeededRandomPolicy,
    ThreadKilled,
    ThreadState,
)


def collect_run(policy, n_threads=3, steps=20, **kwargs):
    """Run n threads that log (tid, i) at each yield; returns the log."""
    scheduler = Scheduler(policy, **kwargs)
    log = []

    def worker(tid):
        for i in range(steps):
            log.append((tid, i))
            scheduler.yield_point("op")

    for tid in range(n_threads):
        scheduler.spawn(lambda tid=tid: worker(tid), "w%d" % tid)
    outcome = scheduler.run()
    return outcome, log


class TestBasicScheduling:
    def test_all_threads_complete(self):
        outcome, log = collect_run(RoundRobinPolicy())
        assert outcome.ok
        assert len(log) == 60

    def test_round_robin_interleaves(self):
        _outcome, log = collect_run(RoundRobinPolicy(), n_threads=2, steps=5)
        tids = [tid for tid, _ in log]
        assert 0 in tids and 1 in tids
        # strict alternation after both have started
        assert tids[2:6] in ([0, 1, 0, 1], [1, 0, 1, 0])

    def test_single_thread(self):
        outcome, log = collect_run(RoundRobinPolicy(), n_threads=1, steps=7)
        assert outcome.ok
        assert log == [(0, i) for i in range(7)]

    def test_no_threads(self):
        assert Scheduler(RoundRobinPolicy()).run().ok

    def test_steps_counted(self):
        outcome, _ = collect_run(RoundRobinPolicy(), n_threads=2, steps=10)
        assert outcome.steps == 20

    def test_spawn_after_run_rejected(self):
        scheduler = Scheduler(RoundRobinPolicy())
        scheduler.spawn(lambda: None)
        scheduler.run()
        with pytest.raises(RuntimeError):
            scheduler.spawn(lambda: None)


class TestDeterminism:
    def test_same_seed_same_interleaving(self):
        _, log1 = collect_run(SeededRandomPolicy(42))
        _, log2 = collect_run(SeededRandomPolicy(42))
        assert log1 == log2

    def test_different_seed_different_interleaving(self):
        logs = {tuple(collect_run(SeededRandomPolicy(seed))[1])
                for seed in range(6)}
        assert len(logs) > 1


class TestHangDetection:
    def test_all_threads_spinning(self):
        scheduler = Scheduler(RoundRobinPolicy(), spin_hang_limit=20)

        def spinner():
            while True:
                scheduler.yield_point("spin", "stuck")

        scheduler.spawn(spinner)
        scheduler.spawn(spinner)
        outcome = scheduler.run()
        assert outcome.status == "hang"
        assert ("thread-0", "stuck") in outcome.blocked

    def test_single_thread_spin_cap(self):
        scheduler = Scheduler(RoundRobinPolicy(), spin_hang_limit=20,
                              thread_spin_limit=50)
        progress = []

        def spinner():
            while True:
                scheduler.yield_point("spin", "lock:x")

        def worker():
            for i in range(10_000):
                progress.append(i)
                scheduler.yield_point("op")

        scheduler.spawn(spinner)
        scheduler.spawn(worker)
        outcome = scheduler.run()
        assert outcome.status == "hang"
        # the worker never had to finish for the hang to be declared
        assert len(progress) < 10_000

    def test_op_yield_resets_streak(self):
        scheduler = Scheduler(RoundRobinPolicy(), spin_hang_limit=10,
                              thread_spin_limit=40)

        def mixed():
            for _ in range(200):
                scheduler.yield_point("spin", "brief")
                scheduler.yield_point("op")

        scheduler.spawn(mixed)
        assert scheduler.run().ok

    def test_budget(self):
        scheduler = Scheduler(RoundRobinPolicy(), max_steps=50)

        def runner():
            while True:
                scheduler.yield_point("op")

        scheduler.spawn(runner)
        outcome = scheduler.run()
        assert outcome.status == "budget"
        assert outcome.steps >= 50

    def test_blocked_queries(self):
        scheduler = Scheduler(RoundRobinPolicy(), spin_hang_limit=1000)
        seen = []

        def spinner():
            for _ in range(30):
                scheduler.yield_point("spin", "x")
            seen.append(scheduler.some_thread_blocked(20))
            seen.append(scheduler.all_threads_blocked(20))
            seen.append(scheduler.all_threads_blocked(10_000))

        scheduler.spawn(spinner)
        scheduler.run()
        assert seen == [True, True, False]


class TestErrors:
    def test_thread_exception_reported(self):
        scheduler = Scheduler(RoundRobinPolicy())

        def boom():
            scheduler.yield_point("op")
            raise ValueError("kaboom")

        scheduler.spawn(boom)
        scheduler.spawn(lambda: None)
        outcome = scheduler.run()
        assert outcome.status == "error"
        assert isinstance(outcome.error, ValueError)

    def test_other_threads_killed_on_hang(self):
        scheduler = Scheduler(RoundRobinPolicy(), spin_hang_limit=10,
                              thread_spin_limit=20)
        finished = []

        def spinner():
            while True:
                scheduler.yield_point("spin", "dead")

        def slow():
            try:
                while True:
                    scheduler.yield_point("op")
            except ThreadKilled:
                finished.append("killed")
                raise

        scheduler.spawn(spinner)
        scheduler.spawn(slow)
        outcome = scheduler.run()
        assert outcome.status in ("hang", "budget")

    def test_yield_outside_simulation_is_noop(self):
        scheduler = Scheduler(RoundRobinPolicy())
        assert scheduler.yield_point("op") is None  # driver thread
        assert scheduler.steps == 0

    @pytest.mark.parametrize("n_threads", [1, 3])
    def test_yield_point_returns_the_calling_thread(self, n_threads):
        # With one thread every yield picks the caller again (no
        # handoff); with three, most yields hand off and come back.
        scheduler = Scheduler(RoundRobinPolicy())
        returned = []

        def worker():
            for _ in range(4):
                returned.append((scheduler.current(),
                                 scheduler.yield_point("op")))

        threads = [scheduler.spawn(worker) for _ in range(n_threads)]
        assert scheduler.run().ok
        assert len(returned) == 4 * n_threads
        assert all(thread is current for current, thread in returned)
        assert {thread for _current, thread in returned} == set(threads)


class TestDelaySleeping:
    def test_sleeping_thread_skipped(self):
        scheduler = Scheduler(RoundRobinPolicy())
        order = []

        def sleeper():
            order.append("s-start")
            thread = scheduler.current()
            thread.sleep_steps = 5
            scheduler.yield_point("op")
            order.append("s-end")

        def runner():
            for _ in range(3):
                order.append("r")
                scheduler.yield_point("op")

        scheduler.spawn(sleeper)
        scheduler.spawn(runner)
        assert scheduler.run().ok
        # runner makes progress while the sleeper is parked
        assert order.index("s-end") > order.index("r")


# ----------------------------------------------------------------------
# park(): parked steps must reproduce the explicit spin loop exactly

def run_program(program, policy, mode, scheduler_cls=Scheduler, **limits):
    """Run ``program`` (one instruction list per thread) on ``policy``.

    Instructions: ``("op",)``, ``("lock", i)``, ``("unlock", i)``,
    ``("set", f)``, ``("wait", f)`` (spin until flag ``f`` is set) and
    ``("stall", n)`` (n op yields, like the sync-point writer wait).
    ``mode`` is "park" (blocking via :meth:`Scheduler.park`) or "loop"
    (the explicit ``yield_point`` loop park must be equivalent to).
    Returns everything a schedule can be told apart by, plus the
    scheduler.
    """
    recording = RecordingPolicy(policy)
    scheduler = scheduler_cls(recording, **limits)
    holders, flags, log = {}, set(), []

    def wait(kind, reason, blocked):
        if mode == "park":
            scheduler.park(kind, reason, blocked)
            return
        scheduler.yield_point(kind, reason)
        while blocked():
            scheduler.yield_point(kind, reason)

    def worker(tid, instructions):
        thread = scheduler.current()
        for pc, (op, *args) in enumerate(instructions):
            log.append((tid, pc))
            if op == "op":
                scheduler.yield_point("op")
            elif op == "lock":
                lock = args[0]
                held = lambda: holders.get(lock) is not None  # noqa: E731
                if held():
                    wait("spin", "lock:%d" % lock, held)
                holders[lock] = tid
                scheduler.yield_point("op")
            elif op == "unlock":
                holders[args[0]] = None
                scheduler.yield_point("op")
            elif op == "set":
                flags.add(args[0])
                scheduler.yield_point("op")
            elif op == "wait":
                flag = args[0]
                if flag not in flags:
                    wait("spin", "flag:%d" % flag,
                         lambda: flag not in flags)
            elif op == "stall":
                start = thread.steps
                wait("op", None, lambda: thread.steps - start < args[0])

    for tid, instructions in enumerate(program):
        scheduler.spawn(lambda tid=tid, ins=instructions: worker(tid, ins),
                        "w%d" % tid)
    outcome = scheduler.run()
    fingerprint = (outcome.status, outcome.steps, outcome.blocked,
                   scheduler.spin_steps, recording.decisions,
                   [t.steps for t in scheduler.threads], log)
    return fingerprint, scheduler


def assert_equivalent(make_policy, program, **limits):
    parked, park_sched = run_program(program, make_policy(), "park",
                                     **limits)
    looped, loop_sched = run_program(program, make_policy(), "loop",
                                     **limits)
    assert parked == looped
    assert loop_sched.parked_steps == 0
    return parked, park_sched


#: Two threads contending for one lock while a third waits on a flag the
#: second sets, with a writer-style stall after the set.
CONTENDED = [
    [("lock", 0), ("op",), ("op",), ("op",), ("unlock", 0), ("op",)],
    [("lock", 0), ("op",), ("unlock", 0), ("set", 0), ("stall", 12),
     ("op",)],
    [("wait", 0), ("op",), ("lock", 0), ("unlock", 0)],
]

POLICIES = {
    "seeded": lambda: SeededRandomPolicy(11),
    "round-robin": RoundRobinPolicy,
    "delay": lambda: DelayInjectionPolicy(11, delay_prob=0.5,
                                          max_delay_steps=4),
}


class TestParkEquivalence:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_lock_and_flag_program(self, policy):
        fingerprint, scheduler = assert_equivalent(
            POLICIES[policy], CONTENDED, spin_hang_limit=200)
        assert fingerprint[0] == "ok"
        assert scheduler.parked_steps > 0

    @pytest.mark.parametrize("seed", range(8))
    def test_many_seeds(self, seed):
        assert_equivalent(lambda: SeededRandomPolicy(seed), CONTENDED,
                          spin_hang_limit=200)

    def test_hang_on_leaked_lock(self):
        program = [[("lock", 0), ("op",)],
                   [("op",), ("lock", 0)],
                   [("wait", 3)]]
        fingerprint, scheduler = assert_equivalent(
            lambda: SeededRandomPolicy(3), program, spin_hang_limit=25,
            thread_spin_limit=60)
        status, _steps, blocked = fingerprint[:3]
        assert status == "hang"
        assert ("w1", "lock:0") in blocked and ("w2", "flag:3") in blocked
        assert scheduler.parked_steps > 0

    def test_budget_during_parked_steps(self):
        program = [[("stall", 500)], [("wait", 0)], [("op",)] * 5]
        fingerprint, scheduler = assert_equivalent(
            lambda: DelayInjectionPolicy(5), program, max_steps=120,
            spin_hang_limit=1000)
        assert fingerprint[0] == "budget"
        assert fingerprint[1] == 120
        assert scheduler.parked_steps > 0

    def test_counters_flushed_once_per_run(self):
        from repro.obs.metrics import Metrics

        metrics = Metrics()
        scheduler = Scheduler(SeededRandomPolicy(1), metrics=metrics)
        flag = []

        def waiter():
            scheduler.park("spin", "flag", lambda: not flag)

        def setter():
            for _ in range(20):
                scheduler.yield_point("op")
            flag.append(True)

        scheduler.spawn(waiter)
        scheduler.spawn(setter)
        assert scheduler.run().ok
        assert scheduler.parked_steps > 0
        assert metrics.value("scheduler.parked_steps") == \
            scheduler.parked_steps
        assert metrics.value("scheduler.handoffs") == scheduler.handoffs
        # every step is the caller's own, a parked one, or a handoff away
        assert 0 < scheduler.handoffs <= scheduler.steps

    def test_park_outside_simulation_runs_the_loop(self):
        scheduler = Scheduler(RoundRobinPolicy())
        calls = []

        def blocked():
            calls.append(None)
            return len(calls) < 3

        scheduler.park("spin", "driver", blocked)
        assert len(calls) == 3 and scheduler.steps == 0


def instruction_lists(n_locks=2, n_flags=2):
    single = st.one_of(
        st.just(("op",)),
        st.tuples(st.just("set"), st.integers(0, n_flags - 1)),
        st.tuples(st.just("wait"), st.integers(0, n_flags - 1)),
        st.tuples(st.just("stall"), st.integers(1, 6)))
    critical = st.builds(
        lambda lock, body, leak: [("lock", lock)] + body
        + ([] if leak else [("unlock", lock)]),
        st.integers(0, n_locks - 1), st.lists(single, max_size=3),
        st.booleans())
    segments = st.lists(st.one_of(single.map(lambda i: [i]), critical),
                        min_size=1, max_size=5)
    return segments.map(lambda segs: [i for seg in segs for i in seg])


@settings(max_examples=40, deadline=None)
@given(program=st.lists(instruction_lists(), min_size=2, max_size=3),
       policy=st.sampled_from(sorted(POLICIES)),
       seed=st.integers(0, 2**16))
def test_park_equivalence_on_random_programs(program, policy, seed):
    make = {"seeded": lambda: SeededRandomPolicy(seed),
            "round-robin": RoundRobinPolicy,
            "delay": lambda: DelayInjectionPolicy(seed, delay_prob=0.4,
                                                  max_delay_steps=3)}[policy]
    assert_equivalent(make, program, max_steps=600, spin_hang_limit=20,
                      thread_spin_limit=50)


# ----------------------------------------------------------------------
# the hang scan runs only from the scan streak on; outcomes must equal a
# full scan at every spin step

class FullScanScheduler(Scheduler):
    """Reference: budget and both hang conditions over every live thread
    at every spin step."""

    def _step_locked(self, thread, kind, reason):
        self.steps += 1
        thread.steps += 1
        if kind == "spin":
            thread.spin_streak += 1
            self.spin_steps += 1
            thread.blocked_reason = reason
            live = self._live_threads
            if self.steps >= self.max_steps:
                self._abort_locked("budget")
            elif all(t.spin_streak >= self.spin_hang_limit for t in live) \
                    or any(t.spin_streak >= self.thread_spin_limit
                           for t in live):
                self._blocked_report = [
                    (t.name, t.blocked_reason) for t in live
                    if t.spin_streak >= self.spin_hang_limit]
                self._abort_locked("hang")
        else:
            thread.spin_streak = 0
            thread.blocked_reason = None
            if self.steps >= self.max_steps:
                self._abort_locked("budget")
        if self._aborting:
            return False
        self.policy.on_yield(self, thread, kind)
        return True


def assert_limits_match_full_scan(make_policy, program, mode, **limits):
    """Run ``program`` under Scheduler and FullScanScheduler; returns the
    (identical) fingerprint and the Scheduler."""
    runs = []
    for cls in (Scheduler, FullScanScheduler):
        fingerprint, scheduler = run_program(
            program, make_policy(), mode, scheduler_cls=cls, **limits)
        runs.append((fingerprint + (scheduler.parked_steps,
                                    scheduler.handoffs), scheduler))
    assert runs[0][0] == runs[1][0]
    return runs[0]


#: w0 works long enough for w1 and w2 to spin past any limit used below,
#: then finishes without setting the flag they wait on.
SPINNERS_OUTLIVE_WORKER = [
    [("stall", 120), ("op",)],
    [("wait", 0)],
    [("op",), ("wait", 0)],
]


class TestScanStreak:
    @pytest.mark.parametrize("mode", ["park", "loop"])
    @pytest.mark.parametrize("seed", range(4))
    def test_default_limits(self, mode, seed):
        # w1 leaks lock 0: w0 and w2 spin until the default limits.
        program = [[("op",), ("lock", 0)],
                   [("lock", 0), ("op",)],
                   [("op",), ("wait", 1)]]
        fingerprint, scheduler = assert_limits_match_full_scan(
            lambda: SeededRandomPolicy(seed), program, mode)
        assert fingerprint[0] == "hang"
        assert scheduler.spin_hang_limit == 400
        fingerprint, _ = assert_limits_match_full_scan(
            lambda: SeededRandomPolicy(seed), CONTENDED, mode)
        assert fingerprint[0] == "ok"

    @pytest.mark.parametrize("mode", ["park", "loop"])
    def test_thread_limit_below_hang_limit(self, mode):
        # A thread spin limit under the hang limit decides the hang.
        program = [[("stall", 400)], [("wait", 0)], [("lock", 0)],
                   [("lock", 0), ("op",)]]
        fingerprint, scheduler = assert_limits_match_full_scan(
            lambda: SeededRandomPolicy(2), program, mode,
            spin_hang_limit=50, thread_spin_limit=20)
        status, _steps, blocked = fingerprint[:3]
        assert status == "hang"
        assert blocked == []  # nobody reached the hang limit
        assert max(t.spin_streak for t in scheduler.threads) == 20

    @pytest.mark.parametrize("mode", ["park", "loop"])
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_all_blocked_after_an_exit(self, mode, policy):
        fingerprint, scheduler = assert_limits_match_full_scan(
            POLICIES[policy], SPINNERS_OUTLIVE_WORKER, mode,
            spin_hang_limit=10, thread_spin_limit=1000)
        status, _steps, blocked = fingerprint[:3]
        log = fingerprint[-3]
        assert status == "hang"
        assert (0, 1) in log  # w0 finished its program
        assert sorted(name for name, _ in blocked) == ["w1", "w2"]
        # "all blocked" became true when w0 exited, not at a crossing:
        # both spinners were already past the hang limit.
        streaks = [t.spin_streak for t in scheduler.threads[1:]]
        assert min(streaks) > 10


@settings(max_examples=30, deadline=None)
@given(program=st.lists(instruction_lists(), min_size=2, max_size=3),
       policy=st.sampled_from(sorted(POLICIES)),
       seed=st.integers(0, 2**16),
       limits=st.sampled_from([(20, 50), (30, 12), (8, 8)]))
def test_scan_streak_on_random_programs(program, policy, seed, limits):
    make = {"seeded": lambda: SeededRandomPolicy(seed),
            "round-robin": RoundRobinPolicy,
            "delay": lambda: DelayInjectionPolicy(seed, delay_prob=0.4,
                                                  max_delay_steps=3)}[policy]
    assert_limits_match_full_scan(make, program, "park", max_steps=600,
                                  spin_hang_limit=limits[0],
                                  thread_spin_limit=limits[1])


# ----------------------------------------------------------------------
# simulated threads run under SCHED_BATCH where the OS offers it; the
# schedule never depends on whether it does

needs_sched_policy = pytest.mark.skipif(
    not hasattr(os, "sched_getscheduler") or not hasattr(os, "SCHED_BATCH"),
    reason="no per-thread scheduling policy on this platform")


def contended_fingerprint():
    fingerprint, scheduler = run_program(
        CONTENDED, SeededRandomPolicy(5), "park", spin_hang_limit=200)
    return fingerprint + (scheduler.handoffs,)


class TestBatchPolicy:
    @needs_sched_policy
    def test_simulated_threads_run_batch_and_driver_keeps_its_policy(self):
        driver_policy = os.sched_getscheduler(0)
        scheduler = Scheduler(RoundRobinPolicy())
        seen = []

        def worker():
            seen.append(os.sched_getscheduler(0))
            scheduler.yield_point("op")

        scheduler.spawn(worker)
        scheduler.spawn(worker)
        assert scheduler.run().ok
        assert seen == [os.SCHED_BATCH] * 2
        assert os.sched_getscheduler(0) == driver_policy

    def test_refused_policy_leaves_the_schedule_unchanged(self, monkeypatch):
        expected = contended_fingerprint()

        def refuse(*_args):
            raise PermissionError("refused")

        monkeypatch.setattr(os, "sched_setscheduler", refuse, raising=False)
        assert contended_fingerprint() == expected

    def test_missing_policy_call_leaves_the_schedule_unchanged(
            self, monkeypatch):
        expected = contended_fingerprint()
        monkeypatch.delattr(os, "sched_setscheduler", raising=False)
        assert contended_fingerprint() == expected


needs_thread_rusage = pytest.mark.skipif(
    scheduler_module.RUSAGE_THREAD is None,
    reason="per-thread rusage is Linux-only")


@needs_thread_rusage
class TestOsSwitches:
    def test_counted_with_a_registry(self):
        from repro.obs.metrics import Metrics

        metrics = Metrics()
        scheduler = Scheduler(RoundRobinPolicy(), metrics=metrics)
        for _ in range(2):
            scheduler.spawn(lambda: [scheduler.yield_point("op")
                                     for _ in range(10)])
        assert scheduler.run().ok
        assert scheduler.os_switches > 0
        assert metrics.value("scheduler.os_switches") == \
            scheduler.os_switches

    def test_second_run_on_a_pool_counts_only_its_own(self):
        """Carrier switches are cumulative; each run charges only those
        between its threads' entry and exit."""
        from repro.obs.metrics import Metrics

        def run(carriers, yields):
            scheduler = Scheduler(RoundRobinPolicy(), metrics=Metrics(),
                                  carriers=carriers)
            for _ in range(2):
                scheduler.spawn(lambda: [scheduler.yield_point("op")
                                         for _ in range(yields)])
            assert scheduler.run().ok
            return scheduler

        with CarrierPool() as carriers:
            first = run(carriers, 200)
            second = run(carriers, 2)
        assert first.handoffs >= 400 and second.handoffs <= 6
        assert first.os_switches > 100
        assert second.os_switches < first.os_switches / 10

    def test_not_read_without_a_registry(self, monkeypatch):
        reads = []
        getrusage = scheduler_module.getrusage

        def spy(who):
            reads.append(who)
            return getrusage(who)

        monkeypatch.setattr(scheduler_module, "getrusage", spy)
        outcome, log = collect_run(RoundRobinPolicy(), n_threads=2, steps=5)
        assert outcome.ok and len(log) == 10
        assert reads == []


# ----------------------------------------------------------------------
# carriers: one OS thread per simulated thread per pool, not per run


def spawn_ops(scheduler, n_threads, yields, log=None):
    for tid in range(n_threads):
        def worker(tid=tid):
            for i in range(yields):
                if log is not None:
                    log.append((tid, i))
                scheduler.yield_point("op")
        scheduler.spawn(worker)


class TestCarrierPool:
    def test_runs_reuse_carriers(self):
        from repro.obs.metrics import Metrics

        before = threading.active_count()
        metrics = Metrics()
        with CarrierPool() as carriers:
            started = []
            for n_threads in (3, 2, 3):
                scheduler = Scheduler(RoundRobinPolicy(), metrics=metrics,
                                      carriers=carriers)
                spawn_ops(scheduler, n_threads, 5)
                assert scheduler.run().ok
                started.append(scheduler.threads_started)
            assert started == [3, 0, 0]
            assert carriers.started == 3
            assert threading.active_count() == before + 3
        assert threading.active_count() == before
        assert metrics.value("scheduler.threads_started") == 3

    def test_more_threads_start_more_carriers(self):
        with CarrierPool() as carriers:
            for n_threads, expected in ((2, 2), (4, 2), (1, 0)):
                scheduler = Scheduler(RoundRobinPolicy(), carriers=carriers)
                spawn_ops(scheduler, n_threads, 3)
                assert scheduler.run().ok
                assert scheduler.threads_started == expected
            assert carriers.started == 4

    def test_private_pool_is_closed_by_the_run(self):
        before = threading.active_count()
        scheduler = Scheduler(RoundRobinPolicy())
        spawn_ops(scheduler, 3, 4)
        assert scheduler.run().ok
        assert scheduler.threads_started == 3
        assert threading.active_count() == before

    def test_shared_and_private_pools_schedule_alike(self):
        def log_of(carriers, seed):
            log = []
            scheduler = Scheduler(SeededRandomPolicy(seed),
                                  carriers=carriers)
            spawn_ops(scheduler, 3, 10, log)
            return scheduler.run().status, log

        with CarrierPool() as carriers:
            shared = [log_of(carriers, seed) for seed in range(5)]
        assert shared == [log_of(None, seed) for seed in range(5)]

    def test_hang_then_ok_run_on_one_pool(self):
        """Threads killed by a hang leave their carriers reusable."""
        def leaked_then_ok(carriers):
            hang = Scheduler(RoundRobinPolicy(), spin_hang_limit=20,
                             carriers=carriers)
            for _ in range(3):
                hang.spawn(lambda: hang.park("spin", "never", lambda: True))
            outcome = hang.run()
            scheduler = Scheduler(SeededRandomPolicy(3), carriers=carriers)
            log = []
            spawn_ops(scheduler, 3, 10, log)
            return outcome.status, outcome.steps, scheduler.run().ok, log

        with CarrierPool() as carriers:
            shared = leaked_then_ok(carriers)
            assert carriers.started == 3
        assert shared[0] == "hang"
        assert shared == leaked_then_ok(None)

    def test_threads_killed_before_their_first_turn_exit(self):
        """A hang before the policy ever picks a thread still runs that
        thread's exit on its carrier, and the carrier is reused."""
        class FirstOnly(RoundRobinPolicy):
            def pick(self, scheduler, runnable, prev):
                return runnable[0]

        with CarrierPool() as carriers:
            for _ in range(2):
                scheduler = Scheduler(FirstOnly(), spin_hang_limit=10,
                                      carriers=carriers)
                ran = []
                scheduler.spawn(lambda: scheduler.park("spin", "never",
                                                       lambda: True))
                for tid in (1, 2):
                    scheduler.spawn(lambda tid=tid: ran.append(tid))
                assert scheduler.run().status == "hang"
                assert ran == []
                assert all(t.state is ThreadState.DONE
                           for t in scheduler.threads)
            assert carriers.started == 3

    def test_carrier_that_misses_its_idle_permit_is_retired(
            self, monkeypatch):
        before = threading.active_count()
        monkeypatch.setattr(CarrierPool, "IDLE_TIMEOUT", 0.05)
        gate = threading.Event()
        with CarrierPool() as carriers:
            scheduler = Scheduler(RoundRobinPolicy(), spin_hang_limit=5,
                                  carriers=carriers)

            def stuck():
                try:
                    scheduler.park("spin", "never", lambda: True)
                finally:
                    gate.wait(5.0)  # still busy after the run ended

            scheduler.spawn(stuck)
            assert scheduler.run().status == "hang"
            again = Scheduler(RoundRobinPolicy(), carriers=carriers)
            spawn_ops(again, 1, 2)
            assert again.run().ok
            assert again.threads_started == 1  # never the retired one
            gate.set()
        for thread in threading.enumerate():
            if thread.name.startswith("carrier-"):
                thread.join(5.0)
        assert threading.active_count() == before

    def test_closed_pool_refuses_runs(self):
        carriers = CarrierPool()
        carriers.close()
        scheduler = Scheduler(RoundRobinPolicy(), carriers=carriers)
        spawn_ops(scheduler, 1, 1)
        with pytest.raises(RuntimeError, match="closed"):
            scheduler.run()
