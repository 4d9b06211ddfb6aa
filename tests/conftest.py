"""Shared fixtures and helpers for the test suite."""

import threading

import pytest

from repro.detect import InconsistencyChecker
from repro.instrument import InstrumentationContext, PmView
from repro.pmem import PmemPool
from repro.runtime import RoundRobinPolicy, Scheduler, SeededRandomPolicy


@pytest.fixture
def pool():
    return PmemPool("test", 64 * 1024)


@pytest.fixture
def ctx():
    return InstrumentationContext()


@pytest.fixture
def os_thread_starts(monkeypatch):
    """Names of the OS threads started while the test runs."""
    names = []
    start = threading.Thread.start

    def counting(thread):
        names.append(thread.name)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return names


def make_harness(pool, policy=None, observers=(), annotations=None,
                 max_steps=30_000, spin_hang_limit=200):
    """(scheduler, view, ctx) wired together for scenario tests."""
    scheduler = Scheduler(policy or RoundRobinPolicy(), max_steps=max_steps,
                          spin_hang_limit=spin_hang_limit)
    context = InstrumentationContext(annotations=annotations)
    for observer in observers:
        context.add_observer(observer)
    view = PmView(pool, scheduler, context)
    return scheduler, view, context


def run_threads(pool, *fns, policy=None, observers=(), annotations=None,
                checker=True, seed=0, **kwargs):
    """Run ``fns`` as simulated threads; returns (outcome, checker, view).

    Each fn receives (view, scheduler).
    """
    policy = policy or SeededRandomPolicy(seed)
    scheduler, view, context = make_harness(
        pool, policy, observers, annotations, **kwargs)
    chk = None
    if checker:
        chk = context.add_observer(InconsistencyChecker(pool))
    for index, fn in enumerate(fns):
        scheduler.spawn(lambda fn=fn: fn(view, scheduler),
                        "t%d" % index)
    outcome = scheduler.run()
    return outcome, chk, view
