"""The access trace and lazy events on pinned fuzzing sessions.

A campaign appends one trace entry per PM access and, with only the
checker registered, builds a ``PmAccessEvent`` for exactly the accesses
the checker takes: loads that saw non-persisted writers, tainted stores
and stores to annotated addresses. A generic observer still sees every
access, and the per-event reference collectors fed what it sees compute
the coverage and profile the campaign folded from its trace.
"""

import pytest

import repro.core.campaign as campaign_module
import repro.core.engine as engine
from repro.core import FeedbackCollector, PMRace, PMRaceConfig
from repro.core.campaign import run_campaign
from repro.instrument import hooks
from repro.instrument.events import (LOAD_CLEAN, LOAD_DIRTY, STORE_CLEAN,
                                     STORE_DIRTY, Observer, PmAccessEvent)
from repro.targets import make_target

from .test_coverage import reference_feedback

CAMPAIGNS = 12

_HOW = {"store": STORE_DIRTY, "cas": STORE_DIRTY, "ntstore": STORE_CLEAN}


def key(event):
    return (event.kind, event.addr, event.size, event.tid, event.instr_id)


def entry(event):
    """The trace entry of the access ``event`` describes."""
    if event.kind == "load":
        how = LOAD_DIRTY if event.nonpersisted else LOAD_CLEAN
    else:
        how = _HOW.get(event.kind)
    return (event.tid, event.instr_id, event.addr, event.size, how)


class Everything(Observer):
    """A generic observer of every access; notes the ones the checker
    takes, judged when each happens."""

    def __init__(self, annotations):
        self.annotations = annotations
        self.events = []
        self.checker_takes = []

    def on_load(self, event):
        self.events.append(event)
        if event.nonpersisted:
            self.checker_takes.append(key(event))

    def on_store(self, event):
        self.events.append(event)
        annotations = self.annotations
        if event.taint or annotations is not None and \
                annotations.lookup(event.addr, event.size) is not None:
            self.checker_takes.append(key(event))

    def on_flush(self, event):
        self.events.append(event)

    on_fence = on_flush


def fuzz(monkeypatch, target, observe):
    """Per campaign of a pinned session: (its trace, the keys of the
    events it built, the ``Everything`` observer or None, the result)."""
    campaigns = []
    built = []
    traces = []

    class SpyEvent(PmAccessEvent):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(key(self))

    class KeepTrace(FeedbackCollector):
        def on_trace(self, trace):
            traces.append(list(trace))
            super().on_trace(trace)

    def probe(target_, state, *args, **kwargs):
        observer = Everything(state.annotations) if observe else None
        if observer is not None:
            kwargs["extra_observers"] = [observer]
        del built[:]
        result = run_campaign(target_, state, *args, **kwargs)
        campaigns.append((traces[-1], list(built), observer, result))
        return result

    monkeypatch.setattr(hooks, "PmAccessEvent", SpyEvent)
    monkeypatch.setattr(campaign_module, "FeedbackCollector", KeepTrace)
    monkeypatch.setattr(engine, "run_campaign", probe)
    PMRace(make_target(target), PMRaceConfig(
        max_campaigns=CAMPAIGNS, base_seed=7)).run()
    assert len(campaigns) == CAMPAIGNS
    return campaigns


@pytest.mark.parametrize("target", ["P-CLHT", "memcached-pmem"])
def test_events_only_for_what_the_checker_takes(monkeypatch, target):
    lazy = fuzz(monkeypatch, target, observe=False)
    full = fuzz(monkeypatch, target, observe=True)
    taken = 0
    for (trace, built, _none, result), (full_trace, _built, observer,
                                        full_result) in zip(lazy, full):
        # The observer changes nothing the campaign computes ...
        assert trace == full_trace
        assert result.outcome.steps == full_result.outcome.steps
        assert result.branch_edges == full_result.branch_edges
        # ... sees every access, one trace entry each ...
        assert [entry(event) for event in observer.events] == trace
        # ... and without it only the checker's accesses built events.
        assert built == observer.checker_takes
        taken += len(built)
        edges, pairs, profile = reference_feedback(observer.events)
        assert result.branch_edges == edges
        assert result.alias_pairs == pairs
        assert result.profiler.profile == profile
    # Most accesses mint nothing, and build no event.
    accesses = sum(len(trace) for trace, *_rest in lazy)
    assert 0 < taken < accesses / 2
