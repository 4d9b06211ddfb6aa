"""Coverage metric tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CoverageSet, FeedbackCollector
from repro.instrument.events import (LOAD_CLEAN, LOAD_DIRTY, STORE_CLEAN,
                                    STORE_DIRTY, Observer, PmAccessEvent)
from repro.pmem.cacheline import WORD_SHIFT


class FakeThread:
    def __init__(self, tid):
        self.tid = tid


# Trace entries ``(tid, site, addr, size, how)``, as PmView appends them.

def load(addr, tid, instr, dirty=False):
    return (tid, instr, addr, 8, LOAD_DIRTY if dirty else LOAD_CLEAN)


def store(addr, tid, instr, nt=False):
    return (tid, instr, addr, 8, STORE_CLEAN if nt else STORE_DIRTY)


def flush(addr, tid, instr):
    return (tid, instr, addr, 0, None)


def fence(tid, instr):
    return (tid, instr, None, 0, None)


def fold(collector, *entries):
    collector.on_trace(entries)


class TestCoverageSet:
    def test_add_new(self):
        cov = CoverageSet()
        assert cov.add("a")
        assert not cov.add("a")
        assert len(cov) == 1

    def test_merge_counts_new(self):
        cov = CoverageSet()
        cov.add("a")
        assert cov.merge({"a", "b", "c"}) == 2
        assert len(cov) == 3

    def test_merge_coverage_set(self):
        a, b = CoverageSet(), CoverageSet()
        a.add("x")
        b.add("x")
        b.add("y")
        assert a.merge(b) == 1

    def test_contains(self):
        cov = CoverageSet()
        cov.add("z")
        assert "z" in cov


class TestBranchCoverage:
    def test_edges_per_thread(self):
        collector = FeedbackCollector()
        fold(collector, load(0, 0, "i1"))
        fold(collector, load(8, 0, "i2"))
        assert ("i1", "i2") in collector.edges

    def test_first_event_edge_from_none(self):
        collector = FeedbackCollector()
        fold(collector, load(0, 0, "i1"))
        assert (None, "i1") in collector.edges

    def test_threads_tracked_separately(self):
        collector = FeedbackCollector()
        fold(collector, load(0, 0, "i1"))
        fold(collector, load(0, 1, "i9"))
        fold(collector, load(8, 0, "i2"))
        assert ("i1", "i2") in collector.edges
        assert ("i9", "i2") not in collector.edges

    def test_all_event_kinds_counted(self):
        collector = FeedbackCollector()
        fold(collector, store(0, 0, "s"))
        fold(collector, flush(0, 0, "f"), fence(0, "fe"))
        assert ("s", "f") in collector.edges
        assert ("f", "fe") in collector.edges


class TestAliasCoverage:
    def test_cross_thread_pair(self):
        collector = FeedbackCollector()
        fold(collector, store(64, 0, "w"))
        fold(collector, load(64, 1, "r", dirty=True))
        assert ("w", "D", "r", "D") in collector.pairs

    def test_same_thread_no_pair(self):
        collector = FeedbackCollector()
        fold(collector, store(64, 0, "w"))
        fold(collector, load(64, 0, "r"))
        assert not collector.pairs

    def test_different_address_no_pair(self):
        collector = FeedbackCollector()
        fold(collector, store(64, 0, "w"))
        fold(collector, load(128, 1, "r"))
        assert not collector.pairs

    def test_persistency_state_distinguishes(self):
        clean = FeedbackCollector()
        fold(clean, store(64, 0, "w", nt=True))
        fold(clean, load(64, 1, "r", dirty=False))
        dirty = FeedbackCollector()
        fold(dirty, store(64, 0, "w"))
        fold(dirty, load(64, 1, "r", dirty=True))
        assert clean.pairs != dirty.pairs

    def test_back_to_back_only(self):
        collector = FeedbackCollector()
        fold(collector, store(64, 0, "w"))
        fold(collector, load(64, 0, "mine"))   # interposes, same thread
        fold(collector, load(64, 1, "r"))
        # the pair recorded is (mine -> r), not (w -> r)
        assert ("mine", "C", "r", "C") in collector.pairs
        assert all(pair[0] != "w" for pair in collector.pairs)

    def test_thread_ids_normalized_out(self):
        a = FeedbackCollector()
        fold(a, store(64, 0, "w"))
        fold(a, load(64, 1, "r", dirty=True))
        b = FeedbackCollector()
        fold(b, store(64, 3, "w"))
        fold(b, load(64, 2, "r", dirty=True))
        assert a.pairs == b.pairs


def access(kind, addr, size, tid, instr, dirty=False):
    how = {"load": LOAD_DIRTY if dirty else LOAD_CLEAN,
           "store": STORE_DIRTY}[kind]
    return (tid, instr, addr, size, how)


class TestAliasCoverageWordGranularity:
    """§4.2.1 identities alias per touched *word*, not per start byte."""

    def test_offset_store_aliases_covering_load(self):
        # store at byte 66 and load at byte 64 touch the same word even
        # though their start addresses differ.
        collector = FeedbackCollector()
        fold(collector, access("store", 66, 2, 0, "w"))
        fold(collector, access("load", 64, 8, 1, "r", dirty=True))
        assert ("w", "D", "r", "D") in collector.pairs

    def test_disjoint_bytes_same_word_alias(self):
        # byte ranges [64,68) and [68,72) are disjoint but share word 8
        collector = FeedbackCollector()
        fold(collector, access("store", 64, 4, 0, "w"))
        fold(collector, access("load", 68, 4, 1, "r", dirty=True))
        assert ("w", "D", "r", "D") in collector.pairs

    def test_multiword_store_pairs_with_each_word(self):
        collector = FeedbackCollector()
        fold(collector, access("store", 64, 16, 0, "w"))
        fold(collector, access("load", 64, 8, 1, "r1", dirty=True))
        fold(collector, access("load", 72, 8, 2, "r2", dirty=True))
        assert ("w", "D", "r1", "D") in collector.pairs
        assert ("w", "D", "r2", "D") in collector.pairs

    def test_different_words_no_pair(self):
        collector = FeedbackCollector()
        fold(collector, access("store", 64, 8, 0, "w"))
        fold(collector, access("load", 72, 8, 1, "r", dirty=True))
        assert not collector.pairs

    def test_zero_size_access_ignored(self):
        collector = FeedbackCollector()
        fold(collector, access("store", 64, 8, 0, "w"))
        fold(collector, access("load", 64, 0, 1, "zero"))
        fold(collector, access("load", 64, 8, 1, "r", dirty=True))
        # the zero-size access neither records a pair nor clobbers the
        # per-word last-access identity
        assert ("w", "D", "r", "D") in collector.pairs
        assert all("zero" not in (pair[0], pair[2])
                   for pair in collector.pairs)


# ----------------------------------------------------------------------
# The trace fold against the three per-event collectors it replaced,
# kept here verbatim as the reference.

class RefBranch(Observer):
    def __init__(self):
        self.edges = set()
        self._prev = {}

    def _record(self, event):
        prev = self._prev.get(event.tid)
        if prev is not None:
            self.edges.add((prev, event.instr_id))
        else:
            self.edges.add((None, event.instr_id))
        self._prev[event.tid] = event.instr_id

    on_load = _record
    on_store = _record
    on_flush = _record
    on_fence = _record


class RefAlias(Observer):
    def __init__(self):
        self.pairs = set()
        self._last = {}

    def _identity(self, event):
        if event.kind == "load":
            state = "D" if event.nonpersisted else "C"
        elif event.kind == "ntstore":
            state = "C"
        else:
            state = "D"
        return (event.instr_id, state, event.tid)

    def _record(self, event):
        size = event.size
        if size <= 0:
            return
        identity = self._identity(event)
        first_word = event.addr >> WORD_SHIFT
        last_word = (event.addr + size - 1) >> WORD_SHIFT
        for word in range(first_word, last_word + 1):
            prev = self._last.get(word)
            if prev is not None and prev[2] != identity[2]:
                self.pairs.add((prev[0], prev[1], identity[0], identity[1]))
            self._last[word] = identity

    on_load = _record
    on_store = _record


class RefProfiler(Observer):
    def __init__(self):
        self.profile = {}

    def _entry(self, addr):
        entry = self.profile.get(addr)
        if entry is None:
            entry = {"loads": {}, "stores": {}, "tids": set(), "count": 0}
            self.profile[addr] = entry
        return entry

    def on_load(self, event):
        entry = self._entry(event.addr)
        entry["loads"][event.instr_id] = \
            entry["loads"].get(event.instr_id, 0) + 1
        entry["tids"].add(event.tid)
        entry["count"] += 1

    def on_store(self, event):
        entry = self._entry(event.addr)
        entry["stores"][event.instr_id] = \
            entry["stores"].get(event.instr_id, 0) + 1
        entry["tids"].add(event.tid)
        entry["count"] += 1


#: One access: (kind, addr, size, tid or None for tid -1, instr, dirty).
_ACCESSES = st.one_of(
    st.tuples(st.sampled_from(["load", "store", "ntstore"]),
              st.integers(0, 1023),
              st.one_of(st.integers(0, 16), st.integers(17, 8192)),
              st.sampled_from([None, 0, 1, 2]), st.integers(0, 5),
              st.booleans()),
    st.tuples(st.just("cas"), st.integers(0, 127).map(lambda w: w * 8),
              st.just(8), st.sampled_from([None, 0, 1, 2]),
              st.integers(0, 5), st.just(False)),
    st.tuples(st.sampled_from(["clwb", "sfence"]), st.integers(0, 1023),
              st.just(0), st.sampled_from([None, 0, 1, 2]),
              st.integers(0, 5), st.just(False)),
)


def _event(kind, addr, size, tid, instr, dirty):
    thread = None if tid is None else FakeThread(tid)
    return PmAccessEvent(kind, None if kind == "sfence" else addr, size, 0,
                         thread, "i%d" % instr,
                         nonpersisted=("w",) if dirty else ())


def _entry(kind, addr, size, tid, instr, dirty):
    """The trace entry PmView appends for the same access."""
    how = {"load": LOAD_DIRTY if dirty else LOAD_CLEAN,
           "store": STORE_DIRTY, "cas": STORE_DIRTY,
           "ntstore": STORE_CLEAN}.get(kind)
    return (-1 if tid is None else tid, "i%d" % instr,
            None if kind == "sfence" else addr, size, how)


_HOOK = {"load": "on_load", "store": "on_store", "ntstore": "on_store",
         "cas": "on_store", "clwb": "on_flush", "sfence": "on_fence"}


def reference_feedback(events):
    """(edges, pairs, profile) of the reference collectors fed ``events``."""
    refs = (RefBranch(), RefAlias(), RefProfiler())
    for event in events:
        hook = _HOOK[event.kind]
        for ref in refs:
            if hook in vars(type(ref)):
                getattr(ref, hook)(event)
    branch, alias, profiler = refs
    return branch.edges, alias.pairs, profiler.profile


class TestFeedbackCollector:
    def test_old_names_are_the_one_collector(self):
        from repro.core.coverage import (AliasCoverageCollector,
                                         BranchCoverageCollector)
        from repro.core.priority import AccessProfiler
        assert BranchCoverageCollector is FeedbackCollector
        assert AliasCoverageCollector is FeedbackCollector
        assert AccessProfiler is FeedbackCollector

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_ACCESSES, max_size=60), st.data())
    def test_matches_the_three_collectors(self, accesses, data):
        # Folded in arbitrary pieces: consecutive folds must equal one
        # fold of the whole trace.
        trace = [_entry(*access) for access in accesses]
        cuts = sorted(data.draw(st.lists(
            st.integers(0, len(trace)), max_size=3)))
        fused = FeedbackCollector()
        for start, end in zip([0] + cuts, cuts + [len(trace)]):
            fused.on_trace(trace[start:end])
        edges, pairs, profile = reference_feedback(
            _event(*access) for access in accesses)
        assert fused.edges == edges
        assert fused.pairs == pairs
        assert fused.profile == profile
        assert list(fused.profile) == list(profile)
