"""Shared-access priority queue tests."""

import pytest

from repro.core import FeedbackCollector, SharedAccessQueue
from repro.instrument.events import LOAD_CLEAN, STORE_DIRTY


def feed(profiler, kind, addr, tid, instr, times=1):
    how = LOAD_CLEAN if kind == "load" else STORE_DIRTY
    profiler.on_trace([(tid, instr, addr, 8, how)] * times)


def shared_profile(addr=64, freq=1):
    profiler = FeedbackCollector()
    feed(profiler, "load", addr, 0, "r1", times=freq)
    feed(profiler, "store", addr, 1, "w1", times=freq)
    return profiler


class TestProfiler:
    def test_counts(self):
        profiler = shared_profile(freq=3)
        entry = profiler.profile[64]
        assert entry["loads"] == {"r1": 3}
        assert entry["stores"] == {"w1": 3}
        assert entry["tids"] == {0, 1}
        assert entry["count"] == 6


class TestQueue:
    def test_shared_entry_admitted(self):
        queue = SharedAccessQueue()
        queue.update_from(shared_profile())
        assert len(queue) == 1
        entry = queue.fetch()
        assert entry.addr == 64
        assert entry.load_instrs == frozenset({"r1"})
        assert entry.store_instrs == frozenset({"w1"})

    def test_single_thread_rejected(self):
        profiler = FeedbackCollector()
        feed(profiler, "load", 64, 0, "r1")
        feed(profiler, "store", 64, 0, "w1")
        queue = SharedAccessQueue()
        queue.update_from(profiler)
        assert len(queue) == 0

    def test_loads_only_rejected(self):
        profiler = FeedbackCollector()
        feed(profiler, "load", 64, 0, "r1")
        feed(profiler, "load", 64, 1, "r2")
        queue = SharedAccessQueue()
        queue.update_from(profiler)
        assert len(queue) == 0

    def test_frequency_priority(self):
        queue = SharedAccessQueue()
        queue.update_from(shared_profile(addr=64, freq=1))
        profiler = FeedbackCollector()
        feed(profiler, "load", 128, 0, "r-other", times=10)
        feed(profiler, "store", 128, 1, "w-other", times=10)
        queue.update_from(profiler)
        assert queue.fetch().addr == 128
        assert queue.fetch().addr == 64
        assert queue.fetch() is None

    def test_same_sites_count_as_explored(self):
        # Two addresses touched by the same load/store sites are the same
        # interleaving shape: exploring one explores both.
        queue = SharedAccessQueue()
        queue.update_from(shared_profile(addr=64, freq=1))
        queue.update_from(shared_profile(addr=128, freq=10))
        assert queue.fetch() is not None
        assert queue.fetch() is None

    def test_explored_not_refetched(self):
        queue = SharedAccessQueue()
        queue.update_from(shared_profile())
        queue.fetch()
        assert queue.fetch() is None
        assert queue.pending() == 0

    def test_reset_exploration(self):
        queue = SharedAccessQueue()
        queue.update_from(shared_profile())
        queue.fetch()
        queue.reset_exploration()
        assert queue.fetch() is not None

    def test_same_stores_merge_loads(self):
        # Groups are keyed by store-site set: another address written by
        # the same store merges its reader sites into the group.
        queue = SharedAccessQueue()
        queue.update_from(shared_profile(freq=2))
        profiler = FeedbackCollector()
        feed(profiler, "load", 128, 2, "r2")
        feed(profiler, "store", 128, 3, "w1")
        queue.update_from(profiler)
        assert len(queue) == 1
        entry = queue.fetch()
        assert entry.load_instrs == frozenset({"r1", "r2"})
        assert entry.frequency == 6

    def test_different_stores_stay_separate(self):
        queue = SharedAccessQueue()
        queue.update_from(shared_profile(freq=2))
        profiler = FeedbackCollector()
        feed(profiler, "load", 64, 2, "r2")
        feed(profiler, "store", 64, 3, "w2")
        queue.update_from(profiler)
        assert len(queue) == 2

    def test_representative_addr_is_most_frequent(self):
        queue = SharedAccessQueue()
        queue.update_from(shared_profile(addr=64, freq=1))
        profiler = FeedbackCollector()
        feed(profiler, "load", 256, 0, "r1", times=9)
        feed(profiler, "store", 256, 1, "w1", times=9)
        queue.update_from(profiler)
        assert queue.fetch().addr == 256

    def test_clear(self):
        queue = SharedAccessQueue()
        queue.update_from(shared_profile())
        queue.clear()
        assert len(queue) == 0
