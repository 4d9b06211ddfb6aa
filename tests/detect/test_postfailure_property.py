"""Property-based WriteRecorder tests (seeded, no external dependency).

The recorder keeps a sorted, coalesced interval set updated
incrementally on every store; ``covers`` answers range-containment in
O(log n). These tests pit it against the obvious oracle — a plain set
of written byte addresses — across randomized workloads, plus directed
edge cases: zero-size accesses, adjacent-touching intervals, and fully
nested intervals.
"""

import random

from repro.detect.postfailure import WriteRecorder
from repro.instrument.events import PmAccessEvent


class ByteSetOracle:
    """Naive model: the exact set of written byte addresses."""

    def __init__(self):
        self.bytes_written = set()

    def on_store(self, addr, size):
        self.bytes_written.update(range(addr, addr + size))

    def covers(self, addr, size):
        return all(b in self.bytes_written
                   for b in range(addr, addr + size))


def check_invariants(recorder):
    """Intervals stay sorted, disjoint, non-touching, and non-empty."""
    intervals = recorder.intervals
    for start, stop in intervals:
        assert start < stop
    for (_, stop), (start, _) in zip(intervals, intervals[1:]):
        assert stop < start, "adjacent intervals must have been coalesced"


def run_workload(rng, stores, queries, addr_space=256, max_size=12):
    recorder, oracle = WriteRecorder(), ByteSetOracle()
    for _ in range(stores):
        addr = rng.randrange(addr_space)
        size = rng.randrange(max_size + 1)  # includes zero-size stores
        recorder.on_store(PmAccessEvent("store", addr, size))
        oracle.on_store(addr, size)
        check_invariants(recorder)
    for _ in range(queries):
        addr = rng.randrange(addr_space + max_size)
        size = rng.randrange(max_size + 1)
        assert recorder.covers(addr, size) == oracle.covers(addr, size), \
            "covers(%d, %d) disagrees with oracle after %r" \
            % (addr, size, recorder.intervals)


class TestCoversProperty:
    def test_random_workloads_match_oracle(self):
        rng = random.Random(0xC0FFEE)
        for _ in range(40):
            run_workload(rng, stores=rng.randrange(1, 60), queries=50)

    def test_sparse_workloads_match_oracle(self):
        rng = random.Random(1234)
        for _ in range(20):
            run_workload(rng, stores=8, queries=80,
                         addr_space=4096, max_size=64)

    def test_dense_workloads_collapse_to_one_interval(self):
        rng = random.Random(99)
        recorder, oracle = WriteRecorder(), ByteSetOracle()
        addrs = list(range(0, 64, 4))
        rng.shuffle(addrs)
        for addr in addrs:
            recorder.on_store(PmAccessEvent("store", addr, 4))
            oracle.on_store(addr, 4)
            check_invariants(recorder)
        assert recorder.intervals == [(0, 64)]
        assert recorder.covers(0, 64)
        assert not recorder.covers(0, 65)


class TestDirectedEdgeCases:
    def test_zero_size_store_records_nothing(self):
        recorder = WriteRecorder()
        recorder.on_store(PmAccessEvent("store", 100, 0))
        assert recorder.intervals == []
        assert not recorder.covers(100, 1)

    def test_zero_size_query_always_covered(self):
        recorder = WriteRecorder()
        assert recorder.covers(0, 0)
        recorder.on_store(PmAccessEvent("store", 10, 4))
        assert recorder.covers(999, 0)

    def test_adjacent_touching_intervals_coalesce(self):
        recorder = WriteRecorder()
        recorder.on_store(PmAccessEvent("store", 0, 4))
        recorder.on_store(PmAccessEvent("store", 8, 4))
        assert recorder.intervals == [(0, 4), (8, 12)]
        recorder.on_store(PmAccessEvent("store", 4, 4))  # exactly touching
        assert recorder.intervals == [(0, 12)]
        assert recorder.covers(0, 12)
        assert not recorder.covers(0, 13)

    def test_fully_nested_interval_is_absorbed(self):
        recorder = WriteRecorder()
        recorder.on_store(PmAccessEvent("store", 0, 64))
        recorder.on_store(PmAccessEvent("store", 16, 8))
        assert recorder.intervals == [(0, 64)]
        recorder.on_store(PmAccessEvent("store", 32, 128))  # superset merge
        assert recorder.intervals == [(0, 160)]

    def test_bridging_store_merges_many(self):
        recorder = WriteRecorder()
        for addr in (0, 16, 32, 48):
            recorder.on_store(PmAccessEvent("store", addr, 8))
        assert len(recorder.intervals) == 4
        recorder.on_store(PmAccessEvent("store", 4, 50))
        assert recorder.intervals == [(0, 56)]

    def test_query_straddling_gap_not_covered(self):
        recorder = WriteRecorder()
        recorder.on_store(PmAccessEvent("store", 0, 8))
        recorder.on_store(PmAccessEvent("store", 9, 8))
        assert not recorder.covers(4, 8)
        assert recorder.covers(9, 8)

    def test_query_interval_with_longer_left_neighbor(self):
        # Regression guard: an interval starting exactly at the query
        # address must be found even when it extends past addr + size.
        recorder = WriteRecorder()
        recorder.on_store(PmAccessEvent("store", 100, 50))
        assert recorder.covers(100, 10)
        assert recorder.covers(100, 50)
        assert not recorder.covers(100, 51)


# ----------------------------------------------------------------------
# Persistency-oracle property tests: the word-mask `is_persisted` in
# PersistentMemory against a naive per-word dict model of the documented
# semantics (store dirties words; clwb pends a line; a fence persists
# the pending lines of its thread; re-dirtying cancels a pending
# write-back; ntstores write through).


class WordPersistencyOracle:
    """Naive model: explicit sets of dirty words and pending lines."""

    def __init__(self, size):
        self.size = size
        self.dirty = set()      # word indices holding non-persisted data
        self.pending = set()    # line indices in PENDING state
        self.by_thread = {}     # tid -> set of pended lines

    def _words(self, addr, size):
        return range(addr >> 3, ((addr + size - 1) >> 3) + 1)

    def _unpend(self, line):
        self.pending.discard(line)
        for lines in self.by_thread.values():
            lines.discard(line)

    def store(self, addr, size, tid, ntstore=False):
        if size <= 0:
            return
        for word in self._words(addr, size):
            if not ntstore:
                self.dirty.add(word)
            elif addr <= word * 8 and word * 8 + 8 <= addr + size:
                # only a word the ntstore covers whole becomes clean
                self.dirty.discard(word)
        for line in range(addr >> 6, ((addr + size - 1) >> 6) + 1):
            line_words = range(line * 8, line * 8 + 8)
            if not any(w in self.dirty for w in line_words):
                self._unpend(line)  # fully clean: no write-back left
            elif not ntstore and line in self.pending:
                self._unpend(line)  # re-dirty cancels the write-back

    def clwb(self, addr, tid):
        line = addr >> 6
        if any(w in self.dirty for w in range(line * 8, line * 8 + 8)):
            self.pending.add(line)
            self.by_thread.setdefault(tid, set()).add(line)

    def sfence(self, tid):
        for line in self.by_thread.pop(tid, set()):
            if line in self.pending:
                self.pending.discard(line)
                for word in range(line * 8, line * 8 + 8):
                    self.dirty.discard(word)

    def is_persisted(self, addr, size):
        if size <= 0:
            return True
        return not any(w in self.dirty for w in self._words(addr, size))


def run_persistency_workload(rng, ops, mem_size=1024):
    from repro.pmem import LineState, PersistentMemory

    mem = PersistentMemory(mem_size)
    oracle = WordPersistencyOracle(mem_size)
    for _ in range(ops):
        kind = rng.randrange(5)
        tid = rng.randrange(3)
        addr = rng.randrange(mem_size - 16)
        if kind in (0, 1):
            size = rng.randrange(1, 17)
            data = bytes([rng.randrange(256)]) * size
            mem.store(addr, data, thread_id=tid, ntstore=(kind == 1))
            oracle.store(addr, size, tid, ntstore=(kind == 1))
        elif kind == 2:
            mem.clwb(addr, thread_id=tid)
            oracle.clwb(addr, tid)
        elif kind == 3:
            mem.sfence(thread_id=tid)
            oracle.sfence(tid)
        else:
            size = rng.randrange(0, 33)
            query = rng.randrange(mem_size - 33)
            assert mem.is_persisted(query, size) == \
                oracle.is_persisted(query, size), \
                "is_persisted(%d, %d) diverged" % (query, size)
    # settle: every line state and word query must agree at the end
    for line in range(mem_size // 64):
        expected = LineState.PENDING if line in oracle.pending else (
            LineState.DIRTY if any(w in oracle.dirty
                                   for w in range(line * 8, line * 8 + 8))
            else LineState.CLEAN)
        assert mem.line_state(line * 64) is expected
    for word in range(mem_size // 8):
        assert mem.is_persisted(word * 8, 8) == \
            oracle.is_persisted(word * 8, 8)


class TestPersistencyMaskProperty:
    def test_random_workloads_match_oracle(self):
        rng = random.Random(0xBEEF)
        for _ in range(30):
            run_persistency_workload(rng, ops=rng.randrange(20, 120))

    def test_fence_heavy_workloads_match_oracle(self):
        rng = random.Random(77)
        for _ in range(10):
            run_persistency_workload(rng, ops=200, mem_size=256)
