"""Persistency-state table tests.

The simulator's per-line table (:class:`repro.pmem.memory.PersistentMemory`)
is the state the checkers read: each line is CLEAN, DIRTY or PENDING, and
every non-persisted word keeps the store that wrote it.
"""

import pytest

from repro.detect import RedundantFlushChecker
from repro.instrument import InstrumentationContext, PmView
from repro.pmem import PmemPool
from repro.pmem.cacheline import LineState


@pytest.fixture
def setup():
    pool = PmemPool("st", 8192)
    ctx = InstrumentationContext()
    view = PmView(pool, None, ctx)
    return pool, ctx, view


class TestStateTransitions:
    def test_initially_clean(self, setup):
        pool, _ctx, _view = setup
        assert pool.memory.line_state(0) is LineState.CLEAN

    def test_store_dirty(self, setup):
        pool, _ctx, view = setup
        view.store_u64(64, 1)
        assert pool.memory.line_state(64) is LineState.DIRTY

    def test_ntstore_clean(self, setup):
        pool, _ctx, view = setup
        view.ntstore_u64(64, 1)
        assert pool.memory.line_state(64) is LineState.CLEAN

    def test_clwb_pending(self, setup):
        pool, _ctx, view = setup
        view.store_u64(64, 1)
        view.clwb(64)
        assert pool.memory.line_state(64) is LineState.PENDING

    def test_fence_clean(self, setup):
        pool, _ctx, view = setup
        view.store_u64(64, 1)
        view.clwb(64)
        view.sfence()
        assert pool.memory.line_state(64) is LineState.CLEAN

    def test_fence_without_clwb(self, setup):
        pool, _ctx, view = setup
        view.store_u64(64, 1)
        view.sfence()
        assert pool.memory.line_state(64) is LineState.DIRTY

    def test_line_granular_flush(self, setup):
        pool, _ctx, view = setup
        view.store_u64(64, 1)
        view.store_u64(72, 2)
        view.clwb(64)
        view.sfence()
        assert pool.memory.line_state(72) is LineState.CLEAN

    def test_other_line_unaffected(self, setup):
        pool, _ctx, view = setup
        view.store_u64(64, 1)
        view.store_u64(128, 2)
        view.clwb(64)
        view.sfence()
        assert pool.memory.line_state(128) is LineState.DIRTY


class TestWriterTracking:
    def test_writer_recorded(self, setup):
        pool, _ctx, view = setup
        view.store_u64(64, 1)
        (record,) = pool.memory.nonpersisted_writers(64, 8)
        assert record.thread_id == -1
        assert "test_state_table" in record.instr_id

    def test_clean_writer_none(self, setup):
        pool, _ctx, view = setup
        view.ntstore_u64(64, 1)
        assert pool.memory.nonpersisted_writers(64, 8) == []

    def test_is_clean_range(self, setup):
        pool, _ctx, view = setup
        view.store_u64(64, 1)
        assert not pool.memory.is_persisted(60, 16)
        assert pool.memory.is_persisted(128, 8)

    def test_dirty_word_count(self, setup):
        pool, _ctx, view = setup
        view.store_bytes(0, b"x" * 32)
        assert len(list(pool.memory.dirty_words())) == 4


class TestRedundantFlushChecker:
    """The checker flags a flush of a line whose table entry is CLEAN."""

    def test_clean_flush_flagged(self, setup):
        pool, ctx, view = setup
        checker = ctx.add_observer(RedundantFlushChecker(pool))
        view.clwb(64)
        assert pool.memory.line_state(64) is LineState.CLEAN
        assert len(checker.redundant_flushes) == 1

    def test_dirty_flush_not_flagged(self, setup):
        pool, ctx, view = setup
        checker = ctx.add_observer(RedundantFlushChecker(pool))
        view.store_u64(64, 1)
        view.clwb(64)
        assert pool.memory.line_state(64) is LineState.PENDING
        assert not checker.redundant_flushes

    def test_double_flush_flagged(self, setup):
        pool, ctx, view = setup
        checker = ctx.add_observer(RedundantFlushChecker(pool))
        view.store_u64(64, 1)
        view.clwb(64)
        view.sfence()
        view.clwb(64)  # the fence made the line CLEAN: this flush is wasted
        assert len(checker.redundant_flushes) == 1
