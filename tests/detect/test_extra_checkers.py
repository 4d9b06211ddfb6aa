"""Extra-checker tests: redundant flushes, missing flushes, counters."""

import pytest

from repro.detect import (
    FenceCounter,
    RedundantFlushChecker,
    scan_missing_flushes,
)
from repro.instrument import InstrumentationContext, PmView
from repro.pmem import PmemPool


@pytest.fixture
def setup():
    pool = PmemPool("extra", 8192)
    ctx = InstrumentationContext()
    view = PmView(pool, None, ctx)
    return pool, ctx, view


class TestRedundantFlush:
    def test_clean_line_flagged(self, setup):
        pool, ctx, view = setup
        checker = ctx.add_observer(RedundantFlushChecker(pool))
        view.clwb(64)
        assert len(checker.redundant_flushes) == 1

    def test_dirty_line_not_flagged(self, setup):
        pool, ctx, view = setup
        checker = ctx.add_observer(RedundantFlushChecker(pool))
        view.store_u64(64, 1)
        view.clwb(64)
        assert not checker.redundant_flushes

    def test_double_persist_flagged_once_per_site(self, setup):
        pool, ctx, view = setup
        checker = ctx.add_observer(RedundantFlushChecker(pool))
        view.store_u64(64, 1)
        for _ in range(3):
            view.persist(64, 8)   # 2nd and 3rd persist are redundant
        assert len(checker.redundant_flushes) == 1
        assert checker.redundant_flushes[0].count == 2

    def test_flush_before_fence_not_flagged(self, setup):
        # A flushed line stays non-persisted until the fence, so a second
        # CLWB before it is not a flush of clean data.
        pool, ctx, view = setup
        checker = ctx.add_observer(RedundantFlushChecker(pool))
        view.store_u64(64, 1)
        view.clwb(64)
        view.clwb(64)
        assert not checker.redundant_flushes

    def test_end_of_pool_line(self, setup):
        pool, ctx, view = setup
        checker = ctx.add_observer(RedundantFlushChecker(pool))
        view.clwb(pool.size - 1)
        assert len(checker.redundant_flushes) == 1


class TestMissingFlush:
    def test_dirty_words_reported(self, setup):
        pool, _ctx, view = setup
        view.store_u64(64, 1)
        view.store_u64(72, 2)
        records = scan_missing_flushes(pool)
        assert len(records) == 2  # two distinct store sites (lines)
        assert sum(len(r.addrs) for r in records) == 2

    def test_clean_pool_empty(self, setup):
        pool, _ctx, view = setup
        view.store_u64(64, 1)
        view.persist(64, 8)
        assert scan_missing_flushes(pool) == []

    def test_ntstore_not_reported(self, setup):
        pool, _ctx, view = setup
        view.ntstore_u64(64, 1)
        assert scan_missing_flushes(pool) == []

    def test_grouped_by_site(self, setup):
        pool, _ctx, view = setup
        for index in range(4):
            view.store_u64(512 + index * 8, index)  # one site, 4 words
        records = scan_missing_flushes(pool)
        assert len(records) == 1
        assert records[0].byte_count == 32

    def test_ignore_patterns(self, setup):
        pool, _ctx, view = setup
        view.store_u64(64, 1)
        assert scan_missing_flushes(pool,
                                    ignore_instrs=("test_extra",)) == []

    def test_finds_memcached_missing_value_flush(self):
        """The root cause of bugs 9/10: value bytes never flushed."""
        from repro.targets import MemcachedTarget
        target = MemcachedTarget()
        state = target.setup()
        view = PmView(state.pool, None, InstrumentationContext())
        instance = target.open(state, view, None)
        instance.cmd_store("set", 1, b"v")
        instance.cmd_store("append", 1, b"w")   # value left dirty
        records = scan_missing_flushes(state.pool)
        assert any("cmd_store" in r.instr_id or "memcached" in r.instr_id
                   for r in records)


class TestFenceCounter:
    def test_counts(self, setup):
        _pool, ctx, view = setup
        counter = ctx.add_observer(FenceCounter())
        view.store_u64(64, 1)
        view.ntstore_u64(128, 1)
        view.persist(64, 8)
        assert counter.stores == 1
        assert counter.ntstores == 1
        assert counter.flushes == 1
        assert counter.fences == 1
