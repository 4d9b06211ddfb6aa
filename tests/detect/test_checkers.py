"""Inconsistency checker tests: dedup, flows, sync records, crash images."""

import pytest

from repro.detect import InconsistencyChecker
from repro.instrument import AnnotationRegistry, InstrumentationContext, PmView
from repro.pmem import PmemPool
from repro.runtime import RoundRobinPolicy, Scheduler


def make(annotations=None, snapshot_images=True):
    pool = PmemPool("chk", 8192)
    ctx = InstrumentationContext(annotations=annotations)
    checker = ctx.add_observer(InconsistencyChecker(
        pool, snapshot_images=snapshot_images))
    view = PmView(pool, None, ctx)
    return pool, ctx, checker, view


class TestCandidates:
    def test_intra_candidate_same_thread(self):
        _pool, _ctx, checker, view = make()
        view.store_u64(64, 1)
        view.load_u64(64)
        assert len(checker.candidates) == 1
        assert not checker.candidates[0].cross_thread
        assert checker.intra_candidates

    def test_cross_thread_detection(self):
        pool = PmemPool("cross", 8192)
        ctx = InstrumentationContext()
        checker = ctx.add_observer(InconsistencyChecker(pool))
        scheduler = Scheduler(RoundRobinPolicy())
        view = PmView(pool, scheduler, ctx)

        def writer():
            view.store_u64(64, 42)
            for _ in range(5):
                scheduler.yield_point("op")

        def reader():
            view.load_u64(64)

        scheduler.spawn(writer)
        scheduler.spawn(reader)
        scheduler.run()
        inter = checker.inter_candidates
        assert len(inter) == 1
        assert inter[0].writer_tid == 0
        assert inter[0].reader_tid == 1

    def test_candidate_dedup_within_campaign(self):
        _pool, _ctx, checker, view = make()
        view.store_u64(64, 1)
        for _ in range(5):
            view.load_u64(64)
        assert len(checker.candidates) == 1

    def test_distinct_read_sites_distinct_candidates(self):
        _pool, _ctx, checker, view = make()
        view.store_u64(64, 1)
        view.load_u64(64)   # site A
        view.load_u64(64)   # site B (different line)
        assert len(checker.candidates) == 2

    def test_max_candidates_bound(self):
        pool = PmemPool("bound", 8192)
        ctx = InstrumentationContext()
        checker = ctx.add_observer(InconsistencyChecker(
            pool, max_candidates=1))
        view = PmView(pool, None, ctx)
        view.store_u64(64, 1)
        view.store_u64(128, 1)
        view.load_u64(64)
        view.load_u64(128)
        assert len(checker.candidates) == 1


class TestInconsistencies:
    def test_dedup_by_sites(self):
        _pool, _ctx, checker, view = make()
        view.store_u64(64, 1)
        for _ in range(3):
            value = view.load_u64(64)
            view.ntstore_u64(128, value + 1)
        assert len(checker.inconsistencies) == 1

    def test_kind_follows_candidate(self):
        _pool, _ctx, checker, view = make()
        view.store_u64(64, 1)
        value = view.load_u64(64)
        view.ntstore_u64(128, value)
        assert checker.inconsistencies[0].kind == "intra"
        assert checker.intra_inconsistencies

    def test_crash_image_contains_side_effect(self):
        pool, _ctx, checker, view = make()
        view.store_u64(64, 1)           # dependent data, never flushed
        value = view.load_u64(64)
        view.store_u64(128, value + 10)  # cached side effect
        record = checker.inconsistencies[0]
        image = bytes(record.crash_image)
        # dependent data lost in the image...
        assert image[64:72] == b"\x00" * 8
        # ...but the side effect is overlaid (crash after it persisted)
        assert image[128:136] != b"\x00" * 8

    def test_no_image_when_disabled(self):
        _pool, _ctx, checker, view = make(snapshot_images=False)
        view.store_u64(64, 1)
        value = view.load_u64(64)
        view.ntstore_u64(128, value)
        assert checker.inconsistencies[0].crash_image is None

    def test_multi_candidate_store_confirms_in_candidate_order(self):
        # One tainted store can confirm several candidates at once. The
        # taint set hashes labels by identity, so its iteration order
        # follows memory layout and varies between processes — records
        # must come out in candidate order regardless (repro bundles
        # rely on record order surviving a fresh process).
        _pool, _ctx, checker, view = make()
        view.store_u64(64, 2)
        view.store_u64(128, 3)
        a = view.load_u64(64)
        b = view.load_u64(128)
        view.store_u64(256, a + b)  # carries both labels
        ids = [r.candidate.candidate_id for r in checker.inconsistencies]
        assert ids == [0, 1]

    def test_writeback_to_source_not_flagged(self):
        _pool, _ctx, checker, view = make()
        view.store_u64(64, 1)
        value = view.load_u64(64)
        # flushing helper writing the same data back over its own source
        # at the same store site is not a *new* durable side effect; any
        # other site is.
        view.ntstore_u64(192, value)
        assert len(checker.inconsistencies) == 1


class TestSyncInconsistencies:
    def make_annotated(self):
        registry = AnnotationRegistry()
        registry.pm_sync_var_hint("lock", 8, 0)
        registry.register_instance("lock", 256)
        return make(annotations=registry)

    def test_acquire_recorded(self):
        _pool, _ctx, checker, view = self.make_annotated()
        view.store_u64(256, 1)
        assert len(checker.sync_inconsistencies) == 1
        record = checker.sync_inconsistencies[0]
        assert record.annotation_name == "lock"
        assert record.init_val == 0

    def test_release_to_init_not_recorded(self):
        _pool, _ctx, checker, view = self.make_annotated()
        view.store_u64(256, 0)
        assert not checker.sync_inconsistencies

    def test_dedup_per_site(self):
        _pool, _ctx, checker, view = self.make_annotated()
        for _ in range(4):
            view.store_u64(256, 1)
        assert len(checker.sync_inconsistencies) == 1

    def test_cas_triggers_annotation(self):
        _pool, _ctx, checker, view = self.make_annotated()
        ok, _ = view.cas_u64(256, 0, 1)
        assert ok
        assert len(checker.sync_inconsistencies) == 1

    def test_zero_bytes_store_skipped(self):
        _pool, _ctx, checker, view = self.make_annotated()
        view.ntstore_bytes(256, b"\x00" * 8)
        assert not checker.sync_inconsistencies

    def test_image_contains_lock_value(self):
        _pool, _ctx, checker, view = self.make_annotated()
        view.store_u64(256, 1)
        image = bytes(checker.sync_inconsistencies[0].crash_image)
        assert image[256:264] != b"\x00" * 8

    def test_unannotated_address_ignored(self):
        _pool, _ctx, checker, view = self.make_annotated()
        view.store_u64(512, 1)
        assert not checker.sync_inconsistencies

    @pytest.mark.parametrize("acquire", ["store", "cas"])
    def test_record_carries_its_store_stack(self, acquire):
        # Lock stores are untainted; the record still gets the stack of
        # the store that minted it, innermost frame first.
        _pool, ctx, checker, view = self.make_annotated()

        def lock_acquire():
            if acquire == "store":
                view.store_u64(256, 1)
            else:
                view.cas_u64(256, 0, 1)

        lock_acquire()
        record = checker.sync_inconsistencies[0]
        assert record.stack[0] == record.instr_id
        assert ":lock_acquire:" in record.instr_id
        assert any(":test_record_carries_its_store_stack:" in frame
                   for frame in record.stack[1:])


class TestLazyStacks:
    """The checker walks an event's frame only when the event mints a
    record, and at most once per event."""

    def test_walks_only_for_minting_events(self):
        _pool, _ctx, checker, view = make()
        view.store_u64(64, 1)        # untainted, unannotated: no record
        assert checker.stack_walks == 0
        for _ in range(3):
            view.load_u64(64)        # one candidate, then repeats
        assert len(checker.candidates) == 1
        assert checker.stack_walks == 1

    def test_one_walk_per_event_minting_several_records(self):
        _pool, _ctx, checker, view = make()
        view.store_u64(64, 1)
        view.store_u64(72, 2)
        view.load_bytes(64, 16)      # two writers: two candidates
        assert len(checker.candidates) == 2
        assert checker.stack_walks == 1
        first, second = checker.candidates
        assert first.stack == second.stack
        assert ":test_one_walk_per_event_minting_several_records:" \
            in first.stack[0]
