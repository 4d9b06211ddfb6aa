"""Hook-layer tests: events, candidates, taint flow through PM."""

import pytest

from repro.detect import InconsistencyChecker
from repro.instrument import (
    InstrumentationContext,
    Observer,
    PmView,
    taint_of,
)
from repro.pmem import LineState, PmemPool


class Recorder(Observer):
    def __init__(self):
        self.events = []

    def on_load(self, event):
        self.events.append(event)

    def on_store(self, event):
        self.events.append(event)

    def on_flush(self, event):
        self.events.append(event)

    def on_fence(self, event):
        self.events.append(event)


@pytest.fixture
def setup():
    pool = PmemPool("hooks", 8192)
    ctx = InstrumentationContext()
    recorder = ctx.add_observer(Recorder())
    view = PmView(pool, None, ctx)
    return pool, ctx, recorder, view


class TestEvents:
    def test_store_event(self, setup):
        _pool, _ctx, recorder, view = setup
        view.store_u64(64, 7)
        event = recorder.events[-1]
        assert event.kind == "store"
        assert event.addr == 64
        assert event.size == 8
        assert event.value == 7
        assert event.tid == -1  # outside the scheduler

    def test_load_event_value(self, setup):
        _pool, _ctx, recorder, view = setup
        view.ntstore_u64(64, 99)
        assert view.load_u64(64) == 99
        assert recorder.events[-1].kind == "load"
        assert recorder.events[-1].value == 99

    def test_instr_id_names_caller(self, setup):
        _pool, ctx, recorder, view = setup
        view.store_u64(0, 1)
        instr_id = recorder.events[-1].instr_id
        assert isinstance(instr_id, int)
        assert "test_hooks" in ctx.callsites.name(instr_id)

    def test_flush_and_fence_events(self, setup):
        _pool, _ctx, recorder, view = setup
        view.store_u64(0, 1)
        view.clwb(0)
        view.sfence()
        kinds = [event.kind for event in recorder.events]
        assert kinds == ["store", "clwb", "sfence"]

    def test_bytes_roundtrip(self, setup):
        _pool, _ctx, _recorder, view = setup
        view.store_bytes(128, b"hello")
        assert view.load_bytes(128, 5) == b"hello"

    def test_ntstore_event_kind(self, setup):
        _pool, _ctx, recorder, view = setup
        view.ntstore_u64(0, 5)
        assert recorder.events[-1].kind == "ntstore"


class TestPersistency:
    def test_persist_makes_clean(self, setup):
        pool, _ctx, _recorder, view = setup
        view.store_u64(64, 1)
        assert pool.memory.line_state(64) is LineState.DIRTY
        view.persist(64, 8)
        assert pool.memory.line_state(64) is LineState.CLEAN

    def test_flush_range_covers_lines(self, setup):
        pool, _ctx, _recorder, view = setup
        view.store_bytes(0, b"x" * 200)
        view.flush_range(0, 200)
        view.sfence()
        assert pool.memory.dirty_line_count() == 0

    def test_load_reports_nonpersisted(self, setup):
        _pool, _ctx, recorder, view = setup
        view.store_u64(64, 1)
        view.load_u64(64)
        assert recorder.events[-1].nonpersisted

    def test_load_clean_no_writers(self, setup):
        _pool, _ctx, recorder, view = setup
        view.ntstore_u64(64, 1)
        view.load_u64(64)
        assert not recorder.events[-1].nonpersisted


class TestCas:
    def test_cas_success(self, setup):
        _pool, _ctx, _recorder, view = setup
        ok, old = view.cas_u64(64, 0, 5)
        assert ok and old == 0
        assert view.load_u64(64) == 5

    def test_cas_failure(self, setup):
        _pool, _ctx, _recorder, view = setup
        view.ntstore_u64(64, 3)
        ok, old = view.cas_u64(64, 0, 5)
        assert not ok and old == 3
        assert view.load_u64(64) == 3

    def test_cas_emits_load_and_store(self, setup):
        _pool, _ctx, recorder, view = setup
        view.cas_u64(64, 0, 5)
        kinds = [event.kind for event in recorder.events]
        assert kinds == ["load", "cas"]

    def test_failed_cas_emits_only_load(self, setup):
        _pool, _ctx, recorder, view = setup
        view.ntstore_u64(64, 3)
        recorder.events.clear()
        view.cas_u64(64, 0, 5)
        assert [event.kind for event in recorder.events] == ["load"]


class TestTaintFlow:
    def make(self):
        pool = PmemPool("taintflow", 8192)
        ctx = InstrumentationContext()
        checker = ctx.add_observer(InconsistencyChecker(pool))
        view = PmView(pool, None, ctx)
        return pool, ctx, checker, view

    def test_dirty_read_is_tainted(self):
        _pool, _ctx, checker, view = self.make()
        view.store_u64(64, 42)
        value = view.load_u64(64)
        assert taint_of(value)
        assert len(checker.candidates) == 1

    def test_clean_read_untainted(self):
        _pool, _ctx, checker, view = self.make()
        view.ntstore_u64(64, 42)
        value = view.load_u64(64)
        assert not taint_of(value)
        assert not checker.candidates

    def test_content_flow_confirms(self):
        _pool, _ctx, checker, view = self.make()
        view.store_u64(64, 42)
        value = view.load_u64(64)
        view.ntstore_u64(128, value + 1)
        assert len(checker.inconsistencies) == 1
        assert not checker.inconsistencies[0].address_flow

    def test_address_flow_confirms(self):
        _pool, _ctx, checker, view = self.make()
        view.store_u64(64, 256)
        addr = view.load_u64(64)
        view.ntstore_u64(addr + 64, 1)
        assert len(checker.inconsistencies) == 1
        assert checker.inconsistencies[0].address_flow

    def test_untainted_store_no_inconsistency(self):
        _pool, _ctx, checker, view = self.make()
        view.store_u64(64, 42)
        view.load_u64(64)
        view.ntstore_u64(128, 7)  # unrelated value
        assert not checker.inconsistencies

    def test_shadow_taint_through_memory(self):
        """store tainted -> load elsewhere -> store: multi-hop flow."""
        _pool, _ctx, checker, view = self.make()
        view.store_u64(64, 42)
        value = view.load_u64(64)        # candidate + taint
        view.ntstore_u64(128, value)     # tainted content persisted
        loaded = view.load_u64(128)      # clean read, shadow label
        assert taint_of(loaded)
        view.ntstore_u64(192, loaded + 1)
        # two inconsistencies: direct, and via the shadow hop
        assert len(checker.inconsistencies) == 2

    def test_shadow_cleared_by_clean_store(self):
        _pool, _ctx, checker, view = self.make()
        view.store_u64(64, 42)
        value = view.load_u64(64)
        view.ntstore_u64(128, value)
        view.ntstore_u64(128, 7)         # plain overwrite clears shadow
        assert not taint_of(view.load_u64(128))

    def test_taint_disabled(self):
        pool = PmemPool("no-taint", 8192)
        ctx = InstrumentationContext(taint_enabled=False)
        checker = ctx.add_observer(InconsistencyChecker(pool))
        view = PmView(pool, None, ctx)
        view.store_u64(64, 42)
        value = view.load_u64(64)
        assert not taint_of(value)
        view.ntstore_u64(128, value + 1)
        assert checker.candidates          # candidates still found
        assert not checker.inconsistencies  # but no flow confirmation


class TestLazyStacks:
    """An event carries the frame its stack walk starts from; walking it
    during dispatch gives the stack the hook's own eager walk gave."""

    def test_lazy_stack_equals_eager_walk(self, monkeypatch):
        from repro.instrument import hooks
        from repro.instrument.events import PmAccessEvent

        pool = PmemPool("lazy", 8192)
        ctx = InstrumentationContext()
        table = ctx.callsites

        class EagerEvent(PmAccessEvent):
            __slots__ = ("eager",)

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                # ``intern_stack(skip=2)`` from the hook's frame (one
                # frame below this constructor).
                self.eager = table.intern_stack(skip=3)

        walked = []

        class Walker(Observer):
            def walk(self, event):
                if event.frame is not None:
                    walked.append((event.kind, event.eager,
                                   table.intern_stack_from(event.frame)))

            on_load = on_store = walk

        monkeypatch.setattr(hooks, "PmAccessEvent", EagerEvent)
        ctx.add_observer(Walker())
        view = PmView(pool, None, ctx)

        def target_code():
            view.store_u64(64, 1)
            view.load_u64(64)
            view.load_bytes(64, 8)
            view.ntstore_u64(128, 2)
            view.store_bytes(192, b"abc")
            view.cas_u64(64, 1, 3)

        target_code()
        assert {kind for kind, _eager, _lazy in walked} == {
            "load", "store", "ntstore", "cas"}
        for kind, eager, lazy in walked:
            assert lazy == eager, kind
            assert "target_code" in table.name(lazy[0])

    def test_clean_load_carries_no_frame(self, setup):
        _pool, _ctx, recorder, view = setup
        view.ntstore_u64(64, 1)
        view.load_u64(64)
        assert recorder.events[-1].frame is None


@pytest.fixture
def built_events(monkeypatch):
    """Every PmAccessEvent the hook layer builds, in order."""
    from repro.instrument import hooks
    from repro.instrument.events import PmAccessEvent

    built = []

    class SpyEvent(PmAccessEvent):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(hooks, "PmAccessEvent", SpyEvent)
    return built


class TestLazyEvents:
    """An access builds an event only when a registered callback takes
    it."""

    def make(self):
        pool = PmemPool("lazy-events", 8192)
        ctx = InstrumentationContext(trace=[])
        return ctx, PmView(pool, None, ctx)

    def test_no_observer_no_event(self, built_events):
        ctx, view = self.make()
        view.store_u64(64, 1)
        view.load_u64(64)
        view.cas_u64(64, 1, 2)
        view.persist(64, 8)
        assert built_events == []
        assert len(ctx.trace) == 6

    def test_checker_takes_dirty_loads_tainted_and_annotated_stores(
            self, built_events):
        from repro.instrument import AnnotationRegistry
        registry = AnnotationRegistry()
        registry.pm_sync_var_hint("lock", 8, 0)
        registry.register_instance("lock", 512)
        pool = PmemPool("lazy-events", 8192)
        ctx = InstrumentationContext(annotations=registry)
        checker = ctx.add_observer(InconsistencyChecker(pool))
        view = PmView(pool, None, ctx)
        view.ntstore_u64(0, 5)
        view.load_u64(0)                  # clean load: no event
        view.store_u64(64, 1)             # untainted store: no event
        value = view.load_u64(64)         # dirty load
        view.ntstore_u64(128, value)      # tainted store
        view.store_u64(512, 1)            # annotated store
        view.persist(0, 256)              # flushes and a fence: none
        assert [(event.kind, event.addr) for event in built_events] == [
            ("load", 64), ("ntstore", 128), ("store", 512)]
        assert len(checker.candidates) == 1
        assert len(checker.inconsistencies) == 1
        assert len(checker.sync_inconsistencies) == 1

    def test_generic_load_observer_sees_every_load(self, built_events):
        seen = []

        class Loads(Observer):
            def on_load(self, event):
                seen.append((event.addr, bool(event.nonpersisted)))

        pool = PmemPool("lazy-events", 8192)
        ctx = InstrumentationContext()
        ctx.add_observer(InconsistencyChecker(pool))
        ctx.add_observer(Loads())
        view = PmView(pool, None, ctx)
        view.ntstore_u64(0, 5)
        view.store_u64(64, 1)
        view.load_u64(0)
        view.load_u64(64)
        view.cas_u64(0, 5, 6)
        assert seen == [(0, False), (64, True), (0, False)]
        assert [event.kind for event in built_events] == [
            "load", "load", "load"]

    def test_one_trace_entry_per_access(self):
        from repro.instrument.events import (LOAD_CLEAN, LOAD_DIRTY,
                                             STORE_CLEAN, STORE_DIRTY)
        ctx, view = self.make()

        def target_code():
            view.store_u64(64, 1)
            view.load_bytes(60, 12)
            view.ntstore_bytes(128, b"ab")
            view.cas_u64(256, 0, 7)
            view.cas_u64(256, 0, 8)    # fails: its load only
            view.clwb(64)
            view.sfence()

        target_code()
        assert [entry[0] for entry in ctx.trace] == [-1] * 8
        assert [entry[2:] for entry in ctx.trace] == [
            (64, 8, STORE_DIRTY), (60, 12, LOAD_DIRTY),
            (128, 2, STORE_CLEAN), (256, 8, LOAD_CLEAN),
            (256, 8, STORE_DIRTY), (256, 8, LOAD_DIRTY),
            (64, 0, None), (None, 0, None)]
        names = [ctx.callsites.name(entry[1]) for entry in ctx.trace]
        assert all(":target_code:" in name for name in names)

    def test_recovery_views_keep_no_trace(self, setup):
        _pool, ctx, _recorder, view = setup
        view.store_u64(64, 1)
        assert ctx.trace is None
