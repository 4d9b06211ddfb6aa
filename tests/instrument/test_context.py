"""Instrumentation-context tests: shadow taint, observer fan-out."""

import pytest

from repro.instrument import InstrumentationContext, Observer, PmAccessEvent
from repro.instrument.taint import TaintLabel


L1 = frozenset({TaintLabel(0, "r", "w", 0, 1)})
L2 = frozenset({TaintLabel(1, "r2", "w2", 0, 1)})


class TestShadowTaint:
    def test_store_then_load(self):
        ctx = InstrumentationContext()
        ctx.shadow_store(64, 8, L1)
        assert ctx.shadow_load(64, 8) == L1

    def test_unaligned_overlap(self):
        ctx = InstrumentationContext()
        ctx.shadow_store(60, 8, L1)  # spans words 56 and 64
        assert ctx.shadow_load(56, 4) == L1
        assert ctx.shadow_load(64, 1) == L1

    def test_clean_store_clears(self):
        ctx = InstrumentationContext()
        ctx.shadow_store(64, 8, L1)
        ctx.shadow_store(64, 8, frozenset())
        assert ctx.shadow_load(64, 8) == frozenset()

    def test_labels_union_over_range(self):
        ctx = InstrumentationContext()
        ctx.shadow_store(64, 8, L1)
        ctx.shadow_store(72, 8, L2)
        assert ctx.shadow_load(64, 16) == (L1 | L2)

    def test_disabled_taint(self):
        ctx = InstrumentationContext(taint_enabled=False)
        ctx.shadow_store(64, 8, L1)
        assert ctx.shadow_load(64, 8) == frozenset()


class TestDispatch:
    def make_event(self, kind="store", addr=64):
        return PmAccessEvent(kind, addr, 8, 1)

    def test_load_collects_minted_labels(self):
        ctx = InstrumentationContext()

        class Minter(Observer):
            def on_load(self, event):
                return L1

        class Other(Observer):
            def on_load(self, event):
                return L2

        ctx.add_observer(Minter())
        ctx.add_observer(Other())
        assert ctx.dispatch_load(self.make_event("load")) == (L1 | L2)

    def test_load_none_results_ignored(self):
        ctx = InstrumentationContext()
        ctx.add_observer(Observer())
        assert ctx.dispatch_load(self.make_event("load")) == frozenset()

    def test_store_fans_out(self):
        ctx = InstrumentationContext()
        seen = []

        class Spy(Observer):
            def on_store(self, event):
                seen.append(event.addr)

        ctx.add_observer(Spy())
        ctx.add_observer(Spy())
        ctx.dispatch_store(self.make_event())
        assert seen == [64, 64]

    def test_annotated_store_routed(self):
        from repro.instrument import AnnotationRegistry
        registry = AnnotationRegistry()
        registry.pm_sync_var_hint("lock", 8, 0)
        registry.register_instance("lock", 64)
        ctx = InstrumentationContext(annotations=registry)
        hits = []

        class Spy(Observer):
            def on_annotated_store(self, annotation, event):
                hits.append(annotation.name)

        ctx.add_observer(Spy())
        ctx.dispatch_store(self.make_event(addr=64))
        ctx.dispatch_store(self.make_event(addr=512))
        assert hits == ["lock"]

    def test_flush_fence_dispatch(self):
        ctx = InstrumentationContext()
        kinds = []

        class Spy(Observer):
            def on_flush(self, event):
                kinds.append("flush")

            def on_fence(self, event):
                kinds.append("fence")

        ctx.add_observer(Spy())
        ctx.dispatch_flush(self.make_event("clwb"))
        ctx.dispatch_fence(PmAccessEvent("sfence", None, 0))
        assert kinds == ["flush", "fence"]


class TestPerKindDispatch:
    """Each event kind calls only the hooks an observer really has."""

    def make_registry(self):
        from repro.instrument import AnnotationRegistry
        registry = AnnotationRegistry()
        registry.pm_sync_var_hint("lock", 8, 0)
        registry.register_instance("lock", 64)
        return registry

    def test_only_overriding_hooks_in_registration_order(self):
        ctx = InstrumentationContext(annotations=self.make_registry())
        calls = []

        def spy(tag, *kinds):
            class Spy(Observer):
                pass
            for kind in kinds:
                setattr(Spy, kind, lambda self, *args, kind=kind:
                        calls.append((tag, kind)))
            return Spy()

        ctx.add_observer(spy("a", "on_store", "on_fence"))
        ctx.add_observer(Observer())
        ctx.add_observer(spy("b", "on_load", "on_store",
                             "on_annotated_store"))
        ctx.add_observer(spy("c", "on_flush", "on_store"))
        assert [len(ctx._hooks[name]) for name in
                ("on_load", "on_store", "on_flush", "on_fence",
                 "on_annotated_store")] == [1, 3, 1, 1, 1]
        ctx.dispatch_load(PmAccessEvent("load", 64, 8, 1))
        ctx.dispatch_store(PmAccessEvent("store", 64, 8, 1))
        ctx.dispatch_flush(PmAccessEvent("clwb", 64, 0))
        ctx.dispatch_fence(PmAccessEvent("sfence", None, 0))
        assert calls == [
            ("b", "on_load"),
            ("a", "on_store"), ("b", "on_store"), ("c", "on_store"),
            ("b", "on_annotated_store"),
            ("c", "on_flush"),
            ("a", "on_fence"),
        ]

    def test_load_labels_still_merge(self):
        ctx = InstrumentationContext()

        class Minter(Observer):
            def __init__(self, labels):
                self.labels = labels

            def on_load(self, event):
                return self.labels

        for labels in (L1, None, frozenset(), L2):
            ctx.add_observer(Minter(labels))
        ctx.add_observer(Observer())
        assert ctx.dispatch_load(PmAccessEvent("load", 64, 8, 1)) == \
            (L1 | L2)

    def test_duck_typed_observer_gets_every_callback(self):
        ctx = InstrumentationContext(annotations=self.make_registry())
        calls = []

        class Duck:
            def on_load(self, event):
                calls.append("load")

            def on_store(self, event):
                calls.append("store")

            def on_flush(self, event):
                calls.append("flush")

            def on_fence(self, event):
                calls.append("fence")

            def on_annotated_store(self, annotation, event):
                calls.append("annotated:%s" % annotation.name)

        ctx.add_observer(Duck())
        ctx.dispatch_load(PmAccessEvent("load", 64, 8, 1))
        ctx.dispatch_store(PmAccessEvent("store", 64, 8, 1))
        ctx.dispatch_flush(PmAccessEvent("clwb", 64, 0))
        ctx.dispatch_fence(PmAccessEvent("sfence", None, 0))
        assert calls == ["load", "store", "annotated:lock", "flush",
                         "fence"]


class TestCheckerHooks:
    """``on_dirty_load`` and ``on_tainted_store`` take only the accesses
    they can act on; the store's annotation can be handed in."""

    def test_dirty_load_hooks_only_for_dirty_loads(self):
        ctx = InstrumentationContext()
        seen = []

        class Checker(Observer):
            def on_dirty_load(self, event):
                seen.append(event.addr)
                return L1

        class Generic(Observer):
            def on_load(self, event):
                return L2

        ctx.add_observer(Checker())
        ctx.add_observer(Generic())
        assert ctx.dispatch_load(PmAccessEvent("load", 64, 8, 1)) == L2
        dirty = PmAccessEvent("load", 128, 8, 1, nonpersisted=("w",))
        assert ctx.dispatch_load(dirty) == (L1 | L2)
        assert seen == [128]

    def test_tainted_store_hooks_only_for_tainted_stores(self):
        ctx = InstrumentationContext()
        calls = []

        class Checker(Observer):
            def on_tainted_store(self, event):
                calls.append(("tainted", event.addr))

        class Generic(Observer):
            def on_store(self, event):
                calls.append(("store", event.addr))

        ctx.add_observer(Generic())
        ctx.add_observer(Checker())
        ctx.dispatch_store(PmAccessEvent("store", 64, 8, 1))
        ctx.dispatch_store(PmAccessEvent("store", 128, 8, 1, taint=L1))
        assert calls == [("store", 64), ("tainted", 128), ("store", 128)]

    def test_handed_annotation_is_not_looked_up_again(self):
        from repro.instrument import AnnotationRegistry
        registry = AnnotationRegistry()
        lock = registry.pm_sync_var_hint("lock", 8, 0)
        registry.register_instance("lock", 64)
        ctx = InstrumentationContext(annotations=registry)
        hits = []

        class Spy(Observer):
            def on_annotated_store(self, annotation, event):
                hits.append((annotation.name, event.addr))

        ctx.add_observer(Spy())
        registry.lookup = None  # a lookup here would raise
        ctx.dispatch_store(PmAccessEvent("store", 64, 8, 1), None)
        ctx.dispatch_store(PmAccessEvent("store", 512, 8, 1), lock)
        assert hits == [("lock", 512)]
