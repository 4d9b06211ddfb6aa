"""Annotation registry tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.instrument import AnnotationRegistry


@pytest.fixture
def registry():
    return AnnotationRegistry()


class TestRegistry:
    def test_hint_creates_type(self, registry):
        annotation = registry.pm_sync_var_hint("lock", 8, 0)
        assert annotation.name == "lock"
        assert annotation.size == 8
        assert annotation.init_val == 0

    def test_hint_idempotent(self, registry):
        first = registry.pm_sync_var_hint("lock", 8, 0)
        again = registry.pm_sync_var_hint("lock", 8, 0)
        assert first is again
        assert registry.annotation_count == 1

    def test_register_and_lookup(self, registry):
        registry.pm_sync_var_hint("lock", 8, 0)
        registry.register_instance("lock", 128)
        assert registry.lookup(128, 8).name == "lock"

    def test_lookup_overlapping_range(self, registry):
        registry.pm_sync_var_hint("lock", 8, 0)
        registry.register_instance("lock", 128)
        # a store covering [120, 136) touches the annotated byte
        assert registry.lookup(120, 16) is not None

    def test_lookup_miss(self, registry):
        registry.pm_sync_var_hint("lock", 8, 0)
        registry.register_instance("lock", 128)
        assert registry.lookup(256, 8) is None

    def test_unregister(self, registry):
        registry.pm_sync_var_hint("lock", 8, 0)
        registry.register_instance("lock", 128)
        registry.unregister_instance(128)
        assert registry.lookup(128, 8) is None

    def test_unregister_unknown_ok(self, registry):
        registry.unregister_instance(999)

    def test_unknown_type_raises(self, registry):
        with pytest.raises(KeyError):
            registry.register_instance("nope", 0)

    def test_multiple_types(self, registry):
        registry.pm_sync_var_hint("a", 8, 0)
        registry.pm_sync_var_hint("b", 8, 1)
        registry.register_instance("a", 0)
        registry.register_instance("b", 64)
        assert registry.annotation_count == 2
        assert registry.lookup(0, 8).name == "a"
        assert registry.lookup(64, 8).init_val == 1
        assert {a.name for a in registry.types()} == {"a", "b"}


def byte_scan(registered, addr, size):
    """The reference lookup: the first registered byte of the range."""
    for offset in range(addr, addr + max(size, 1)):
        if offset in registered:
            return registered[offset]
    return None


#: One registry operation: register an instance of type "a" or "b",
#: unregister an address, or look a range up (unaligned, multi-word and
#: zero-size ranges included).
_OPS = st.one_of(
    st.tuples(st.just("register"), st.sampled_from(["a", "b"]),
              st.integers(0, 200)),
    st.tuples(st.just("unregister"), st.integers(0, 200)),
    st.tuples(st.just("lookup"), st.integers(0, 200),
              st.one_of(st.integers(0, 9), st.integers(10, 100))),
)


class TestWordIndex:
    def test_empty_registry_misses(self, registry):
        registry.pm_sync_var_hint("lock", 8, 0)
        assert registry.lookup(0, 8192) is None

    def test_lowest_start_wins(self, registry):
        registry.pm_sync_var_hint("a", 8, 0)
        registry.pm_sync_var_hint("b", 8, 0)
        registry.register_instance("b", 13)
        registry.register_instance("a", 17)
        registry.register_instance("a", 9)
        assert registry.lookup(10, 16).name == "b"
        assert registry.lookup(8, 16).name == "a"

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_OPS, max_size=60))
    def test_matches_the_byte_scan(self, ops):
        registry = AnnotationRegistry()
        registry.pm_sync_var_hint("a", 8, 0)
        registry.pm_sync_var_hint("b", 8, 1)
        registered = {}
        for op in ops:
            if op[0] == "register":
                registry.register_instance(op[1], op[2])
                registered[op[2]] = registry.pm_sync_var_hint(op[1], 8, 0)
            elif op[0] == "unregister":
                registry.unregister_instance(op[1])
                registered.pop(op[1], None)
            else:
                assert registry.lookup(op[1], op[2]) is \
                    byte_scan(registered, op[1], op[2])
        for addr in range(0, 210, 3):
            assert registry.lookup(addr, 11) is \
                byte_scan(registered, addr, 11)
        # No empty word lingers, so an emptied registry misses at once.
        assert sorted(addr for starts in registry._by_word.values()
                      for addr in starts) == sorted(registered)
        assert all(registry._by_word.values())
