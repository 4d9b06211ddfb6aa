"""Clevel hashing functional tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.targets import ClevelTarget
from repro.targets.clevel import INITIAL_CAPACITY, M_CAPACITY, R_META

from .helpers import open_single, recover_from


@pytest.fixture
def clevel():
    _state, _view, instance = open_single(ClevelTarget())
    return instance


class TestFunctional:
    def test_insert_search(self, clevel):
        assert clevel.insert(5, 50)
        assert clevel.search(5) == 50

    def test_search_missing(self, clevel):
        assert clevel.search(5) is None

    def test_overwrite(self, clevel):
        clevel.insert(5, 50)
        clevel.insert(5, 51)
        assert clevel.search(5) == 51

    def test_delete(self, clevel):
        clevel.insert(5, 50)
        assert clevel.delete(5)
        assert clevel.search(5) is None

    def test_delete_missing(self, clevel):
        assert not clevel.delete(5)

    def test_key_zero(self, clevel):
        clevel.insert(0, 1)
        assert clevel.search(0) == 1

    def test_reinsert_past_deleted_slot(self, clevel):
        # 0 and 16 share a home slot; 1 probes past 16's slot, and once
        # 16 is deleted, putting 1 again must find it, not claim the
        # freed slot as a second copy.
        assert clevel.insert(0, 1)
        assert clevel.insert(16, 2)
        assert clevel.insert(1, 3)
        assert clevel.delete(16)
        assert clevel.insert(1, 4)
        assert clevel.search(1) == 4
        assert clevel.delete(1) is True
        assert clevel.delete(1) is False

    def test_expansion_preserves_items(self, clevel):
        # colliding keys force probes to fill and trigger expansion
        keys = [k * INITIAL_CAPACITY for k in range(8)]
        for key in keys:
            assert clevel.insert(key, key + 1)
        for key in keys:
            assert clevel.search(key) == key + 1
        _meta, _level, capacity = clevel._level()
        assert int(capacity) > INITIAL_CAPACITY

    def test_expand_bounded(self, clevel):
        from repro.targets.clevel import MAX_CAPACITY
        for _ in range(20):
            clevel._expand()
        _meta, _level, capacity = clevel._level()
        assert int(capacity) <= MAX_CAPACITY


class TestRecovery:
    def test_committed_expansion_survives(self):
        target = ClevelTarget()
        state, _view, instance = open_single(target)
        instance.insert(1, 10)
        instance._expand()
        state.pool.memory.persist_all()
        pool, rview, rtarget = recover_from(ClevelTarget, state)
        objpool, root = rtarget._recovered
        from repro.targets.base import TargetState
        from repro.targets.clevel import ClevelInstance
        rstate = TargetState(pool, extras={
            "objpool": objpool, "root": root,
            "heap": state.extras["heap"]})
        rinstance = ClevelInstance(rtarget, rstate, rview, None)
        assert rinstance.search(1) == 10

    def test_uncommitted_expansion_rolled_back(self):
        """The Figure 7 pattern: tx rollback reverts the new meta."""
        from repro.pmdk import Transaction
        target = ClevelTarget()
        state, view, instance = open_single(target)
        old_meta = int(view.load_u64(instance.root + R_META))
        tx = Transaction(instance.objpool, view, 0).begin()
        new_meta = tx.tx_alloc(64)
        tx.add_range(new_meta, 24)
        view.store_u64(new_meta + M_CAPACITY, 32)
        view.persist(new_meta + M_CAPACITY, 8)
        # crash before commit
        pool, _rview, _rtarget = recover_from(ClevelTarget, state)
        assert pool.read_u64(new_meta + M_CAPACITY) == 0  # rolled back
        assert pool.read_u64(instance.root + R_META) == old_meta


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["put", "get", "delete"]),
                          st.integers(0, 23), st.integers(0, 60_000)),
                max_size=50))
def test_property_matches_dict(ops):
    _state, _view, clevel = open_single(ClevelTarget())
    model = {}
    for kind, key, value in ops:
        if kind == "put":
            if clevel.insert(key, value):
                model[key] = value
        elif kind == "get":
            assert clevel.search(key) == model.get(key)
        else:
            assert clevel.delete(key) == (key in model)
            model.pop(key, None)
    for key, value in model.items():
        assert clevel.search(key) == value
