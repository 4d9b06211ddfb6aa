"""ddmin minimization: correctness of the shrink loop and its output."""

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import Metrics
from repro.replay import replay_bundle, shrink_bundle
from repro.replay.minimize import _flatten, _rebuild, _Shrinker


def test_flatten_rebuild_round_trip():
    ops = [[{"op": "get", "key": 1}], [], [{"op": "set", "key": 2},
                                           {"op": "del", "key": 3}]]
    assert _rebuild(_flatten(ops), len(ops)) == ops


class _ListShrinker(_Shrinker):
    """ddmin harness over plain lists: no replays, pure predicate."""

    def __init__(self, budget=10_000):
        self.budget = budget
        self.exhausted = False
        self.tests = 0

    def run(self, items, predicate):
        def test(candidate):
            self.tests += 1
            if self.tests > self.budget:
                self.exhausted = True
                return False
            return predicate(candidate)
        return self.ddmin(list(items), test)


def test_ddmin_finds_single_culprit():
    items = list(range(64))
    result = _ListShrinker().run(items, lambda cand: 37 in cand)
    assert result == [37]


def test_ddmin_keeps_spread_out_culprits():
    items = list(range(40))
    need = {3, 21, 38}
    result = _ListShrinker().run(items, lambda c: need <= set(c))
    assert set(result) == need


def test_ddmin_respects_budget():
    shrinker = _ListShrinker(budget=5)
    result = shrinker.run(list(range(128)), lambda cand: 0 in cand)
    assert shrinker.exhausted
    # Budget exhaustion stops the search but never loses the invariant.
    assert 0 in result


@settings(max_examples=8, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=59), min_size=1,
               max_size=6))
def test_ddmin_output_is_one_minimal(culprits):
    result = _ListShrinker().run(list(range(60)),
                                 lambda c: culprits <= set(c))
    assert set(result) == culprits  # nothing extra survives


def test_shrink_reduces_and_verifies(memcached_bundle):
    metrics = Metrics()
    result = shrink_bundle(memcached_bundle, budget=120, metrics=metrics)
    assert result.reproduced
    assert result.verified
    assert result.min_ops < result.original_ops
    assert result.bundle is not None
    assert metrics.value("shrink.steps") == result.tests
    # The minimized bundle carries its provenance.
    assert result.bundle.data["shrink"]["original_ops"] == \
        result.original_ops


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=1, max_value=40))
def test_shrink_output_reproduces_original_key(memcached_bundle, budget):
    """The ISSUE property: whatever the budget, ddmin output still
    reproduces the original dedup key (seeded, so each example is
    deterministic)."""
    result = shrink_bundle(memcached_bundle, budget=budget)
    assert result.reproduced  # baseline uses the first test
    assert result.bundle is not None
    assert result.bundle.dedup_key == memcached_bundle.dedup_key
    outcome = replay_bundle(result.bundle)
    assert outcome.reproduced
    assert outcome.record.dedup_key() == memcached_bundle.dedup_key
    assert outcome.divergence is None


def test_shrink_replays_share_one_carrier_pool(memcached_bundle,
                                              os_thread_starts):
    """Every candidate replay and the final verification run on one
    pool: no more OS threads than simulated threads, none left over."""
    before = threading.active_count()
    result = shrink_bundle(memcached_bundle, budget=30)
    assert result.tests > 1 and result.verified
    assert 0 < len(os_thread_starts) <= len(memcached_bundle.ops)
    assert threading.active_count() == before


def test_shrink_unreproducible_bundle_reports_failure(memcached_bundle):
    broken = memcached_bundle.with_updates(
        dedup_key=["inter", "no:such:1", "no:such:2", "no:such:3"])
    result = shrink_bundle(broken, budget=10)
    assert not result.reproduced
    assert result.bundle is None
    assert result.tests == 1  # fails at the baseline, stops immediately
