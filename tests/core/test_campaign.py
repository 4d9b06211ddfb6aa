"""run_campaign tests over the toy target."""

import pytest

from repro.core import PMRaceConfig, run_campaign
from repro.runtime import SeededRandomPolicy

from .toy_target import ToyTarget


def run_toy(ops_by_thread, seed=0, config=None, **kwargs):
    target = ToyTarget()
    state = target.setup()
    policy = SeededRandomPolicy(seed)
    return run_campaign(target, state, ops_by_thread, policy,
                        config or PMRaceConfig(), **kwargs)


BUMPY = [[{"op": "bump", "key": 0}] * 3 for _ in range(3)]


class TestRunCampaign:
    def test_completes(self):
        result = run_toy(BUMPY)
        assert result.outcome.ok
        assert not result.hang

    def test_detects_candidates_and_inconsistencies(self):
        result = run_toy(BUMPY, seed=5)
        assert result.checker.candidates
        assert result.checker.inconsistencies

    def test_collects_coverage(self):
        result = run_toy(BUMPY)
        assert result.branch_edges
        assert result.profiler.profile

    def test_alias_pairs_on_contention(self):
        result = run_toy(BUMPY, seed=3)
        assert result.alias_pairs

    def test_op_errors_counted(self):
        result = run_toy([[{"op": "nonsense", "key": 0}]])
        assert result.op_errors == 1

    def test_sync_inconsistency_recorded(self):
        result = run_toy(BUMPY)
        names = {r.annotation_name
                 for r in result.checker.sync_inconsistencies}
        assert names == {"toy_lock"}

    def test_determinism(self):
        a = run_toy(BUMPY, seed=11)
        b = run_toy(BUMPY, seed=11)
        assert len(a.checker.candidates) == len(b.checker.candidates)
        assert a.branch_edges == b.branch_edges
        assert a.alias_pairs == b.alias_pairs

    def test_taint_can_be_disabled(self):
        result = run_toy(BUMPY, seed=5,
                         config=PMRaceConfig(taint_enabled=False))
        assert not result.checker.inconsistencies

    def test_extra_observers(self):
        from repro.instrument.events import Observer

        class Counter(Observer):
            count = 0

            def on_store(self, event):
                self.count += 1

        counter = Counter()
        run_toy(BUMPY, extra_observers=[counter])
        assert counter.count > 0

    def test_single_thread_no_inter(self):
        result = run_toy([[{"op": "bump", "key": 0}] * 4])
        assert not result.checker.inter_candidates
        assert result.checker.intra_candidates


@pytest.mark.parametrize("name", ["P-CLHT", "memcached-pmem"])
def test_stack_walks_at_most_records_minted(name, monkeypatch):
    """Stacks are walked only for events that mint a record, so no
    campaign walks more stacks than it mints records; the run's metrics
    carry both totals."""
    import repro.core.engine as engine
    from repro.core import PMRace, PMRaceConfig
    from repro.obs import Metrics
    from repro.targets import make_target

    run = engine.run_campaign
    per_campaign = []

    def counted(*args, **kwargs):
        result = run(*args, **kwargs)
        checker = result.checker
        per_campaign.append((checker.stack_walks, len(checker.candidates)
                             + len(checker.inconsistencies)
                             + len(checker.sync_inconsistencies)))
        return result

    monkeypatch.setattr(engine, "run_campaign", counted)
    metrics = Metrics()
    PMRace(make_target(name), PMRaceConfig(max_campaigns=8, base_seed=7),
           metrics=metrics).run()
    assert len(per_campaign) == 8
    assert all(walks <= minted for walks, minted in per_campaign)
    walks = sum(walks for walks, _minted in per_campaign)
    assert walks > 0
    assert metrics.value("callsite.stack_walks") == walks
    assert metrics.value("detect.records_minted") == sum(
        minted for _walks, minted in per_campaign)
