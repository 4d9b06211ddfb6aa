"""Session-owned carrier threads: a fuzzing session starts one OS thread
per simulated thread, whatever its campaign count, and none outlives it."""

import threading

import pytest

import repro.core.engine as engine
from repro.core import PMRace, PMRaceConfig
from repro.core.campaign import run_campaign
from repro.obs import Metrics
from repro.targets import make_target

from .toy_target import ToyTarget


class RaisingTarget(ToyTarget):
    """The toy target, with an operation that raises out of a campaign."""

    def exec_op(self, instance, view, op):
        if op.get("op") == "read":
            raise RuntimeError("target fault")
        return super().exec_op(instance, view, op)


def fingerprint(campaign):
    checker = campaign.checker
    records = sorted(repr((r.dedup_key(), tuple(r.stack)))
                     for r in checker.inconsistencies
                     + checker.sync_inconsistencies)
    return (campaign.outcome.status, campaign.outcome.steps,
            sorted(map(repr, campaign.branch_edges)),
            sorted(map(repr, campaign.alias_pairs)), records)


def fuzz(monkeypatch, target, fresh_pools=False, **config):
    """Run one session; returns (campaign fingerprints, metrics)."""
    prints = []

    def probe(*args, **kwargs):
        if fresh_pools:
            kwargs["carriers"] = None  # a private pool per campaign
        campaign = run_campaign(*args, **kwargs)
        prints.append(fingerprint(campaign))
        return campaign

    monkeypatch.setattr(engine, "run_campaign", probe)
    metrics = Metrics()
    PMRace(target, PMRaceConfig(**config), metrics=metrics).run()
    return prints, metrics


def test_ok_session_starts_one_thread_per_simulated_thread(monkeypatch):
    before = threading.active_count()
    prints, metrics = fuzz(monkeypatch, ToyTarget(), max_campaigns=25,
                           max_seeds=8, ops_per_thread=4, base_seed=2)
    assert threading.active_count() == before
    assert len(prints) == 25
    assert all(status == "ok" for status, *_rest in prints)
    assert metrics.value("scheduler.threads_started") == 4


def test_hang_heavy_session_matches_fresh_pools(monkeypatch):
    """P-CLHT at seed 7 hangs in 15 of 70 campaigns; every campaign
    after a hang runs on the carriers the hang released, and must see
    what a private pool would give it."""
    before = threading.active_count()
    shared, metrics = fuzz(monkeypatch, make_target("P-CLHT"),
                           max_campaigns=70, base_seed=7)
    assert threading.active_count() == before
    assert sum(status != "ok" for status, *_rest in shared) == 15
    assert metrics.value("scheduler.threads_started") == 4
    fresh, fresh_metrics = fuzz(monkeypatch, make_target("P-CLHT"),
                                fresh_pools=True, max_campaigns=70,
                                base_seed=7)
    assert threading.active_count() == before
    assert fresh == shared
    assert fresh_metrics.value("scheduler.threads_started") == 70 * 4


def test_raising_session_leaves_no_carrier(monkeypatch):
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="target fault"):
        fuzz(monkeypatch, RaisingTarget(), max_campaigns=10,
             max_seeds=4, ops_per_thread=4, base_seed=2)
    assert threading.active_count() == before
