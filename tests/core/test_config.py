"""PMRaceConfig is the one home of campaign settings; these pins keep
what sessions and bundles record of it from moving."""

import inspect
import json
import os

import pytest

from repro.core import PMRaceConfig
from repro.core.config import FIXED_SETTINGS
from repro.core.session import config_digest
from repro.replay import BundleError, ReproBundle, config_snapshot
from repro.replay.bundle import config_from_snapshot

GOLDEN = os.path.join(os.path.dirname(__file__), os.pardir, "replay",
                      "golden", "memcached-pmem-bug.json")


def golden_data():
    with open(GOLDEN) as handle:
        return json.load(handle)


class TestDigests:
    def test_default_digest(self):
        assert config_digest(PMRaceConfig()) == \
            "8e33370c316b27d1f6d3947a94b9b90daf15b8e3"

    def test_non_default_digest(self):
        config = PMRaceConfig(mode="delay", eadr=True, max_campaigns=10)
        assert config_digest(config) == \
            "139f4ace7a393844560100e3fe59cfa7a38b54bc"


class TestSettings:
    def test_keyword_settings(self):
        parameters = inspect.signature(PMRaceConfig).parameters
        assert len(parameters) == 21
        for field in FIXED_SETTINGS:
            assert field not in parameters

    def test_fixed_settings_are_class_constants(self):
        assert (PMRaceConfig.writer_waiting, PMRaceConfig.max_steps,
                PMRaceConfig.spin_hang_limit) == (150, 30_000, 400)
        assert not hasattr(PMRaceConfig(), "capture_stacks")


class TestBundleConfig:
    def test_snapshot_equals_golden_config(self):
        assert config_snapshot(PMRaceConfig()) == golden_data()["config"]

    def test_snapshot_round_trips(self):
        config = PMRaceConfig(n_threads=3, taint_enabled=False,
                              use_checkpoints=True, eadr=True,
                              evict_fraction=0.25)
        rebuilt = config_from_snapshot(config_snapshot(config))
        assert config_snapshot(rebuilt) == config_snapshot(config)

    def test_missing_fields_take_config_defaults(self):
        assert config_snapshot(config_from_snapshot({})) == \
            config_snapshot(PMRaceConfig())

    @pytest.mark.parametrize("field, value", [
        ("writer_waiting", 149), ("max_steps", 20_000),
        ("spin_hang_limit", 200), ("capture_stacks", False)])
    def test_other_fixed_value_refused(self, field, value):
        data = golden_data()
        data["config"][field] = value
        with pytest.raises(BundleError, match=field):
            ReproBundle(data)

    def test_non_object_config_refused(self):
        data = golden_data()
        data["config"] = []
        with pytest.raises(BundleError, match="config"):
            ReproBundle(data)
