"""Shared fixtures for the paper-reproduction benchmarks.

``paper_results`` runs one bounded fuzzing session per Table 1 target and
is shared across all table benchmarks; every benchmark also writes its
rendered table/series to ``benchmarks/results/`` so the output survives
pytest's capture.
"""

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.core import PMRaceConfig, fuzz_parallel  # noqa: E402
from repro.targets import BUILTIN_TARGET_CLASSES  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Per-target fuzzing budgets (campaigns per base seed + config tweaks).
BUDGETS = {
    "P-CLHT": {"max_campaigns": 80},
    "clevel hashing": {"max_campaigns": 80},
    "CCEH": {"max_campaigns": 80},
    "FAST-FAIR": {"max_campaigns": 110},
    # memcached has 10 command kinds; longer op sequences are needed to
    # pair producers and consumers on live keys.
    "memcached-pmem": {"max_campaigns": 100, "ops_per_thread": 8},
    # SDK extension targets (bugs 15/16): small structures, short runs.
    "pmring": {"max_campaigns": 50},
    "txkv": {"max_campaigns": 50},
}

SEEDS = (7, 13, 42)

_cache = {}


def fuzz_all_targets():
    """Fuzz every Table 1 target once (cached for the session)."""
    if "paper" not in _cache:
        results = {}
        for cls in BUILTIN_TARGET_CLASSES:
            config = PMRaceConfig(max_seeds=20, **BUDGETS[cls.NAME])
            results[cls.NAME] = fuzz_parallel(cls, config, seeds=SEEDS,
                                              processes=1)
        _cache["paper"] = results
    return _cache["paper"]


@pytest.fixture(scope="session")
def paper_results():
    return fuzz_all_targets()


def emit(name, text):
    """Print a rendered table and persist it under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name + ".txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    print("\n" + text)
    return path
