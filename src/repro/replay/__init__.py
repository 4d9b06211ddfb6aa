"""Deterministic reproducer bundles: capture, replay, minimize.

One detected inconsistency becomes one **repro bundle** — a
self-contained JSON document holding everything needed to re-execute
the exact campaign that found it: the input op-sequence, the schedule
decision vector, the journaled RNG draws, the sync-point configuration
and the record's identity (dedup key + the campaign's first
inconsistency). See :mod:`repro.replay.bundle` for the format,
:mod:`repro.replay.recorder` for capture, :mod:`repro.replay.replayer`
for replay and :mod:`repro.replay.minimize` for ddmin shrinking.

CLI surface: ``repro replay <bundle>`` and ``repro shrink <bundle>``;
capture is switched on with ``--repro-dir`` on ``fuzz``, ``validate``
and ``tables``.
"""

import json
import os
import zlib

from .bundle import (
    BUNDLE_VERSION,
    BundleError,
    CONFIG_FIELDS,
    ReproBundle,
    config_snapshot,
    validate_bundle_data,
)
from .minimize import DEFAULT_BUDGET, ShrinkResult, shrink_bundle
from .recorder import CampaignCapture, RecordingRandom, ReplayRandom
from .replayer import ReplayOutcome, ReplayRun, replay_bundle, replay_campaign

__all__ = [
    "BUNDLE_VERSION",
    "BundleError",
    "CONFIG_FIELDS",
    "CampaignCapture",
    "DEFAULT_BUDGET",
    "RecordingRandom",
    "ReplayOutcome",
    "ReplayRandom",
    "ReplayRun",
    "ReproBundle",
    "ShrinkResult",
    "bundle_filename",
    "config_snapshot",
    "replay_bundle",
    "replay_campaign",
    "save_bundles",
    "shrink_bundle",
    "validate_bundle_data",
]


def bundle_filename(bundle):
    """Deterministic file name for a bundle: target, kind, key digest."""
    digest = zlib.crc32(json.dumps(list(bundle.dedup_key),
                                   sort_keys=True).encode()) & 0xFFFFFFFF
    return "%s-%s-%08x.json" % (bundle.target, bundle.kind, digest)


def save_bundles(result, directory):
    """Write every record-attached bundle in ``result`` to ``directory``.

    Verdicts are refreshed from the owning record first (bundles are
    captured at detection time, before deferred validation runs), so
    the files carry the final verdict. Returns the written paths.
    """
    os.makedirs(directory, exist_ok=True)
    paths = []
    for record in list(result.inconsistencies) \
            + list(result.sync_inconsistencies):
        bundle = getattr(record, "bundle", None)
        if bundle is None:
            continue
        if bundle.verdict != record.verdict.value:
            bundle = bundle.with_updates(verdict=record.verdict.value)
            record.bundle = bundle
        path = os.path.join(directory, bundle_filename(bundle))
        bundle.save(path)
        paths.append(path)
    return paths
