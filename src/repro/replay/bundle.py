"""Repro bundles: the self-contained, versioned reproducer format.

A bundle is everything one campaign needs to be re-executed
deterministically, as a JSON document:

* the **inputs** — target name, the config fields that shape execution,
  the per-thread operation lists, the sync-point entry and carried-over
  ``cond_wait`` skips (call sites as ``module:function:line`` strings so
  they survive re-interning in a fresh process);
* the **schedule** — the decision vector recorded by
  :class:`~repro.runtime.policies.RecordingPolicy` (one tid per
  scheduler pick) plus the journaled draws of the privileged-election
  and cache-eviction RNGs;
* the **identity** — the dedup key of the record the bundle reproduces
  and the dedup key of the campaign's first inconsistency, which replay
  asserts against;
* a snapshot of the interned call-site table, for diagnostics and for
  resolving the schedule against the original run.

Bundles are forward-versioned: :data:`BUNDLE_VERSION` is bumped on any
incompatible field change and :func:`validate_bundle_data` rejects
versions it does not understand, so a stale golden bundle fails loudly
instead of replaying garbage.
"""

import json

from ..core.config import CONFIG_FIELDS, FIXED_SETTINGS, PMRaceConfig
from ..core.session import atomic_write_text

BUNDLE_VERSION = 1

#: Fields every version-1 bundle must carry.
_REQUIRED = (
    "version", "target", "kind", "dedup_key", "config", "base_seed",
    "campaign_index", "ops", "entry", "skips", "schedule", "priv_draws",
    "evict_draws",
)


class BundleError(ValueError):
    """A bundle failed structural validation (wrong version, missing
    fields, malformed schedule)."""


def config_snapshot(config):
    """The executable subset of a PMRaceConfig as a JSON-safe dict."""
    return {field: FIXED_SETTINGS[field] if field in FIXED_SETTINGS
            else getattr(config, field) for field in CONFIG_FIELDS}


def config_from_snapshot(snapshot):
    """The :class:`PMRaceConfig` a bundle's ``config`` snapshot records;
    a field the snapshot lacks takes the config's default."""
    return PMRaceConfig(**{field: snapshot[field] for field in CONFIG_FIELDS
                           if field in snapshot
                           and field not in FIXED_SETTINGS})


def validate_bundle_data(data):
    """Structural validation; returns ``data`` or raises BundleError."""
    if not isinstance(data, dict):
        raise BundleError("bundle must be a JSON object, got %s"
                          % type(data).__name__)
    missing = [field for field in _REQUIRED if field not in data]
    if missing:
        raise BundleError("bundle missing fields: %s" % ", ".join(missing))
    if data["version"] != BUNDLE_VERSION:
        raise BundleError("unsupported bundle version %r (this build "
                          "understands %d)" % (data["version"],
                                               BUNDLE_VERSION))
    if not isinstance(data["config"], dict):
        raise BundleError("config must be a JSON object")
    for field, value in FIXED_SETTINGS.items():
        if data["config"].get(field, value) != value:
            raise BundleError("bundle config has %s=%r; this build runs "
                              "only %s=%r" % (field, data["config"][field],
                                              field, value))
    if not all(isinstance(tid, int) for tid in data["schedule"]):
        raise BundleError("schedule must be a list of thread ids")
    if not isinstance(data["ops"], list) or not all(
            isinstance(ops, list) for ops in data["ops"]):
        raise BundleError("ops must be a list of per-thread op lists")
    return data


class ReproBundle:
    """One reproducer: a validated bundle dict with typed accessors.

    Bundles are immutable by convention — shrinking produces new
    bundles — and picklable (plain data), so they ride along on records
    through the parallel service's result pipeline.
    """

    def __init__(self, data):
        self.data = validate_bundle_data(data)

    # ------------------------------------------------------------------
    # identity

    @property
    def version(self):
        return self.data["version"]

    @property
    def target(self):
        return self.data["target"]

    @property
    def kind(self):
        return self.data["kind"]

    @property
    def dedup_key(self):
        """The reproduced record's dedup key, as the tuple records use."""
        return tuple(self.data["dedup_key"])

    @property
    def first_key(self):
        """Dedup key of the campaign's first inconsistency (or None)."""
        key = self.data.get("first_key")
        return tuple(key) if key is not None else None

    @property
    def verdict(self):
        """The record's verdict at bundle-save time ("pending" when the
        bundle was captured before validation ran)."""
        return self.data.get("verdict", "pending")

    # ------------------------------------------------------------------
    # execution inputs

    @property
    def config(self):
        return self.data["config"]

    @property
    def base_seed(self):
        return self.data["base_seed"]

    @property
    def campaign_index(self):
        return self.data["campaign_index"]

    @property
    def ops(self):
        return self.data["ops"]

    @property
    def op_count(self):
        return sum(len(ops) for ops in self.data["ops"])

    @property
    def entry(self):
        return self.data["entry"]

    @property
    def skips(self):
        return self.data["skips"]

    @property
    def schedule(self):
        return self.data["schedule"]

    @property
    def priv_draws(self):
        return self.data["priv_draws"]

    @property
    def evict_draws(self):
        return self.data["evict_draws"]

    @property
    def callsites(self):
        return self.data.get("callsites", [])

    # ------------------------------------------------------------------
    # derivation and serialization

    def with_updates(self, **fields):
        """A new bundle with ``fields`` replaced (shrink output)."""
        data = dict(self.data)
        data.update(fields)
        return ReproBundle(data)

    def to_json(self, indent=None):
        return json.dumps(self.data, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            # Distinguish a *truncated* document (killed mid-write —
            # the parser ran off the end of the input) from garbage.
            if not text.strip() or exc.pos >= len(text.rstrip()):
                raise BundleError(
                    "truncated bundle: the file ends mid-document "
                    "(its writer was probably killed mid-write); "
                    "re-capture the bundle")
            raise BundleError("bundle is not valid JSON: %s" % exc)
        return cls(data)

    def save(self, path):
        """Durably write the bundle (tmp + fsync + rename + directory
        fsync), so a kill mid-save can never leave a torn bundle at
        ``path``."""
        return atomic_write_text(path, self.to_json(indent=2) + "\n")

    @classmethod
    def load(cls, path):
        with open(path) as handle:
            return cls.from_json(handle.read())

    def __repr__(self):
        return "<ReproBundle %s %s ops=%d schedule=%d>" % (
            self.target, self.kind, self.op_count, len(self.schedule))
