"""Coverage-weighted seed corpus for the seed exploration tier (§4.2.3).

PMRace's seed tier retains only seeds that grow branch or PM alias-pair
coverage.  This module turns the engine's former bare-list corpus into a
real subsystem:

* **Retention** — content-digest dedup (an evolved seed identical to a
  retained one is never kept twice) plus per-seed statistics: campaigns
  spent, new-branch/new-alias yield, inconsistencies credited, and how
  often the seed was picked as an evolution parent.
* **Energy scheduling** — AFL-style weighted parent selection: seeds
  with high coverage yield per pick and recent progress get more
  evolution picks.  Selection draws at most one ``rng.random()`` from
  the engine's existing seeded mutator stream, so runs stay fully
  deterministic and replay capture stays bit-faithful.
* **Persistence** — optional ``persist_dir``: one versioned JSON file
  per retained seed, named by content digest, written durably
  (:func:`~repro.core.session.atomic_write_json`) so parallel workers can
  share a corpus directory, and loaded on start for resumable runs.

The engine delegates the whole seed-tier list dance here
(:meth:`Corpus.next_entry` / :meth:`Corpus.account` /
:meth:`Corpus.settle`); the parallel service folds each worker's
retained corpus into the merged :class:`~repro.core.engine.RunResult`
and re-seeds retried workers from it.
"""

import hashlib
import json
import os

from .session import atomic_write_json

#: Bump when the per-seed JSON layout changes; files with another
#: version are skipped at load (never deleted).
CORPUS_SCHEMA_VERSION = 1

_STAT_FIELDS = ("picks", "campaigns", "new_branch", "new_alias",
                "inconsistencies")


class CorpusError(ValueError):
    """A persisted seed file is malformed, mis-versioned, or tampered."""


def seed_digest(threads):
    """Content digest of per-thread op lists (canonical-JSON SHA-1).

    Identical operation sequences always hash identically regardless of
    which :class:`~repro.core.inputgen.Seed` instance carries them, so
    the digest is the corpus' dedup key and the persistence file name.
    """
    payload = json.dumps(threads, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()


class SeedEntry:
    """One retained seed plus its scheduling statistics.

    Attributes:
        seed: The :class:`~repro.core.inputgen.Seed`.
        digest: Content digest (:func:`seed_digest`).
        initial: Initial/pinned seeds are never dropped; evolved seeds
            survive only while productive.
        order: Retention order, stable across save/load.
        picks: Times selected as an evolution parent.
        campaigns: Campaigns executed directly on this seed.
        new_branch / new_alias: Coverage the seed's campaigns added.
        inconsistencies: Unique inconsistency records credited.
        last_progress_pick: Global pick counter value when the seed last
            produced new coverage (recency boost input).
    """

    def __init__(self, seed, digest, initial, order):
        self.seed = seed
        self.digest = digest
        self.initial = initial
        self.order = order
        self.picks = 0
        self.campaigns = 0
        self.new_branch = 0
        self.new_alias = 0
        self.inconsistencies = 0
        self.last_progress_pick = None

    # ------------------------------------------------------------------

    def energy(self, now, corpus_size):
        """AFL-style energy: coverage yield per pick, boosted while the
        seed's progress is recent (within one corpus-sized pick window).
        """
        score = (1.0 + self.new_branch + self.new_alias
                 + 2.0 * self.inconsistencies)
        rate = score / (1.0 + self.picks)
        if self.last_progress_pick is not None and \
                now - self.last_progress_pick <= corpus_size:
            rate *= 2.0
        return rate

    def to_jsonable(self):
        stats = {field: getattr(self, field) for field in _STAT_FIELDS}
        stats["last_progress_pick"] = self.last_progress_pick
        return {
            "version": CORPUS_SCHEMA_VERSION,
            "digest": self.digest,
            "order": self.order,
            "initial": bool(self.initial),
            "threads": self.seed.to_jsonable(),
            "stats": stats,
        }

    @classmethod
    def from_jsonable(cls, data):
        from .inputgen import Seed
        if not isinstance(data, dict):
            raise CorpusError("seed document is not an object")
        if data.get("version") != CORPUS_SCHEMA_VERSION:
            raise CorpusError("unsupported corpus schema version %r"
                              % (data.get("version"),))
        threads = data.get("threads")
        if not isinstance(threads, list) or \
                not all(isinstance(ops, list) for ops in threads):
            raise CorpusError("threads must be a list of op lists")
        digest = seed_digest(json.loads(json.dumps(threads)))
        stored = data.get("digest")
        if stored is not None and stored != digest:
            raise CorpusError("digest mismatch (stored %s, content %s)"
                              % (stored, digest))
        entry = cls(Seed.from_jsonable(threads), digest,
                    bool(data.get("initial")), int(data.get("order", 0)))
        stats = data.get("stats") or {}
        for field in _STAT_FIELDS:
            setattr(entry, field, int(stats.get(field, 0)))
        lpp = stats.get("last_progress_pick")
        entry.last_progress_pick = None if lpp is None else int(lpp)
        return entry

    def __repr__(self):
        return "<SeedEntry %s%s ops=%d yield=%d+%d>" % (
            self.digest[:10], " initial" if self.initial else "",
            self.seed.op_count, self.new_branch, self.new_alias)


class Corpus:
    """Seed retention, energy-weighted selection, and persistence.

    Args:
        persist_dir: Optional directory for one JSON file per retained
            seed; loaded by :meth:`load`, written atomically on every
            retention/accounting change.
        metrics: Optional :class:`~repro.obs.metrics.Metrics` registry
            (``corpus.*`` counters and the ``corpus.size`` gauge).
        tracer: Optional :class:`~repro.obs.tracer.Tracer` for
            ``corpus_load``/``corpus_seed`` events.
    """

    def __init__(self, persist_dir=None, metrics=None, tracer=None):
        self.persist_dir = persist_dir
        self.metrics = metrics
        self.tracer = tracer
        self._entries = []
        self._by_digest = {}
        self._picks = 0
        self._next_order = 0
        self.load_errors = 0

    # ------------------------------------------------------------------
    # views

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def seeds(self):
        """The retained seeds, in corpus order."""
        return [entry.seed for entry in self._entries]

    def digests(self):
        """Retained content digests, in corpus order."""
        return [entry.digest for entry in self._entries]

    def stats_rows(self):
        """Per-seed rows for ``repro corpus stats`` and trace sinks."""
        size = max(1, len(self._entries))
        return [{
            "digest": entry.digest,
            "origin": "initial" if entry.initial else "evolved",
            "ops": entry.seed.op_count,
            "threads": len(entry.seed.threads),
            "picks": entry.picks,
            "campaigns": entry.campaigns,
            "new_branch": entry.new_branch,
            "new_alias": entry.new_alias,
            "inconsistencies": entry.inconsistencies,
            "energy": round(entry.energy(self._picks, size), 3),
        } for entry in self._entries]

    # ------------------------------------------------------------------
    # retention

    def add_initial(self, seed):
        """Register a pinned seed (never dropped); digest-deduplicated.

        Returns the corpus entry — the existing one when an identical
        seed (same op content) is already retained.
        """
        digest = seed_digest(seed.to_jsonable())
        existing = self._by_digest.get(digest)
        if existing is not None:
            return existing
        entry = SeedEntry(seed, digest, True, self._next_order)
        self._next_order += 1
        self._entries.append(entry)
        self._by_digest[digest] = entry
        self._persist(entry)
        self._count("corpus.initial")
        self._size_gauge()
        return entry

    def add_exported(self, data):
        """Adopt one exported entry (cross-worker sharing); pinned.

        ``data`` is the plain-JSON shape produced by :meth:`export` /
        ``RunResult.corpus_seeds``.  Invalid documents are counted in
        :attr:`load_errors` and skipped.
        """
        try:
            entry = SeedEntry.from_jsonable(data)
        except (CorpusError, ValueError, TypeError):
            self.load_errors += 1
            return None
        existing = self._by_digest.get(entry.digest)
        if existing is not None:
            return existing
        entry.initial = True
        entry.order = self._next_order
        self._next_order += 1
        self._entries.append(entry)
        self._by_digest[entry.digest] = entry
        self._persist(entry)
        self._count("corpus.shared")
        self._size_gauge()
        return entry

    def next_entry(self, mutator, seed_index):
        """The seed to fuzz next: a not-yet-visited retained entry, or a
        provisional evolved child of an energy-selected parent.

        Returns ``(entry, evolved)``.  A provisional (``evolved``)
        entry joins the corpus immediately — mirroring the engine's old
        append-then-maybe-pop dance — and must be settled with
        :meth:`settle` after its campaigns ran.
        """
        if seed_index < len(self._entries):
            return self._entries[seed_index], False
        parent = self._select(mutator.rng)
        child = mutator.evolve_from(parent.seed, self.seeds())
        entry = SeedEntry(child, seed_digest(child.to_jsonable()), False,
                          self._next_order)
        self._next_order += 1
        self._entries.append(entry)
        return entry, True

    def account(self, entry, campaigns, new_branch, new_alias,
                inconsistencies):
        """Credit one seed-tier iteration's outcome to ``entry``."""
        entry.campaigns += campaigns
        entry.new_branch += new_branch
        entry.new_alias += new_alias
        entry.inconsistencies += inconsistencies
        if new_branch or new_alias:
            entry.last_progress_pick = self._picks
        if self._by_digest.get(entry.digest) is entry:
            # Persist settled entries only; a provisional evolved entry
            # is persisted by settle() if it earns retention (and must
            # never clobber a retained twin's file on digest collision).
            self._persist(entry)

    def settle(self, entry, productive):
        """Keep or drop a provisional evolved entry; returns retained.

        Retention requires *both* coverage progress and a fresh content
        digest — an evolved seed identical to a retained one is a
        duplicate whatever it covered.
        """
        if not self._entries or self._entries[-1] is not entry:
            raise ValueError("settle() expects the provisional tail entry")
        duplicate = entry.digest in self._by_digest
        retained = productive and not duplicate
        if retained:
            self._by_digest[entry.digest] = entry
            self._persist(entry)
            self._count("corpus.retained")
        else:
            self._entries.pop()
            self._count("corpus.dedup_rejected" if productive
                        else "corpus.dropped")
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit("corpus_seed", digest=entry.digest,
                             seed_id=entry.seed.seed_id,
                             productive=bool(productive),
                             duplicate=duplicate, retained=retained)
        self._size_gauge()
        return retained

    def discard(self, entry):
        """Remove a retained entry (corpus minimization); deletes its
        persisted file when a persist dir is configured."""
        self._entries.remove(entry)
        if self._by_digest.get(entry.digest) is entry:
            del self._by_digest[entry.digest]
        if self.persist_dir:
            try:
                os.remove(os.path.join(self.persist_dir,
                                       entry.digest + ".json"))
            except OSError:
                pass
        self._size_gauge()

    # ------------------------------------------------------------------
    # selection

    def _select(self, rng):
        """Pick an evolution parent by energy; deterministic given
        ``rng``, which spends one ``rng.random()`` on the weighted pick
        (none when only one seed is retained).
        """
        entries = self._entries
        self._picks += 1
        if len(entries) == 1:
            entry = entries[0]
        else:
            weights = [e.energy(self._picks, len(entries))
                       for e in entries]
            mark = rng.random() * sum(weights)
            entry = entries[-1]
            acc = 0.0
            for candidate, weight in zip(entries, weights):
                acc += weight
                if mark < acc:
                    entry = candidate
                    break
        entry.picks += 1
        self._count("corpus.picks")
        return entry

    # ------------------------------------------------------------------
    # persistence

    def load(self):
        """Load persisted seeds (resumable runs); returns the count.

        Files that fail schema/digest validation are counted in
        :attr:`load_errors` and skipped, never deleted.  Load order is
        the stored retention order (ties broken by digest), so resumed
        runs are deterministic regardless of directory listing order.
        """
        if not self.persist_dir or not os.path.isdir(self.persist_dir):
            return 0
        loaded = []
        for name in sorted(os.listdir(self.persist_dir)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.persist_dir, name)
            try:
                with open(path) as handle:
                    entry = SeedEntry.from_jsonable(json.load(handle))
            except (OSError, ValueError, CorpusError):
                self.load_errors += 1
                continue
            if entry.digest not in self._by_digest:
                self._by_digest[entry.digest] = entry
                loaded.append(entry)
        loaded.sort(key=lambda e: (e.order, e.digest))
        for entry in loaded:
            entry.order = self._next_order
            self._next_order += 1
            self._entries.append(entry)
        if loaded:
            self._count("corpus.loaded", len(loaded))
            self._size_gauge()
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit("corpus_load", dir=self.persist_dir,
                             loaded=len(loaded), errors=self.load_errors)
        return len(loaded)

    def export(self):
        """Plain-JSON snapshot of the retained corpus (cross-worker
        sharing via ``RunResult.corpus_seeds``; also what persistence
        writes per seed)."""
        return [entry.to_jsonable() for entry in self._entries
                if entry.digest in self._by_digest]

    def _persist(self, entry):
        if not self.persist_dir:
            return
        os.makedirs(self.persist_dir, exist_ok=True)
        path = os.path.join(self.persist_dir, entry.digest + ".json")
        atomic_write_json(path, entry.to_jsonable())
        self._count("corpus.saved")

    # ------------------------------------------------------------------
    # observability plumbing

    def _count(self, name, n=1):
        if self.metrics is not None:
            self.metrics.counter(name).inc(n)

    def _size_gauge(self):
        if self.metrics is not None:
            self.metrics.gauge("corpus.size").set(len(self._entries))


# ----------------------------------------------------------------------
# coverage measurement + minimize-by-coverage (``repro corpus minimize``)

def measure_seed_coverage(target, seed, base_seed=0):
    """Branch-edge and alias-pair sets one campaign of ``seed`` covers.

    Deterministic given ``base_seed`` (fresh state, seeded scheduler, no
    crash imaging or tainting — this is a pure coverage probe).
    """
    from ..instrument.callsite import CallSiteTable
    from ..runtime.policies import SeededRandomPolicy
    from .campaign import run_campaign
    from .checkpoints import make_state_provider
    from .seeding import policy_seed
    provider = make_state_provider(target)
    campaign = run_campaign(target, provider.provide(), seed.threads,
                            SeededRandomPolicy(policy_seed(base_seed, 0)),
                            taint_enabled=False, snapshot_images=False,
                            capture_stacks=False,
                            callsites=CallSiteTable())
    return set(campaign.branch_edges), set(campaign.alias_pairs)


def minimize_by_coverage(corpus, target, base_seed=0):
    """Greedy set-cover over per-seed coverage; returns (kept, dropped).

    Each retained seed is probed once (:func:`measure_seed_coverage`);
    seeds are then kept largest-marginal-coverage-first until the union
    is covered, ties broken by retention order, so the result is
    deterministic.  The corpus itself is not modified — callers decide
    whether to :meth:`Corpus.discard` the dropped entries.
    """
    probes = []
    for entry in corpus:
        branch, alias = measure_seed_coverage(target, entry.seed,
                                              base_seed)
        covered = {("b",) + (edge if isinstance(edge, tuple) else (edge,))
                   for edge in branch}
        covered |= {("a",) + (pair if isinstance(pair, tuple) else (pair,))
                    for pair in alias}
        probes.append((entry, covered))
    universe = set()
    for _entry, covered in probes:
        universe |= covered
    kept, dropped = [], []
    remaining = set(universe)
    pool = list(probes)
    while pool:
        best_index = None
        best_gain = -1
        for index, (entry, covered) in enumerate(pool):
            gain = len(covered & remaining)
            if gain > best_gain:
                best_index, best_gain = index, gain
        entry, covered = pool.pop(best_index)
        if best_gain > 0 or not kept:
            # Always keep at least one seed, even on an empty universe.
            kept.append((entry, len(covered)))
            remaining -= covered
        else:
            dropped.append((entry, len(covered)))
    kept.sort(key=lambda pair: pair[0].order)
    dropped.sort(key=lambda pair: pair[0].order)
    return kept, dropped
