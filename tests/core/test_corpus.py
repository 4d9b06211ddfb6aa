"""Seed-corpus subsystem tests: retention, scheduling, persistence.

The seed tier (§4.2.3) retains evolved seeds only while they grow
coverage; the :class:`~repro.core.corpus.Corpus` owns that retention
plus AFL-style energy scheduling and optional on-disk persistence.
"""

import json
import os
import random

import pytest

from repro.core import (
    Corpus,
    OperationMutator,
    PMRace,
    PMRaceConfig,
    Seed,
    seed_digest,
)
from repro.core.corpus import CORPUS_SCHEMA_VERSION, SeedEntry
from repro.targets import OperationSpace

from .toy_target import ToyTarget


def make_seed(ops=((("bump", 0),),)):
    return Seed([[{"op": kind, "key": key} for kind, key in thread]
                 for thread in ops])


def make_mutator(seed=1):
    return OperationMutator(OperationSpace(), n_threads=2, ops_per_thread=3,
                            rng=random.Random(seed))


class TestDigest:
    def test_same_content_same_digest(self):
        a = make_seed()
        b = make_seed()
        assert a.seed_id != b.seed_id
        assert seed_digest(a.to_jsonable()) == seed_digest(b.to_jsonable())

    def test_different_content_differs(self):
        a = make_seed(((("bump", 0),),))
        b = make_seed(((("bump", 1),),))
        assert seed_digest(a.to_jsonable()) != seed_digest(b.to_jsonable())

    def test_add_initial_dedups_by_content(self):
        corpus = Corpus()
        first = corpus.add_initial(make_seed())
        second = corpus.add_initial(make_seed())
        assert second is first
        assert len(corpus) == 1


class TestRetention:
    def _evolved(self, corpus, mutator):
        entry, evolved = corpus.next_entry(mutator, len(corpus))
        assert evolved
        return entry

    def test_unproductive_evolved_dropped(self):
        corpus = Corpus()
        corpus.add_initial(make_mutator().initial_seed())
        mutator = make_mutator(2)
        entry = self._evolved(corpus, mutator)
        assert len(corpus) == 2  # provisional
        assert not corpus.settle(entry, productive=False)
        assert len(corpus) == 1

    def test_productive_evolved_retained(self):
        corpus = Corpus()
        corpus.add_initial(make_mutator().initial_seed())
        mutator = make_mutator(2)
        entry = self._evolved(corpus, mutator)
        assert corpus.settle(entry, productive=True)
        assert len(corpus) == 2
        assert entry.digest in corpus.digests()

    def test_initial_seeds_never_dropped(self):
        """Regression: the engine's old list dance popped the *last
        initial seed* when it yielded no coverage (its index equalled the
        corpus length), silently shrinking the pinned corpus."""
        config = PMRaceConfig(max_campaigns=12, base_seed=7)
        result = PMRace(ToyTarget(), config).run()
        # populate + initial must both survive to the exported corpus.
        initial = [entry for entry in result.corpus_seeds
                   if entry["initial"]]
        assert len(initial) == 2

    def test_duplicate_evolved_rejected_even_if_productive(self):
        corpus = Corpus()
        kept = corpus.add_initial(make_seed())

        class CloneMutator:
            rng = random.Random(0)

            def evolve_from(self, seed, seeds):
                return Seed([list(ops) for ops in seed.threads])

        entry, evolved = corpus.next_entry(CloneMutator(), 1)
        assert evolved
        assert entry.digest == kept.digest
        assert not corpus.settle(entry, productive=True)
        assert corpus.digests() == [kept.digest]

    def test_trace_events_are_registered_types(self):
        """Regression: ``corpus_seed``/``corpus_load`` must stay in
        ``EVENT_TYPES`` — the tracer rejects unknown types, so a rename
        would crash every traced run at the first settled seed."""
        import io

        from repro.obs.tracer import Tracer

        corpus = Corpus(tracer=Tracer(io.StringIO()))
        corpus.load()  # no persist dir: still must not raise
        corpus.add_initial(make_mutator().initial_seed())
        entry = self._evolved(corpus, make_mutator(2))
        corpus.settle(entry, productive=True)

    def test_settle_requires_provisional_tail(self):
        corpus = Corpus()
        entry = corpus.add_initial(make_seed())
        corpus.add_initial(make_seed(((("fix", 0),),)))
        with pytest.raises(ValueError):
            corpus.settle(entry, productive=True)


class TestScheduling:
    def _stocked(self):
        corpus = Corpus()
        dull = corpus.add_initial(make_seed(((("read", 0),),)))
        hot = corpus.add_initial(make_seed(((("bump", 0),),)))
        corpus.account(dull, campaigns=8, new_branch=0, new_alias=0,
                       inconsistencies=0)
        corpus.account(hot, campaigns=8, new_branch=30, new_alias=20,
                       inconsistencies=3)
        return corpus, dull, hot

    def test_energy_favors_productive_seed(self):
        corpus, dull, hot = self._stocked()
        rng = random.Random(5)
        picks = [corpus._select(rng) for _ in range(200)]
        assert picks.count(hot) > picks.count(dull) * 3

    def test_energy_selection_deterministic(self):
        counts = []
        for _ in range(2):
            corpus, dull, hot = self._stocked()
            rng = random.Random(9)
            picks = [corpus._select(rng) for _ in range(50)]
            counts.append([p is hot for p in picks])
        assert counts[0] == counts[1]

    def test_recent_progress_boosts_energy(self):
        entry = SeedEntry(make_seed(), "d", False, 0)
        entry.new_branch = 4
        base = entry.energy(now=100, corpus_size=3)
        entry.last_progress_pick = 99
        assert entry.energy(now=100, corpus_size=3) == base * 2


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        corpus = Corpus(persist_dir=str(tmp_path))
        entry = corpus.add_initial(make_seed())
        corpus.account(entry, campaigns=3, new_branch=5, new_alias=2,
                       inconsistencies=1)
        other = Corpus(persist_dir=str(tmp_path))
        assert other.load() == 1
        (loaded,) = list(other)
        assert loaded.digest == entry.digest
        assert loaded.seed.threads == entry.seed.threads
        assert (loaded.campaigns, loaded.new_branch, loaded.new_alias,
                loaded.inconsistencies) == (3, 5, 2, 1)

    def test_persist_fsyncs_file_and_directory(self, tmp_path,
                                               monkeypatch):
        """A retained seed survives power loss: its file contents and
        the directory entry naming it are both fsync'd."""
        synced = set()
        real_fsync = os.fsync

        def fsync(fd):
            synced.add(os.fstat(fd).st_ino)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        entry = Corpus(persist_dir=str(tmp_path)).add_initial(make_seed())
        path = os.path.join(str(tmp_path), entry.digest + ".json")
        assert os.stat(path).st_ino in synced
        assert os.stat(str(tmp_path)).st_ino in synced

    def test_load_skips_tampered_file(self, tmp_path):
        corpus = Corpus(persist_dir=str(tmp_path))
        corpus.add_initial(make_seed())
        (name,) = os.listdir(str(tmp_path))
        path = os.path.join(str(tmp_path), name)
        with open(path) as handle:
            doc = json.load(handle)
        doc["threads"] = [[{"op": "fix", "key": 3}]]  # digest now wrong
        with open(path, "w") as handle:
            json.dump(doc, handle)
        fresh = Corpus(persist_dir=str(tmp_path))
        assert fresh.load() == 0
        assert fresh.load_errors == 1

    def test_load_skips_future_schema(self, tmp_path):
        with open(os.path.join(str(tmp_path), "x.json"), "w") as handle:
            json.dump({"version": CORPUS_SCHEMA_VERSION + 1}, handle)
        fresh = Corpus(persist_dir=str(tmp_path))
        assert fresh.load() == 0
        assert fresh.load_errors == 1

    def test_run_determinism_with_and_without_persistence(self, tmp_path):
        """Persistence is write-only state: the same base seed retains
        the identical corpus whether or not a corpus dir is set."""
        plain = PMRace(ToyTarget(), PMRaceConfig(
            max_campaigns=12, base_seed=7)).run()
        persisted = PMRace(ToyTarget(), PMRaceConfig(
            max_campaigns=12, base_seed=7,
            corpus_dir=str(tmp_path))).run()
        assert [e["digest"] for e in plain.corpus_seeds] \
            == [e["digest"] for e in persisted.corpus_seeds]
        on_disk = {name[:-5] for name in os.listdir(str(tmp_path))}
        assert {e["digest"] for e in persisted.corpus_seeds} <= on_disk

    def test_resume_reproduces_retained_digests(self, tmp_path):
        """A killed run resumed from --corpus-dir starts from the same
        retained corpus: the first run's digests all come back."""
        first = PMRace(ToyTarget(), PMRaceConfig(
            max_campaigns=12, base_seed=7,
            corpus_dir=str(tmp_path))).run()
        resumed = PMRace(ToyTarget(), PMRaceConfig(
            max_campaigns=12, base_seed=7,
            corpus_dir=str(tmp_path))).run()
        first_digests = {e["digest"] for e in first.corpus_seeds}
        resumed_digests = {e["digest"] for e in resumed.corpus_seeds}
        assert first_digests <= resumed_digests


class TestExportMerge:
    def test_export_shape(self):
        corpus = Corpus()
        entry = corpus.add_initial(make_seed())
        corpus.account(entry, campaigns=2, new_branch=1, new_alias=0,
                       inconsistencies=0)
        (doc,) = corpus.export()
        assert doc["version"] == CORPUS_SCHEMA_VERSION
        assert doc["digest"] == entry.digest
        assert doc["stats"]["campaigns"] == 2
        json.dumps(doc)  # must be picklable/plain JSON for the pool

    def test_add_exported_adopts_and_dedups(self):
        source = Corpus()
        source.add_initial(make_seed())
        sink = Corpus()
        sink.add_initial(make_seed())
        sink.add_exported(source.export()[0])
        assert len(sink) == 1  # digest-identical: adopted into existing
        other = Corpus()
        adopted = other.add_exported(source.export()[0])
        assert adopted is not None and len(other) == 1
        assert adopted.initial  # shared seeds are pinned

    def test_run_result_merge_folds_by_digest(self):
        a = PMRace(ToyTarget(), PMRaceConfig(max_campaigns=8,
                                             base_seed=7)).run()
        b = PMRace(ToyTarget(), PMRaceConfig(max_campaigns=8,
                                             base_seed=7)).run()
        campaigns_before = [e["stats"]["campaigns"] for e in a.corpus_seeds]
        a.merge(b)
        # Identical runs: same digests, stats summed, no duplicates.
        assert len(a.corpus_seeds) == len(campaigns_before)
        assert [e["stats"]["campaigns"] for e in a.corpus_seeds] \
            == [2 * n for n in campaigns_before]
        assert a.summary()["corpus_seeds"] == len(a.corpus_seeds)
