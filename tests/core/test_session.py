"""Durable session layer: journal, checkpoints, recovery, fault injection.

Everything here runs in-process against real pmring/Toy engine sessions —
faults are injected through :class:`FaultInjector` rather than real
signals, so the torn-write / disk-full / crash recovery paths are
deterministic unit tests, not chaos lottery (the subprocess chaos lives
in ``tests/integration/test_chaos_recovery.py``).
"""

import json
import os

import pytest

from repro.core import PMRaceConfig, fuzz_parallel
from repro.core.session import (
    FAULT_ENV,
    FaultInjector,
    ImageStore,
    InjectedFault,
    Session,
    SessionError,
    append_jsonl,
    atomic_write_json,
    read_journal,
    result_fingerprint,
    result_from_doc,
    result_to_doc,
)


def small_config(**overrides):
    options = {"max_campaigns": 8, "max_seeds": 3}
    options.update(overrides)
    return PMRaceConfig(**options)


def open_session(directory, seeds=(7, 13), config=None, **kwargs):
    return Session.open(str(directory), "pmring", "serial", seeds,
                        config or small_config(),
                        fault=kwargs.pop("fault", FaultInjector()),
                        **kwargs)


def fuzz_session(session, seeds=(7, 13), config=None):
    """``repro fuzz --session-dir``: one in-process session per seed."""
    return fuzz_parallel("pmring", config or small_config(), seeds=seeds,
                         processes=1, max_retries=0, session=session)


def run_session(directory, seeds=(7, 13), config=None, session=None):
    session = session or open_session(directory, seeds, config)
    result = fuzz_session(session, seeds, config)
    assert result.interrupted is None
    return session, result


# ----------------------------------------------------------------------


class TestFaultInjector:
    def test_parses_env_specs(self):
        fault = FaultInjector.from_env(
            {FAULT_ENV: "checkpoint_write:torn:2, journal_append:enospc"})
        assert bool(fault)
        assert fault.check("checkpoint_write") is None   # countdown 2->1
        assert fault.check("checkpoint_write") == "torn"
        with pytest.raises(OSError):
            fault.check("journal_append")
        # Arms are one-shot: both have fired.
        assert fault.check("checkpoint_write") is None
        assert fault.check("journal_append") is None
        assert fault.fired == [("checkpoint_write", "torn"),
                               ("journal_append", "enospc")]

    def test_empty_env_is_inert(self):
        fault = FaultInjector.from_env({})
        assert not fault
        assert fault.check("checkpoint_write") is None

    def test_rejects_malformed_specs(self):
        for spec in ("checkpoint_write", "x:explode", "x:kill:0",
                     "a:b:c:d"):
            with pytest.raises(ValueError):
                FaultInjector([spec])

    def test_crash_action_raises(self):
        fault = FaultInjector(["checkpoint_write:crash"])
        with pytest.raises(InjectedFault):
            fault.check("checkpoint_write")


class TestDurableWrites:
    def test_atomic_write_replaces_whole_file(self, tmp_path):
        path = str(tmp_path / "doc.json")
        atomic_write_json(path, {"v": 1})
        atomic_write_json(path, {"v": 2})
        with open(path) as handle:
            assert json.load(handle) == {"v": 2}
        assert not [name for name in os.listdir(str(tmp_path))
                    if ".tmp." in name]

    def test_torn_write_never_touches_committed_file(self, tmp_path):
        path = str(tmp_path / "doc.json")
        atomic_write_json(path, {"v": 1})
        fault = FaultInjector(["atomic_write:torn"])
        with pytest.raises(InjectedFault):
            atomic_write_json(path, {"v": 2, "pad": "x" * 256},
                              fault=fault)
        with open(path) as handle:
            assert json.load(handle) == {"v": 1}

    def test_enospc_never_touches_committed_file(self, tmp_path):
        path = str(tmp_path / "doc.json")
        atomic_write_json(path, {"v": 1})
        fault = FaultInjector(["atomic_write:enospc"])
        with pytest.raises(OSError):
            atomic_write_json(path, {"v": 2}, fault=fault)
        with open(path) as handle:
            assert json.load(handle) == {"v": 1}

    def test_journal_tolerates_torn_tail(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        append_jsonl(path, {"n": 1})
        append_jsonl(path, {"n": 2})
        fault = FaultInjector(["journal_append:torn"])
        with pytest.raises(InjectedFault):
            append_jsonl(path, {"n": 3, "pad": "y" * 64}, fault=fault)
        records, torn = read_journal(path)
        assert records == [{"n": 1}, {"n": 2}]
        assert torn == 1

    def test_journal_rejects_corruption_before_tail(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with open(path, "w") as handle:
            handle.write('{"n": 1}\nGARBAGE\n{"n": 2}\n')
        with pytest.raises(SessionError):
            read_journal(path)

    def test_missing_journal_is_empty(self, tmp_path):
        assert read_journal(str(tmp_path / "nope.jsonl")) == ([], 0)


class TestImageStore:
    def test_put_get_round_trip_and_dedup(self, tmp_path):
        store = ImageStore(str(tmp_path / "images"))
        image = bytearray(b"\x00\x01persistent pool bytes\xff" * 9)
        ref = store.put(image)
        assert store.put(bytearray(image)) == ref  # idempotent
        assert store.get(ref) == image
        assert len(os.listdir(str(tmp_path / "images"))) == 1

    def test_reference_is_crc32_and_length(self):
        # Checkpoints written by earlier versions name images this way.
        image = bytearray(b"\x00\x01persistent pool bytes\xff" * 9)
        assert ImageStore.ref_for(image) == "b7c36aac-216"

    def test_corrupt_image_file_reads_as_missing(self, tmp_path):
        store = ImageStore(str(tmp_path / "images"))
        ref = store.put(bytearray(b"good image bytes"))
        with open(os.path.join(str(tmp_path / "images"), ref + ".bin"),
                  "wb") as handle:
            handle.write(b"torn")
        assert store.get(ref) is None
        assert store.get("deadbeef-12") is None


class TestSessionLifecycle:
    def test_fresh_dir_refuses_double_open_without_resume(self, tmp_path):
        open_session(tmp_path)
        with pytest.raises(SessionError, match="--resume"):
            open_session(tmp_path)

    def test_resume_validates_manifest(self, tmp_path):
        open_session(tmp_path, seeds=(7, 13))
        with pytest.raises(SessionError, match="seeds"):
            open_session(tmp_path, seeds=(7, 14), resume=True)
        with pytest.raises(SessionError, match="config"):
            open_session(tmp_path, seeds=(7, 13), resume=True,
                         config=small_config(max_campaigns=9))
        resumed = open_session(tmp_path, seeds=(7, 13), resume=True)
        assert resumed.resumed

    def test_resume_rejects_foreign_schema(self, tmp_path):
        session = open_session(tmp_path)
        manifest = dict(session.manifest, version=99)
        atomic_write_json(os.path.join(str(tmp_path), "MANIFEST.json"),
                          manifest)
        with pytest.raises(SessionError, match="schema"):
            open_session(tmp_path, resume=True)

    def test_done_units_is_union_of_journal_and_checkpoint(self, tmp_path):
        """A crash between checkpoint write and journal append leaves
        the checkpoint ahead of the journal; the unit must still count
        as done (never re-merged, never lost)."""
        session, result = run_session(tmp_path)
        # Simulate the torn window: drop the journal's unit lines but
        # keep the checkpoint (which embeds its units).
        with open(session.journal_path, "w") as handle:
            handle.write(json.dumps({"type": "session_open"}) + "\n")
        resumed = open_session(tmp_path, resume=True)
        assert resumed.done_units() == {0, 1}

    def test_retry_ledger_tracks_attempts(self, tmp_path):
        session = open_session(tmp_path)
        session.record_unit(0, 7, 0, "failed")
        session.record_unit(0, 1234, 1, "failed")
        session.record_unit(1, 13, 0, "ok", campaigns=8)
        ledger = session.retry_ledger()
        assert ledger[0] == (2, 1234)
        assert ledger[1] == (1, 13)


class TestCheckpointRoundTrip:
    def test_fingerprint_survives_doc_round_trip(self, tmp_path):
        session, result = run_session(tmp_path)
        restored = session.load_checkpoint(small_config())
        assert result_fingerprint(restored) == result_fingerprint(result)
        # The dedup maps were rebuilt: merging the restored result with
        # itself must not duplicate records.
        records_before = len(restored.inconsistencies)
        restored.merge(session.load_checkpoint(small_config()))
        assert len(restored.inconsistencies) == records_before

    def test_crash_images_and_verdicts_round_trip(self, tmp_path):
        session, result = run_session(tmp_path)
        restored = session.load_checkpoint(small_config())
        originals = {r.dedup_key(): r for r in result.inconsistencies
                     + result.sync_inconsistencies}
        assert originals
        for record in restored.inconsistencies \
                + restored.sync_inconsistencies:
            original = originals[record.dedup_key()]
            assert record.verdict is original.verdict
            assert record.note == original.note
            if original.crash_image is not None:
                assert bytes(record.crash_image) == \
                    bytes(original.crash_image)

    def test_worker_stats_and_corpus_round_trip(self, tmp_path):
        session, result = run_session(tmp_path)
        restored = session.load_checkpoint(small_config())
        assert [s.to_dict() for s in restored.worker_stats] == \
            [s.to_dict() for s in result.worker_stats]
        assert sorted(e["digest"] for e in restored.corpus_seeds) == \
            sorted(e["digest"] for e in result.corpus_seeds)

    def test_doc_is_json_safe(self, tmp_path):
        session, result = run_session(tmp_path)
        doc = result_to_doc(result, session.images)
        rebuilt = json.loads(json.dumps(doc))
        restored = result_from_doc(rebuilt, session.images,
                                   small_config())
        assert result_fingerprint(restored) == result_fingerprint(result)

    def test_legacy_profile_key_is_ignored(self, tmp_path):
        session, result = run_session(tmp_path)
        doc = result_to_doc(result, session.images)
        assert "profile" not in doc
        # Checkpoints from before the run profiler was removed carry a
        # "profile" document; loading one must still work.
        doc["profile"] = {"duration_s": 1.0, "executions": 16,
                          "execs_per_sec": 16.0, "phase_seconds": {},
                          "phase_counts": {}, "samples": [[1.0, 16]]}
        restored = result_from_doc(doc, session.images, small_config())
        assert result_fingerprint(restored) == result_fingerprint(result)
        assert not hasattr(restored, "profile")

    def test_corpus_dir_mirrors_merged_corpus(self, tmp_path):
        session, result = run_session(tmp_path)
        digests = {entry["digest"] for entry in result.corpus_seeds}
        assert digests
        on_disk = {name[:-5] for name in
                   os.listdir(os.path.join(str(tmp_path), "corpus"))}
        assert digests <= on_disk


class TestFaultContainment:
    def test_enospc_during_checkpoint_keeps_previous(self, tmp_path):
        """An injected full-disk on the second checkpoint degrades the
        session (counted) but the first committed checkpoint survives
        bit-for-bit."""
        fault = FaultInjector(["checkpoint_write:enospc:2"])
        session = open_session(tmp_path, fault=fault)
        result = fuzz_session(session)
        assert result.interrupted is None
        assert session.write_errors >= 1
        doc = json.loads(open(session.checkpoint_path).read())
        # Write 2 (the unit-1 checkpoint) hit ENOSPC and was dropped;
        # the final checkpoint went through and holds the full result.
        restored = session.load_checkpoint(small_config())
        assert result_fingerprint(restored) == result_fingerprint(result)
        assert doc["final"]

    def test_torn_checkpoint_keeps_previous(self, tmp_path):
        fault = FaultInjector(["checkpoint_write:torn:2"])
        session = open_session(tmp_path, fault=fault)
        with pytest.raises(InjectedFault):
            fuzz_session(session)
        # The process "died" mid-unit-1-checkpoint: the committed file
        # still holds the complete unit-0 checkpoint.
        resumed = open_session(tmp_path, resume=True)
        restored = resumed.load_checkpoint(small_config())
        assert restored is not None
        assert restored.campaigns == 8
        assert resumed.done_units() == {0}

    def test_crash_resume_matches_uninterrupted_golden(self, tmp_path):
        _, golden = run_session(tmp_path / "golden")
        fault = FaultInjector(["journal_append:crash:2"])
        chaos = open_session(tmp_path / "chaos", fault=fault)
        with pytest.raises(InjectedFault):
            fuzz_session(chaos)
        resumed = open_session(tmp_path / "chaos", resume=True)
        result = fuzz_session(resumed)
        assert result.interrupted is None
        assert result_fingerprint(result) == result_fingerprint(golden)

    def test_resume_skips_finished_units(self, tmp_path):
        session, first = run_session(tmp_path)
        resumed = open_session(tmp_path, resume=True)
        again = fuzz_session(resumed)
        assert again.interrupted is None
        # Nothing re-ran: campaigns did not double.
        assert again.campaigns == first.campaigns
        assert result_fingerprint(again) == result_fingerprint(first)
