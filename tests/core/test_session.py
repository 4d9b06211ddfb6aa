"""Durable session layer: checkpoints, recovery, fault injection.

Everything here runs in-process against real pmring/Toy engine sessions —
faults are injected through :class:`FaultInjector` rather than real
signals, so the torn-write / disk-full / crash recovery paths are
deterministic unit tests, not chaos lottery (the subprocess chaos lives
in ``tests/integration/test_chaos_recovery.py``).
"""

import json
import os
import zlib

import pytest

from repro.core import PMRaceConfig, RunResult, WorkerStats, fuzz_parallel
from repro.core.session import (
    FAULT_ENV,
    FaultInjector,
    ImageStore,
    InjectedFault,
    Session,
    SessionError,
    atomic_write_json,
    record_from_doc,
    record_to_doc,
    result_fingerprint,
    result_from_doc,
    result_to_doc,
)
from repro.detect import PostFailureValidator
from repro.detect.records import SyncInconsistencyRecord
from repro.pmem import PersistentMemory

from ..detect.test_postfailure import MiniTarget


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
                         processes=1, session=session)


def run_session(directory, seeds=(7, 13), config=None, session=None):
    session = session or open_session(directory, seeds, config)
    result = fuzz_session(session, seeds, config)
    assert result.interrupted is None
    return session, result


# ----------------------------------------------------------------------


class TestFaultInjector:
    def test_parses_env_specs(self):
        fault = FaultInjector.from_env(
            {FAULT_ENV: "checkpoint_write:torn:2, image_write:enospc"})
        assert bool(fault)
        assert fault.check("checkpoint_write") is None   # countdown 2->1
        assert fault.check("checkpoint_write") == "torn"
        with pytest.raises(OSError):
            fault.check("image_write")
        # Arms are one-shot: both have fired.
        assert fault.check("checkpoint_write") is None
        assert fault.check("image_write") is None
        assert fault.fired == [("checkpoint_write", "torn"),
                               ("image_write", "enospc")]

    def test_two_arms_on_one_point_count_every_hit(self):
        """Each arm counts every hit of its point, including the hits
        on which another arm fires."""
        fault = FaultInjector(["p:enospc:2", "p:crash:3"])
        assert fault.check("p") is None
        with pytest.raises(OSError):
            fault.check("p")
        with pytest.raises(InjectedFault):
            fault.check("p")
        assert fault.fired == [("p", "enospc"), ("p", "crash")]
        fault = FaultInjector(["p:torn:1", "p:crash:2"])
        assert fault.check("p") == "torn"
        with pytest.raises(InjectedFault):
            fault.check("p")

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

    def test_crash_image_record_round_trip(self, tmp_path):
        # A delta image is stored as its full bytes under the content
        # digest, so the ref and the file match a plain-bytes image.
        mem = PersistentMemory(4096)
        mem.store(0, b"base", ntstore=True)
        mem.snapshot()
        mem.store(64, b"delta", ntstore=True)
        mem.store(128, b"lost")
        image = mem.crash_image()
        assert image.delta
        record = SyncInconsistencyRecord("lock", 64, 8, 0, 1, "site:1", (),
                                         image)
        store = ImageStore(str(tmp_path / "images"))
        doc = record_to_doc(record, store)
        data = bytes(image)
        assert doc["image"] == "%08x-%d" % (zlib.crc32(data), len(data))
        restored = record_from_doc(doc, store)
        assert bytes(restored.crash_image) == data
        assert ImageStore.ref_for(restored.crash_image) == doc["image"]

    def test_image_file_written_before_delta_images_loads(self, tmp_path):
        directory = tmp_path / "images"
        directory.mkdir()
        data = bytes(range(256)) * 16
        ref = "%08x-%d" % (zlib.crc32(data), len(data))
        (directory / (ref + ".bin")).write_bytes(data)
        loaded = ImageStore(str(directory)).get(ref)
        assert loaded == data
        assert ImageStore.ref_for(loaded) == ref

    def test_loaded_image_is_bytes_and_replays_alike(self, tmp_path):
        # Replays share a loaded image as the base of their recovered
        # state, so the store hands out the immutable file bytes.
        mem = PersistentMemory(2048)
        mem.store(512, (1).to_bytes(8, "little"), ntstore=True)
        mem.store(768, (1).to_bytes(8, "little"), ntstore=True)
        image = mem.crash_image()
        store = ImageStore(str(tmp_path / "images"))
        ref = store.put(image)
        loaded = store.get(ref)
        assert type(loaded) is bytes
        assert ImageStore.ref_for(loaded) == ref
        validator = PostFailureValidator(MiniTarget)
        for addr in (512, 768):
            original, restored = (
                SyncInconsistencyRecord("lock", addr, 8, 0, 1, "site:1", (),
                                        crash_image)
                for crash_image in (image, loaded))
            assert validator.validate(restored) is \
                validator.validate(original)
            assert restored.note == original.note
        assert bytes(validator.replay(loaded).recovered) != loaded
        assert store.get(ref) == loaded  # the file bytes were not written

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

    def test_fresh_session_dir_holds_manifest_checkpoint_images(
            self, tmp_path):
        run_session(tmp_path)
        assert sorted(os.listdir(str(tmp_path))) == \
            ["MANIFEST.json", "checkpoint.json", "images"]

    def test_failed_units_are_done(self, tmp_path):
        """A failed unit is finished once a checkpoint lists it: resume
        reports it and never re-runs it under its seed or any other."""
        session = open_session(tmp_path)
        result = RunResult("pmring", small_config())
        result.worker_stats = [WorkerStats(0, 7).fail("boom"),
                               WorkerStats(1, 13).fail("boom")]
        assert session.write_checkpoint(result, {0, 1})
        resumed = open_session(tmp_path, resume=True)
        assert resumed.done_units() == {0, 1}
        again = fuzz_session(resumed)
        assert again.campaigns == 0
        assert [(stats.seed, stats.status)
                for stats in again.worker_stats] == \
            [(7, "failed"), (13, "failed")]


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
        fault = FaultInjector(["checkpoint_write:crash:2"])
        chaos = open_session(tmp_path / "chaos", fault=fault)
        with pytest.raises(InjectedFault):
            fuzz_session(chaos)
        resumed = open_session(tmp_path / "chaos", resume=True)
        result = fuzz_session(resumed)
        assert result.interrupted is None
        assert result_fingerprint(result) == result_fingerprint(golden)

    def test_failed_checkpoint_then_crash_resumes_to_golden(self, tmp_path):
        """ENOSPC on the unit-1 checkpoint, then a crash at the final
        one: the committed checkpoint holds unit 0 only, so resume
        re-runs unit 1 instead of losing it."""
        _, golden = run_session(tmp_path / "golden")
        fault = FaultInjector(["checkpoint_write:crash:3",
                               "checkpoint_write:enospc:2"])
        chaos = open_session(tmp_path / "chaos", fault=fault)
        with pytest.raises(InjectedFault):
            fuzz_session(chaos)
        assert chaos.write_errors == 1
        resumed = open_session(tmp_path / "chaos", resume=True)
        assert resumed.done_units() == {0}
        result = fuzz_session(resumed)
        assert result.interrupted is None
        assert result.campaigns == 16
        assert result_fingerprint(result) == result_fingerprint(golden)

    def test_resume_skips_finished_units(self, tmp_path):
        session, first = run_session(tmp_path)
        resumed = open_session(tmp_path, resume=True)
        again = fuzz_session(resumed)
        assert again.interrupted is None
        # Nothing re-ran: campaigns did not double.
        assert again.campaigns == first.campaigns
        assert result_fingerprint(again) == result_fingerprint(first)
