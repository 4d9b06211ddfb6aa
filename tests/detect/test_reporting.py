"""Report serialization and whitelist file I/O tests."""

import json
import os

import pytest

from repro.core import PMRace, PMRaceConfig
from repro.detect import (
    DEFAULT_WHITELIST,
    Whitelist,
    dump_run_result,
    load_run_report,
    load_whitelist,
    record_to_dict,
    report_to_dict,
    save_whitelist,
)
from repro.detect.records import (
    CandidateRecord,
    InconsistencyRecord,
    SyncInconsistencyRecord,
)

from ..core.toy_target import ToyTarget


@pytest.fixture(scope="module")
def result():
    config = PMRaceConfig(max_campaigns=15, max_seeds=5, base_seed=2)
    return PMRace(ToyTarget(), config).run()


class TestRecordSerialization:
    def test_candidate(self):
        record = CandidateRecord(0, 64, 8, "r:1", "w:2", 1, 0,
                                 ("f1", "f2"), 3)
        data = record_to_dict(record)
        assert data["type"] == "candidate"
        assert data["kind"] == "inter-candidate"
        assert data["stack"] == ["f1", "f2"]

    def test_inconsistency(self):
        candidate = CandidateRecord(0, 64, 8, "r:1", "w:2", 1, 0, (), 3)
        record = InconsistencyRecord(candidate, "e:3", 128, 8, True, (),
                                     b"img")
        data = record_to_dict(record)
        assert data["data_flow"] == "address"
        assert data["verdict"] == "pending"
        assert "crash_image" not in data  # images stay out of reports

    def test_sync(self):
        record = SyncInconsistencyRecord("lock", 256, 8, 0, 1, "s:1", (),
                                         b"")
        data = record_to_dict(record)
        assert data["annotation"] == "lock"
        assert data["expected_init"] == 0

    def test_unknown_type(self):
        with pytest.raises(TypeError):
            record_to_dict(object())


class TestRunDump:
    def test_roundtrip(self, result, tmp_path):
        path = dump_run_result(result, str(tmp_path / "report.json"))
        loaded = load_run_report(path)
        assert loaded["target"] == "toy"
        assert loaded["campaigns"] == result.campaigns
        assert len(loaded["bugs"]) == len(result.bug_reports)
        assert loaded["summary"]["bugs"] == len(result.bug_reports)

    def test_json_valid(self, result, tmp_path):
        path = dump_run_result(result, str(tmp_path / "report.json"))
        with open(path) as handle:
            json.load(handle)  # must not raise

    def test_report_dict_fields(self, result):
        report = result.bug_reports[0]
        data = report_to_dict(report)
        assert data["kind"] == report.kind
        assert data["records"]


class TestWhitelistFiles:
    def test_roundtrip(self, tmp_path):
        whitelist = Whitelist(["a:b", "c:d"])
        path = save_whitelist(whitelist, str(tmp_path / "wl.txt"))
        loaded = load_whitelist(path, include_defaults=False)
        assert loaded.entries == ["a:b", "c:d"]

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "wl.txt"
        path.write_text("# comment\n\nmy.module:func\n")
        loaded = load_whitelist(str(path), include_defaults=False)
        assert loaded.entries == ["my.module:func"]

    def test_defaults_included(self, tmp_path):
        path = tmp_path / "wl.txt"
        path.write_text("extra:rule\n")
        loaded = load_whitelist(str(path))
        for entry in DEFAULT_WHITELIST:
            assert entry in loaded.entries
        assert "extra:rule" in loaded.entries

    def test_duplicates_dropped(self, tmp_path):
        path = tmp_path / "wl.txt"
        path.write_text("x:y\nx:y\n")
        loaded = load_whitelist(str(path), include_defaults=False)
        assert loaded.entries == ["x:y"]


@pytest.fixture
def fsynced(monkeypatch):
    """Inode numbers of every file descriptor passed to ``os.fsync``."""
    synced = set()
    real_fsync = os.fsync

    def fsync(fd):
        synced.add(os.fstat(fd).st_ino)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    return synced


class TestDurableWrites:
    """Reports and whitelists survive power loss like every other
    artifact: the file contents and the directory entry naming the file
    are both fsync'd."""

    def test_run_report_fsyncs_file_and_directory(self, result, tmp_path,
                                                  fsynced):
        path = dump_run_result(result, str(tmp_path / "report.json"))
        assert os.stat(path).st_ino in fsynced
        assert os.stat(str(tmp_path)).st_ino in fsynced
        assert load_run_report(path)["campaigns"] == result.campaigns

    def test_whitelist_fsyncs_file_and_directory(self, tmp_path, fsynced):
        path = save_whitelist(Whitelist(["a:b"]), str(tmp_path / "wl.txt"))
        assert os.stat(path).st_ino in fsynced
        assert os.stat(str(tmp_path)).st_ino in fsynced
        assert sorted(os.listdir(str(tmp_path))) == ["wl.txt"]
