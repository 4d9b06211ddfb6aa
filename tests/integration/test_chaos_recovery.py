"""Chaos recovery: kill real runs, resume them, assert result parity.

These tests drive the *real* CLI in subprocesses — the same binary
boundary a production kill crosses — using the fault injector
(``REPRO_FAULT_POINT``) for deterministic kills at session write
boundaries and raw signals for the asynchronous cases.  The invariant
throughout: a killed-and-resumed run ends with the same fingerprint
(verdict per dedup key, hang signatures, corpus digests, campaign
total) as an uninterrupted golden run, and an interrupted run always
leaves a loadable checkpoint behind.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.engine import PMRaceConfig
from repro.core.session import (
    FAULT_ENV,
    ImageStore,
    result_fingerprint,
    result_from_doc,
)

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, os.pardir, "src")


def _env(fault=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(_SRC) + os.pathsep + \
        env.get("PYTHONPATH", "")
    env.pop(FAULT_ENV, None)
    if fault:
        env[FAULT_ENV] = fault
    return env


def _cmd(session_dir, resume=False, campaigns=8, seeds=(7, 13),
         parallel=1):
    """``repro fuzz`` on pmring; ``parallel=0`` makes a serial session,
    any other value a parallel one (1 runs it in-process)."""
    cmd = [sys.executable, "-m", "repro", "fuzz", "pmring",
           "--campaigns", str(campaigns), "--seeds"]
    cmd += [str(seed) for seed in seeds]
    cmd += ["--session-dir", str(session_dir), "--parallel", str(parallel)]
    if resume:
        cmd.append("--resume")
    return cmd


def _run(cmd, fault=None, timeout=120):
    return subprocess.run(cmd, env=_env(fault), capture_output=True,
                          text=True, timeout=timeout)


def _fingerprint(session_dir):
    with open(os.path.join(str(session_dir), "checkpoint.json")) as handle:
        doc = json.load(handle)
    assert doc["final"], "checkpoint left non-final"
    images = ImageStore(os.path.join(str(session_dir), "images"))
    return result_fingerprint(result_from_doc(doc, images,
                                              PMRaceConfig()))


def _golden(tmp_path, **kwargs):
    golden_dir = tmp_path / "golden"
    proc = _run(_cmd(golden_dir, **kwargs))
    assert proc.returncode == 0, proc.stderr
    return _fingerprint(golden_dir)


class TestFaultPointKillResume:
    """Deterministic SIGKILLs at session write boundaries."""

    @pytest.mark.parametrize("fault", [
        "checkpoint_write:kill:1",   # mid first unit checkpoint
        "checkpoint_write:kill:2",   # mid second unit checkpoint
        "checkpoint_write:kill:3",   # mid final checkpoint
    ])
    def test_parallel_kill_resume_equivalence(self, tmp_path, fault):
        golden = _golden(tmp_path)
        chaos_dir = tmp_path / "chaos"
        killed = _run(_cmd(chaos_dir), fault=fault)
        assert killed.returncode == -signal.SIGKILL
        resumed = _run(_cmd(chaos_dir, resume=True))
        assert resumed.returncode == 0, resumed.stderr
        assert _fingerprint(chaos_dir) == golden

    def test_serial_fuzz_kill_resume_equivalence(self, tmp_path):
        golden = _golden(tmp_path, parallel=0)
        chaos_dir = tmp_path / "chaos"
        killed = _run(_cmd(chaos_dir, parallel=0),
                      fault="checkpoint_write:kill:1")
        assert killed.returncode == -signal.SIGKILL
        resumed = _run(_cmd(chaos_dir, resume=True, parallel=0))
        assert resumed.returncode == 0, resumed.stderr
        assert _fingerprint(chaos_dir) == golden

    def test_double_kill_then_resume(self, tmp_path):
        """A resume that is itself killed still converges."""
        golden = _golden(tmp_path)
        chaos_dir = tmp_path / "chaos"
        first = _run(_cmd(chaos_dir),
                     fault="checkpoint_write:kill:2")
        assert first.returncode == -signal.SIGKILL
        second = _run(_cmd(chaos_dir, resume=True),
                      fault="checkpoint_write:kill:1")
        assert second.returncode == -signal.SIGKILL
        final = _run(_cmd(chaos_dir, resume=True))
        assert final.returncode == 0, final.stderr
        assert _fingerprint(chaos_dir) == golden

    def test_failed_checkpoint_then_kill_resumes_to_golden(self, tmp_path):
        """ENOSPC drops the unit-1 checkpoint and the final one is
        killed: the committed checkpoint lacks unit 1, so the resume
        must run it again rather than report it done."""
        golden = _golden(tmp_path, parallel=0)
        chaos_dir = tmp_path / "chaos"
        killed = _run(_cmd(chaos_dir, parallel=0),
                      fault="checkpoint_write:kill:3,"
                            "checkpoint_write:enospc:2")
        assert killed.returncode == -signal.SIGKILL
        resumed = _run(_cmd(chaos_dir, resume=True, parallel=0))
        assert resumed.returncode == 0, resumed.stderr
        assert _fingerprint(chaos_dir) == golden

    def test_resume_without_flag_is_refused(self, tmp_path):
        session_dir = tmp_path / "session"
        assert _run(_cmd(session_dir)).returncode == 0
        again = _run(_cmd(session_dir))
        assert again.returncode == 2
        assert "--resume" in again.stderr


def _interrupt_run(tmp_path, signum, parallel=1):
    """Start a long session run, signal it mid-flight, return
    (returncode, session_dir)."""
    session_dir = tmp_path / "session"
    # pmring saturates its schedules quickly, so run length is driven by
    # the seed count (one ~0.5s engine session each), not campaigns.
    proc = subprocess.Popen(
        _cmd(session_dir, campaigns=3000, seeds=tuple(range(1, 13)),
             parallel=parallel),
        env=_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    manifest = session_dir / "MANIFEST.json"
    deadline = time.monotonic() + 30
    # Wait for the session to open (the guard installs right after), then
    # give the fuzz loop a moment so the signal lands mid-campaign — or,
    # with luck, mid-validation-drain; both must checkpoint cleanly.
    while not manifest.exists():
        assert proc.poll() is None, "run exited before opening a session"
        assert time.monotonic() < deadline, "session never opened"
        time.sleep(0.02)
    time.sleep(0.6)
    proc.send_signal(signum)
    return proc.wait(timeout=60), session_dir


def _assert_interrupted_checkpoint(session_dir, signum):
    path = os.path.join(str(session_dir), "checkpoint.json")
    assert os.path.exists(path), "no final checkpoint after interrupt"
    with open(path) as handle:
        doc = json.load(handle)
    assert doc["interrupted"] == signum
    assert not doc["final"]
    # The checkpoint must be loadable — the whole point of graceful
    # shutdown is that nothing written so far is lost or torn.
    images = ImageStore(os.path.join(str(session_dir), "images"))
    result = result_from_doc(doc, images, PMRaceConfig())
    assert result.campaigns >= 0


class TestSignalCheckpoint:
    """SIGINT/SIGTERM mid-run: nonzero-but-clean exit + valid checkpoint."""

    def test_sigint_during_parallel_run(self, tmp_path):
        code, session_dir = _interrupt_run(tmp_path, signal.SIGINT)
        assert code == 128 + signal.SIGINT
        _assert_interrupted_checkpoint(session_dir, signal.SIGINT)

    @pytest.mark.slow
    def test_sigint_during_serial_run(self, tmp_path):
        code, session_dir = _interrupt_run(tmp_path, signal.SIGINT,
                                           parallel=0)
        assert code == 128 + signal.SIGINT
        _assert_interrupted_checkpoint(session_dir, signal.SIGINT)

    @pytest.mark.slow
    def test_sigterm_during_parallel_run(self, tmp_path):
        code, session_dir = _interrupt_run(tmp_path, signal.SIGTERM)
        assert code == 128 + signal.SIGTERM
        _assert_interrupted_checkpoint(session_dir, signal.SIGTERM)


@pytest.mark.slow
class TestRandomizedChaos:
    """The full chaos harness: randomized kills, pool workers, multiple
    rounds — the same loop CI's chaos-smoke job runs."""

    def test_chaos_runner_fault_mode(self, tmp_path):
        tool = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, os.pardir, "tools",
                            "chaos_runner.py")
        proc = _run([sys.executable, tool, "--target", "pmring",
                     "--campaigns", "8", "--seeds", "7", "13",
                     "--kills", "4", "--rounds", "2", "--seed", "1",
                     "--session-root",
                     str(tmp_path / "chaos-sessions")], timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_chaos_runner_timed_pool_mode(self, tmp_path):
        tool = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, os.pardir, "tools",
                            "chaos_runner.py")
        proc = _run([sys.executable, tool, "--target", "pmring",
                     "--campaigns", "60", "--seeds", "7", "13", "42",
                     "--processes", "2", "--mode", "timed",
                     "--kills", "2", "--kill-after", "0.8",
                     "--seed", "2", "--session-root",
                     str(tmp_path / "chaos-sessions")], timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
