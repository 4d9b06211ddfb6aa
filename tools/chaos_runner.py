#!/usr/bin/env python
"""Chaos harness: SIGKILL real fuzzing runs, resume them, assert parity.

This is the session layer's self-test: it runs a real ``repro fuzz``
command to completion (the *golden* run), then runs the
same command again while killing it — either at deterministic session
write boundaries via the ``REPRO_FAULT_POINT`` fault injector
(``--mode fault``) or at a randomized wall-clock moment with a
process-group SIGKILL (``--mode timed``) — resumes with ``--resume``
until the run completes, and asserts the recovered result's
*fingerprint* (verdict per dedup key, hang signatures, corpus digests,
total campaigns) is identical to the golden run's.

Usage (CI's ``chaos-smoke`` job)::

    python tools/chaos_runner.py --target pmring --campaigns 8 \
        --seeds 7 13 --kills 4 --seed 0 --session-root chaos-sessions

Exit status is nonzero on any fingerprint mismatch or a run that fails
to recover; the session directories are left in ``--session-root`` for
post-mortem (CI uploads them as an artifact on failure).
"""

import argparse
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.core.engine import PMRaceConfig  # noqa: E402
from repro.core.session import (  # noqa: E402
    FAULT_ENV,
    ImageStore,
    result_fingerprint,
    result_from_doc,
)

#: ``REPRO_FAULT_POINT`` specs ``--mode fault`` draws kill sites from.
#: checkpoint_write N covers the Nth unit (or final) checkpoint; image
#: writes land inside a checkpoint, so a kill there tears the checkpoint
#: mid-flight. The compound site fails the first checkpoint with a full
#: disk and kills the run at the second, so the unit whose checkpoint
#: never committed must re-run on resume.
FAULT_SITES = (
    "checkpoint_write:kill:1",
    "checkpoint_write:kill:2",
    "image_write:kill:1",
    "checkpoint_write:enospc:1,checkpoint_write:kill:2",
)


def _repro_cmd(args, session_dir, resume=False):
    cmd = [sys.executable, "-m", "repro", "fuzz", args.target,
           "--campaigns", str(args.campaigns),
           "--seeds"] + [str(seed) for seed in args.seeds] + \
          ["--session-dir", session_dir, "--parallel", str(args.processes)]
    if resume:
        cmd.append("--resume")
    return cmd


def _env(extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(FAULT_ENV, None)
    if extra:
        env.update(extra)
    return env


def load_fingerprint(session_dir, config):
    """The comparable identity of a session's committed checkpoint."""
    path = os.path.join(session_dir, "checkpoint.json")
    with open(path) as handle:
        doc = json.load(handle)
    if not doc.get("final"):
        raise AssertionError("%s: checkpoint is not final" % path)
    images = ImageStore(os.path.join(session_dir, "images"))
    result = result_from_doc(doc, images, config)
    return result_fingerprint(result)


def run_golden(args, session_dir):
    print("== golden run -> %s" % session_dir)
    proc = subprocess.run(_repro_cmd(args, session_dir), env=_env(),
                          stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL,
                          timeout=args.timeout)
    if proc.returncode != 0:
        raise AssertionError("golden run exited %d" % proc.returncode)
    return load_fingerprint(session_dir, PMRaceConfig())


def _kill_fault(args, session_dir, rng):
    """One kill via the fault injector; returns True if the process
    actually died to the injected SIGKILL (vs. finishing first)."""
    spec = rng.choice(FAULT_SITES)
    resume = os.path.exists(os.path.join(session_dir, "MANIFEST.json"))
    proc = subprocess.run(_repro_cmd(args, session_dir, resume=resume),
                          env=_env({FAULT_ENV: spec}),
                          stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL,
                          timeout=args.timeout)
    print("   kill via %s -> exit %d" % (spec, proc.returncode))
    return proc.returncode == -signal.SIGKILL


def _kill_timed(args, session_dir, rng):
    """One kill at a random wall-clock moment: SIGKILL the whole process
    group (parent + pool workers), like an OOM killer or power cut."""
    resume = os.path.exists(os.path.join(session_dir, "MANIFEST.json"))
    proc = subprocess.Popen(_repro_cmd(args, session_dir, resume=resume),
                            env=_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL,
                            start_new_session=True)
    delay = rng.uniform(0.05, args.kill_after)
    time.sleep(delay)
    try:
        os.killpg(proc.pid, signal.SIGKILL)
        killed = True
    except ProcessLookupError:
        killed = False
    code = proc.wait()
    print("   killpg after %.2fs -> exit %d" % (delay, code))
    return killed and code != 0


def run_chaos(args, session_dir, rng):
    """Kill the run ``args.kills`` times, then let it finish; returns
    the recovered fingerprint."""
    print("== chaos run -> %s (%s mode)" % (session_dir, args.mode))
    kill = _kill_fault if args.mode == "fault" else _kill_timed
    landed = 0
    for _ in range(args.kills):
        if kill(args, session_dir, rng):
            landed += 1
    if landed == 0:
        print("   note: no kill landed mid-run (runs finished first)")
    for attempt in range(args.max_resumes):
        resume = os.path.exists(os.path.join(session_dir,
                                             "MANIFEST.json"))
        proc = subprocess.run(
            _repro_cmd(args, session_dir, resume=resume), env=_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=args.timeout)
        print("   resume #%d -> exit %d" % (attempt + 1, proc.returncode))
        if proc.returncode == 0:
            return load_fingerprint(session_dir, PMRaceConfig())
        if proc.returncode == 2:
            raise AssertionError("resume refused the session directory")
    raise AssertionError("no clean finish within %d resume(s)"
                         % args.max_resumes)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--target", default="pmring")
    parser.add_argument("--campaigns", type=int, default=8)
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 13])
    parser.add_argument("--processes", type=int, default=1,
                        help="passed as fuzz --parallel: 0 runs a "
                             "serial session, 1 an in-process parallel "
                             "one (both needed for deterministic "
                             "fault-point kills), 2+ a worker pool")
    parser.add_argument("--kills", type=int, default=4,
                        help="SIGKILLs to attempt before letting the run "
                             "finish (default 4)")
    parser.add_argument("--mode", choices=("fault", "timed"),
                        default="fault",
                        help="fault: deterministic kills at session "
                             "write boundaries; timed: randomized "
                             "wall-clock process-group kills")
    parser.add_argument("--kill-after", type=float, default=0.5,
                        dest="kill_after",
                        help="timed mode: max seconds before the kill")
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed for kill-site selection")
    parser.add_argument("--max-resumes", type=int, default=8,
                        dest="max_resumes")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="per-subprocess timeout in seconds")
    parser.add_argument("--session-root", default="chaos-sessions",
                        dest="session_root")
    parser.add_argument("--rounds", type=int, default=1,
                        help="independent chaos rounds against the same "
                             "golden (each with its own session dir)")
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    if os.path.exists(args.session_root):
        shutil.rmtree(args.session_root)
    os.makedirs(args.session_root)
    golden_dir = os.path.join(args.session_root, "golden")
    golden = run_golden(args, golden_dir)
    print("   golden fingerprint: %d verdict(s), %d corpus digest(s), "
          "%d campaigns" % (len(golden["verdicts"]),
                            len(golden["corpus_digests"]),
                            golden["campaigns"]))
    failures = 0
    for round_index in range(args.rounds):
        chaos_dir = os.path.join(args.session_root,
                                 "chaos-%d" % round_index)
        recovered = run_chaos(args, chaos_dir, rng)
        if recovered == golden:
            print("   round %d: fingerprints MATCH" % round_index)
        else:
            failures += 1
            print("   round %d: MISMATCH" % round_index)
            for key in golden:
                if recovered[key] != golden[key]:
                    print("     %s:\n       golden   : %r\n"
                          "       recovered: %r"
                          % (key, golden[key], recovered[key]))
    if failures:
        print("chaos: %d/%d round(s) FAILED — session dirs kept in %s"
              % (failures, args.rounds, args.session_root))
        return 1
    print("chaos: %d round(s), %d kill(s) each — kill-resume "
          "equivalence holds" % (args.rounds, args.kills))
    return 0


if __name__ == "__main__":
    sys.exit(main())
