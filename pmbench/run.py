"""PMRace benchmark: four workloads, end-to-end and traced per-layer metrics.

One run of one workload (what ``BENCHMARK.json``'s command runs)::

    python3 pmbench/run.py --workload pclht --seed 7 --seconds 15 --trace 0

prints every metric by name with its unit, then, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  It exits 1 when a correctness check fails.

The suite (any other use) runs each workload in its own child process,
one at a time, ``--runs`` untraced runs plus one traced run at one
seed, and writes the trajectory ``results/BENCH_<git sha>.json``::

    python3 pmbench/run.py --runs 5 [--workload W ...] [--check BASE.json]

``--check`` compares the fresh trajectory with a baseline one and exits
1 on any metric that got worse than its bound or any rise in the failed
share.  See ``pmbench/README.md``.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

import report

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("pclht", "memcached", "pmring", "validate")
#: Traced runs per workload in a suite.
TRACED_RUNS = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int,
                        help="measuring window of one run (default: "
                        "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: traced per-layer run")
    parser.add_argument("--runs", type=int,
                        help="suite: untraced runs per workload (default 5)")
    parser.add_argument("--out", help="suite: trajectory path (default: "
                        "results/BENCH_<short git sha>.json)")
    parser.add_argument("--check", metavar="BASELINE",
                        help="suite: compare with a baseline trajectory")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = report.load_spec()["run_seconds"]
    args.suite = not (args.workload and len(args.workload) == 1
                      and args.runs is None and args.out is None
                      and args.check is None)
    return args


# ----------------------------------------------------------------------
# one run


def pin_to_one_cpu():
    """Keep the run on one CPU.

    The cooperative scheduler keeps one simulated thread runnable at a
    time, so the work cannot use a second CPU; letting the OS move the
    handoff partner to another CPU adds a cross-CPU wake-up to every
    scheduler step, which made identical runs differ by up to 2x.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


#: Fresh interpreters that time ``import repro`` for the set-up time.
IMPORT_SAMPLES = 3


def import_repro():
    """Import the checkout's own ``src/repro``; returns the scaled
    seconds ``import repro`` took in each of :data:`IMPORT_SAMPLES`
    fresh interpreters (:mod:`hostspeed`)."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise ImportError("repro imported from %s, not %s"
                          % (repro.__file__, SRC))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "hostspeed.py"), SRC],
            check=True, capture_output=True, text=True)
        samples.append(float(out.stdout))
    return samples


def run_one(args):
    pin_to_one_cpu()
    try:
        import_s = import_repro()
    except ImportError as exc:
        print("cannot import the program under test: %s" % exc,
              file=sys.stderr)
        return 2
    import workloads

    spec = report.load_spec()
    name = args.workload[0]
    run = workloads.run(name, args.seed, args.seconds, trace=bool(args.trace),
                        import_s=import_s)
    doc = report.result_document(run, args.trace, spec)
    for metric, value in doc["metrics"].items():
        print("%s %s %.6g %s" % (name, metric, value["value"],
                                 value["unit"]))
    print("%s units %d attempted %d failed %d" % (
        name, len(run.plain), doc["attempted"], doc["failed"]))
    for problem in run.problems:
        print("%s CHECK FAILED: %s" % (name, problem))
    print(json.dumps(doc, sort_keys=True))
    return 0 if doc["correct"] else 1


# ----------------------------------------------------------------------
# suite


def _git(*argv):
    try:
        out = subprocess.run(("git",) + argv, cwd=ROOT, check=True,
                             capture_output=True, text=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def host_info():
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def child_run(workload, seed, seconds, trace):
    """One run in a child process; its result document."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload",
            workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True,
                          timeout=300 + 4 * seconds)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        if "CHECK FAILED" in line:
            print("  " + line)
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError("%s run printed no result (exit %d)"
                           % (workload, proc.returncode))
    return json.loads(lines[-1])


def run_suite(args):
    spec = report.load_spec()
    sha = _git("rev-parse", "HEAD")
    dirty = _git("status", "--porcelain", "--", "src")
    label = sha[:7] if sha else "local"
    out = args.out or os.path.join(RESULTS, "BENCH_%s.json" % label)
    runs = 5 if args.runs is None else args.runs
    trajectory = {
        "schema": 1,
        "label": label,
        "git": {"sha": sha, "src_dirty": bool(dirty) if sha else None},
        "host": host_info(),
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": runs,
        "traced_runs": TRACED_RUNS,
        "workloads": {},
    }
    for workload in args.workload or WORKLOADS:
        docs, traced = [], []
        for index in range(runs + TRACED_RUNS):
            trace = int(index >= runs)
            doc = child_run(workload, args.seed, args.seconds, trace)
            (traced if trace else docs).append(doc)
            print("%s run %d%s: correct=%s %s" % (
                workload, index, " (traced)" if trace else "",
                doc["correct"], " ".join(
                    "%s=%.4g" % (k, v["value"])
                    for k, v in sorted(doc["metrics"].items())
                    if trace == 0 or k.startswith(("scheduler.handoff",
                                                   "residual", "trace.")))))
        trajectory["workloads"][workload] = report.workload_summary(
            docs, traced, spec)
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as handle:
        json.dump(trajectory, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % out)
    status = 0 if all(w["correct"]
                      for w in trajectory["workloads"].values()) else 1
    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
        rows, failures = report.compare(baseline, trajectory)
        print("workload  metric          verdict    change (+ is better)")
        for workload, metric, verdict, change in rows:
            print("%-9s %-15s %-10s %+.1f%%" % (workload, metric, verdict,
                                               100 * change))
        for failure in failures:
            print("CHECK: %s" % failure)
        status = status or (1 if failures else 0)
    return status


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    return run_suite(args) if args.suite else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
