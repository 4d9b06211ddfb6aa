"""Command-line interface: ``python -m repro <command>``.

Mirrors the original artifact's scripts: list the targets, fuzz one (or
all) of them, and emit the detailed JSON reports plus the paper-style
summary tables.

Commands:
    targets                     list the registered targets (--check runs
                                the contract-conformance suite)
    fuzz <target>               fuzz one target and print its bugs
                                (--parallel N: on a worker pool, §5)
    validate <target>           fuzz, then post-failure validate separately
    replay <bundle.json>        re-execute a repro bundle, assert identity
    shrink <bundle.json>        ddmin-minimize a repro bundle
    tables                      fuzz everything and print Tables 2/3/5/6
    stats <file.jsonl>          summarize a --trace-out/--metrics-out file
    corpus <action> <dir>       inspect (stats) or coverage-minimize a
                                persisted seed corpus (--corpus-dir)

Every subcommand accepts ``--target-module pkg.mod`` (repeatable; a
``path/to/file.py`` also works): the module is imported first and the
Target subclasses it defines register alongside the built-ins, so
third-party workloads fuzz, validate, and replay through the same
commands (see ``docs/TARGET_SDK.md``).

``fuzz``, ``validate``, and ``tables`` accept
``--trace-out FILE`` (typed JSONL event stream) and ``--metrics-out
FILE`` (counter/gauge/histogram registry dump); ``stats`` reads either.

``--repro-dir DIR`` on the fuzzing commands captures one deterministic
repro bundle per kept record (see ``docs/REPRODUCERS.md``); ``replay``
exits nonzero on any divergence or identity mismatch, ``shrink`` writes
the minimized bundle next to the input as ``<name>.min.json``.
"""

import argparse
import sys

# ``import repro`` has loaded these already; each subcommand imports the
# rest of what it needs itself.
from .core.config import PMRaceConfig
from .detect.records import Verdict
from .detect.validation_service import make_validation_queue
from .obs import Metrics, Tracer
from .targets.registry import (
    TargetModuleError,
    load_target_modules,
    make_target,
    table1_rows,
    target_names,
)


def _add_plugin_option(parser):
    parser.add_argument("--target-module", action="append", metavar="SPEC",
                        dest="target_modules", default=[],
                        help="import a plugin module (dotted name or .py "
                             "path) and register the targets it defines; "
                             "repeatable")


def _add_fuzz_options(parser, parallel_flag=True):
    parser.add_argument("--campaigns", type=int, default=80,
                        help="campaigns per seed (default 80)")
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=[7, 13, 42],
                        help="base seeds, one engine session each")
    parser.add_argument("--threads", type=int, default=4,
                        help="simulated worker threads (default 4)")
    parser.add_argument("--mode", choices=("pmrace", "delay", "random"),
                        default="pmrace", help="exploration scheme")
    parser.add_argument("--eadr", action="store_true",
                        help="simulate an eADR platform (§6.6)")
    parser.add_argument("--whitelist", metavar="FILE",
                        help="extra whitelist entries (one per line)")
    if parallel_flag:
        parser.add_argument("--parallel", type=int, metavar="N", default=0,
                            help="fuzz with N worker processes (§5; "
                                 "default 0 and 1 run in-process)")
    parser.add_argument("--repro-dir", metavar="DIR", dest="repro_dir",
                        help="capture a deterministic repro bundle per "
                             "kept record and write them here")
    parser.add_argument("--corpus-dir", metavar="DIR", dest="corpus_dir",
                        help="persist the retained seed corpus here (one "
                             "JSON file per seed) and resume from it")
    parser.add_argument("--output", metavar="FILE",
                        help="write the full JSON report here")
    parser.add_argument("--trace-out", metavar="FILE", dest="trace_out",
                        help="write a typed JSONL event trace here")
    parser.add_argument("--metrics-out", metavar="FILE", dest="metrics_out",
                        help="write the metrics registry as JSONL here")


def _make_config(args):
    whitelist = None
    if args.whitelist:
        from .detect.reporting import load_whitelist
        whitelist = load_whitelist(args.whitelist)
    return PMRaceConfig(mode=args.mode, n_threads=args.threads,
                        max_campaigns=args.campaigns, max_seeds=20,
                        whitelist=whitelist, eadr=args.eadr,
                        capture_repro=bool(getattr(args, "repro_dir",
                                                   None)),
                        corpus_dir=getattr(args, "corpus_dir", None),
                        target_modules=tuple(
                            getattr(args, "target_modules", ()) or ()))


def _make_obs(args):
    """(tracer, metrics) from the --trace-out/--metrics-out flags."""
    tracer = Tracer(args.trace_out) if args.trace_out else None
    metrics = Metrics() if args.metrics_out else None
    return tracer, metrics


def _close_obs(args, tracer, metrics):
    """Flush observability sinks and tell the user where they went."""
    if tracer is not None:
        tracer.close()
        print("trace written to %s" % args.trace_out, file=sys.stderr)
    if metrics is not None:
        metrics.dump(args.metrics_out)
        print("metrics written to %s" % args.metrics_out, file=sys.stderr)


def _open_session(args, target, kind, config, tracer=None, metrics=None):
    """(session, error_exit) from --session-dir/--resume; (None, None)
    when no session was requested."""
    session_dir = getattr(args, "session_dir", None)
    if not session_dir:
        if getattr(args, "resume", False):
            print("--resume requires --session-dir", file=sys.stderr)
            return None, 2
        return None, None
    from .core.session import Session, SessionError
    try:
        session = Session.open(session_dir, target, kind,
                               tuple(args.seeds), config,
                               resume=getattr(args, "resume", False),
                               tracer=tracer, metrics=metrics)
    except SessionError as exc:
        print("--session-dir: %s" % exc, file=sys.stderr)
        return None, 2
    if session.resumed:
        print("resuming session in %s (%d unit(s) already done)"
              % (session_dir, len(session.done_units())),
              file=sys.stderr)
    return session, None


def _fuzz_exit(result, args):
    """The fuzz commands' exit code: 128+signum when a session run was
    interrupted (checkpointed and resumable), 1 when a worker failed,
    timed out or died, else 0."""
    if result.interrupted is not None:
        print("\ninterrupted by signal %d — session checkpointed to %s; "
              "rerun with --resume to continue"
              % (result.interrupted, args.session_dir), file=sys.stderr)
        return 128 + result.interrupted
    failed = [s for s in result.worker_stats if s.status != "ok"]
    if failed:
        print("\n%d worker(s) failed" % len(failed), file=sys.stderr)
        for stats in failed:
            print("  worker %d seed %d: %s"
                  % (stats.worker_id, stats.seed,
                     (stats.error or stats.status).strip().splitlines()[-1]),
                  file=sys.stderr)
        return 1
    return 0


def _fuzz_one(name, args, config=None, tracer=None, metrics=None,
              session=None, progress=None):
    """Fuzz ``name`` once per ``--seeds`` entry: in-process, or on a pool
    of ``--parallel N`` workers. Only ``fuzz`` takes ``--worker-timeout``;
    a seed that raises is reported, never retried."""
    from .core.parallel import fuzz_parallel
    return fuzz_parallel(name, config or _make_config(args),
                         seeds=tuple(args.seeds),
                         processes=getattr(args, "parallel", 0) or 1,
                         worker_timeout=getattr(args, "worker_timeout",
                                                None),
                         progress=progress, tracer=tracer, metrics=metrics,
                         session=session)


def cmd_targets(args):
    from .core.results import render_table
    print(render_table(table1_rows(),
                       ["system", "version", "scope", "concurrency"],
                       title="Targets (Table 1 + registered plugins)"))
    if getattr(args, "check", False):
        from .targets.conformance import check_all
        print()
        failed = 0
        for report in check_all():
            print(report.summary())
            failed += 0 if report.ok else 1
        if failed:
            print("\n%d target(s) failed conformance" % failed,
                  file=sys.stderr)
            return 1
    return 0


def _save_repro(result, args):
    """Persist captured repro bundles when ``--repro-dir`` was given."""
    repro_dir = getattr(args, "repro_dir", None)
    if not repro_dir:
        return
    from .core.results import count_repro_bundles
    from .replay import save_bundles
    paths = save_bundles(result, repro_dir)
    print("%d repro bundle(s) (%d records captured) written to %s"
          % (len(paths), count_repro_bundles(result), repro_dir),
          file=sys.stderr)


def _print_findings(result, args):
    summary = result.summary()
    print("%(target)s: %(campaigns)d campaigns" % summary)
    print("  inter-thread candidates     : %(inter_candidates)d" % summary)
    print("  confirmed inconsistencies   : %d (inter %d / intra %d)"
          % (summary["inter"] + summary["intra"], summary["inter"],
             summary["intra"]))
    print("  sync inconsistencies        : %(sync)d "
          "(%(sync_validated_fp)d benign)" % summary)
    print("  unique bugs                 : %(bugs)d" % summary)
    for report in result.bug_reports:
        print()
        print(report.format())
    if args.output:
        from .detect.reporting import dump_run_result
        path = dump_run_result(result, args.output)
        print("\nJSON report written to %s" % path)
    _save_repro(result, args)


def _check_target(name):
    if name not in target_names():
        print("unknown target %r; choose from: %s"
              % (name, ", ".join(target_names())), file=sys.stderr)
        return False
    return True


def cmd_fuzz(args):
    from .core.results import build_worker_table, render_table
    if not _check_target(args.target):
        return 2

    def progress(stats, merged):
        print("worker %d seed %d: %s — %d campaigns, merged total %d"
              % (stats.worker_id, stats.seed, stats.status,
                 stats.campaigns, merged.campaigns), file=sys.stderr)

    tracer, metrics = _make_obs(args)
    config = _make_config(args)
    kind = "parallel" if args.parallel else "serial"
    session, error = _open_session(args, args.target, kind, config,
                                   tracer=tracer, metrics=metrics)
    if error is not None:
        return error
    result = _fuzz_one(args.target, args, config=config, tracer=tracer,
                       metrics=metrics, session=session, progress=progress)
    print(render_table(build_worker_table(result),
                       title="Workers (§5 concurrent fuzzing)"))
    print()
    _print_findings(result, args)
    _close_obs(args, tracer, metrics)
    return _fuzz_exit(result, args)


def cmd_validate(args):
    """Fuzz with validation deferred, then validate in one visible pass."""
    if not _check_target(args.target):
        return 2
    tracer, metrics = _make_obs(args)
    config = _make_config(args)
    config.validate = False
    result = _fuzz_one(args.target, args, config=config, tracer=tracer,
                       metrics=metrics)
    records = list(result.inconsistencies) + list(result.sync_inconsistencies)
    queue = make_validation_queue(args.target, whitelist=config.whitelist,
                                  tracer=tracer, metrics=metrics)
    for record in records:
        queue.enqueue(record)
    queue.drain()
    stats = queue.stats()
    result._regroup()
    by_verdict = {}
    for record in records:
        by_verdict[record.verdict] = by_verdict.get(record.verdict, 0) + 1
    print("post-failure validation: %d records -> %d bugs, "
          "%d validated FPs, %d whitelisted FPs, %d pending"
          % (len(records), by_verdict.get(Verdict.BUG, 0),
             by_verdict.get(Verdict.VALIDATED_FP, 0),
             by_verdict.get(Verdict.WHITELISTED_FP, 0),
             by_verdict.get(Verdict.PENDING, 0)))
    print("replay cache: %d unique images, %d hits, %d misses "
          "(%d records awaiting an image)"
          % (stats["unique_images"], stats["cache_hits"],
             stats["cache_misses"], stats["awaiting_image"]))
    print()
    _print_findings(result, args)
    _close_obs(args, tracer, metrics)
    return _fuzz_exit(result, args)


def _load_bundle(path):
    from .replay import BundleError, ReproBundle
    try:
        return ReproBundle.load(path)
    except OSError as exc:
        print("cannot read bundle %s: %s" % (path, exc), file=sys.stderr)
    except BundleError as exc:
        print("invalid bundle %s: %s" % (path, exc), file=sys.stderr)
    return None


def cmd_replay(args):
    """Re-execute a repro bundle; nonzero exit on any mismatch."""
    from .replay import replay_bundle
    bundle = _load_bundle(args.bundle)
    if bundle is None:
        return 2
    tracer, metrics = _make_obs(args)
    validation = None
    if args.validate:
        validation = make_validation_queue(bundle.target, tracer=tracer,
                                           metrics=metrics)
    outcome = replay_bundle(bundle, validation=validation, tracer=tracer,
                            metrics=metrics)
    for line in outcome.describe():
        print(line)
    _close_obs(args, tracer, metrics)
    return 0 if outcome.ok else 1


def cmd_shrink(args):
    """ddmin-minimize a repro bundle; writes ``<name>.min.json``."""
    from .replay import shrink_bundle
    bundle = _load_bundle(args.bundle)
    if bundle is None:
        return 2
    tracer, metrics = _make_obs(args)
    result = shrink_bundle(bundle, budget=args.budget, tracer=tracer,
                           metrics=metrics)
    if not result.reproduced:
        print("bundle does not reproduce its record; nothing to shrink",
              file=sys.stderr)
        _close_obs(args, tracer, metrics)
        return 1
    out = args.out
    if out is None:
        base = args.bundle[:-5] if args.bundle.endswith(".json") \
            else args.bundle
        out = base + ".min.json"
    result.bundle.save(out)
    summary = result.summary()
    print("ops      : %s (%.0f%% removed)"
          % (summary["ops"], 100 * result.op_reduction))
    print("schedule : %s" % summary["schedule"])
    print("tests    : %d (budget %d)" % (result.tests, args.budget))
    print("verified : %s" % ("yes" if result.verified else "NO"))
    print("minimized bundle written to %s" % out)
    _close_obs(args, tracer, metrics)
    return 0 if result.verified else 1


def cmd_corpus(args):
    """Inspect or minimize an on-disk seed corpus (``--corpus-dir``)."""
    import json as _json
    import os

    from .core.corpus import Corpus, minimize_by_coverage
    from .core.results import render_table

    if not os.path.isdir(args.dir):
        print("no corpus directory at %s" % args.dir, file=sys.stderr)
        return 2
    corpus = Corpus(persist_dir=args.dir)
    loaded = corpus.load()
    if args.action == "stats":
        rows = corpus.stats_rows()
        if args.json:
            print(_json.dumps({"dir": args.dir, "seeds": rows,
                               "load_errors": corpus.load_errors},
                              indent=1, sort_keys=True))
            return 0
        for row in rows:
            row["digest"] = row["digest"][:12]
        print(render_table(rows, title="Corpus: %d seed(s) in %s"
                           % (loaded, args.dir)))
        if corpus.load_errors:
            print("%d invalid seed file(s) skipped" % corpus.load_errors,
                  file=sys.stderr)
        return 0
    # minimize
    if not _check_target(args.target):
        return 2
    if not len(corpus):
        print("corpus is empty; nothing to minimize", file=sys.stderr)
        return 1
    kept, dropped = minimize_by_coverage(corpus, make_target(args.target),
                                         base_seed=args.base_seed)
    print("coverage-minimal corpus: keep %d of %d seed(s)"
          % (len(kept), len(corpus)))
    for entry, covered in kept:
        print("  keep %s (%d ops, covers %d)"
              % (entry.digest[:12], entry.seed.op_count, covered))
    for entry, covered in dropped:
        print("  drop %s (%d ops, covers %d — redundant)"
              % (entry.digest[:12], entry.seed.op_count, covered))
    if args.apply:
        for entry, _covered in dropped:
            corpus.discard(entry)
        print("%d redundant seed file(s) removed from %s"
              % (len(dropped), args.dir))
    elif dropped:
        print("(dry run — pass --apply to delete the redundant files)")
    return 0


def cmd_stats(args):
    from .obs.stats import render_stats, summarize_path
    try:
        summary = summarize_path(args.file)
    except (OSError, ValueError) as exc:
        print("cannot summarize %s: %s" % (args.file, exc), file=sys.stderr)
        return 2
    print(render_stats(summary))
    return 0


def cmd_tables(args):
    from .core.results import (build_table2, build_table3, build_table5,
                               build_table6, render_table)
    tracer, metrics = _make_obs(args)
    results = {}
    for name in target_names():
        print("fuzzing %s..." % name, file=sys.stderr)
        results[name] = _fuzz_one(name, args, tracer=tracer,
                                  metrics=metrics)
        _save_repro(results[name], args)
    _close_obs(args, tracer, metrics)
    print(render_table(build_table2(results),
                       ["#", "system", "type", "new", "description",
                        "consequence", "found"],
                       title="Table 2: unique bugs"))
    print()
    print(render_table(build_table3(results), title="Table 3: detection "
                       "and false-positive filtering"))
    print()
    print(render_table(build_table5(results),
                       title='Table 5: unique bugs ("new|total")'))
    print()
    print(render_table(build_table6(results),
                       title="Table 6: inconsistencies and FPs"))
    return max(_fuzz_exit(result, args)
               for result in results.values())


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PMRace reproduction: fuzz concurrent PM programs for "
                    "crash-consistency concurrency bugs")
    sub = parser.add_subparsers(dest="command", required=True)

    targets = sub.add_parser("targets", help="list the systems under test")
    targets.add_argument("--check", action="store_true",
                         help="run the contract-conformance suite over "
                              "every registered target (nonzero exit on "
                              "failure)")

    fuzz = sub.add_parser("fuzz", help="fuzz one target")
    fuzz.add_argument("target", help="registered target name, e.g. P-CLHT")
    _add_fuzz_options(fuzz)
    fuzz.add_argument("--worker-timeout", type=float, metavar="SECONDS",
                      default=None,
                      help="with --parallel 2 or more: write off a "
                           "worker as hung after this long")
    fuzz.add_argument("--session-dir", metavar="DIR", dest="session_dir",
                      help="make the run durable: checkpoint every "
                           "completed work unit here so a killed run "
                           "can continue (see docs/SESSIONS.md)")
    fuzz.add_argument("--resume", action="store_true",
                      help="continue the session in --session-dir: skip "
                           "finished work units, re-validate pending "
                           "records")

    validate = sub.add_parser(
        "validate",
        help="fuzz with validation deferred, then run post-failure "
             "validation as its own observable pass")
    validate.add_argument("target", help="registered target name")
    _add_fuzz_options(validate, parallel_flag=False)

    replay = sub.add_parser(
        "replay",
        help="re-execute a repro bundle and assert the same first "
             "inconsistency (nonzero exit on divergence)")
    replay.add_argument("bundle", help="path to a repro bundle JSON file")
    replay.add_argument("--validate", action="store_true",
                        help="also post-failure validate the re-detected "
                             "record and report its verdict")
    replay.add_argument("--trace-out", metavar="FILE", dest="trace_out",
                        help="write a typed JSONL event trace here")
    replay.add_argument("--metrics-out", metavar="FILE",
                        dest="metrics_out",
                        help="write the metrics registry as JSONL here")

    shrink = sub.add_parser(
        "shrink",
        help="delta-debug a repro bundle down to a minimal reproducer")
    shrink.add_argument("bundle", help="path to a repro bundle JSON file")
    shrink.add_argument("--budget", type=int, metavar="N", default=200,
                        help="max candidate replays (default 200)")
    shrink.add_argument("--out", metavar="FILE",
                        help="minimized bundle path (default "
                             "<bundle>.min.json)")
    shrink.add_argument("--trace-out", metavar="FILE", dest="trace_out",
                        help="write a typed JSONL event trace here")
    shrink.add_argument("--metrics-out", metavar="FILE",
                        dest="metrics_out",
                        help="write the metrics registry as JSONL here")

    tables = sub.add_parser("tables", help="fuzz all targets, print tables")
    _add_fuzz_options(tables)

    stats = sub.add_parser(
        "stats", help="summarize a --trace-out/--metrics-out JSONL file")
    stats.add_argument("file", help="trace or metrics JSONL path")

    corpus = sub.add_parser(
        "corpus",
        help="inspect or minimize an on-disk seed corpus (--corpus-dir)")
    corpus.add_argument("action", choices=("stats", "minimize"),
                        help="stats: per-seed scheduling statistics; "
                             "minimize: greedy coverage-preserving "
                             "seed-set reduction")
    corpus.add_argument("dir", help="corpus directory (--corpus-dir)")
    corpus.add_argument("--json", action="store_true",
                        help="stats only: emit JSON instead of a table")
    corpus.add_argument("--target", metavar="NAME",
                        help="minimize only: Table 1 system the corpus "
                             "belongs to (coverage is measured by "
                             "replaying each seed once)")
    corpus.add_argument("--base-seed", type=int, default=0,
                        dest="base_seed",
                        help="minimize only: scheduler seed for the "
                             "coverage probes (default 0)")
    corpus.add_argument("--apply", action="store_true",
                        help="minimize only: delete the redundant seed "
                             "files instead of dry-running")

    # The plugin boundary: every subcommand resolves targets by name
    # through the registry, so every subcommand can extend it first.
    for subparser in sub.choices.values():
        _add_plugin_option(subparser)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if getattr(args, "worker_timeout", None) is not None and \
            args.parallel < 2:
        # In-process workers run on the caller's thread: nothing could
        # observe a hang, let alone kill it.
        print("--worker-timeout needs --parallel 2 or more",
              file=sys.stderr)
        raise SystemExit(2)
    try:
        loaded = load_target_modules(getattr(args, "target_modules", ()))
    except TargetModuleError as exc:
        print("--target-module: %s" % exc, file=sys.stderr)
        return 2
    if loaded:
        print("registered plugin target(s): %s" % ", ".join(loaded),
              file=sys.stderr)
    handler = {"targets": cmd_targets, "fuzz": cmd_fuzz,
               "validate": cmd_validate,
               "replay": cmd_replay, "shrink": cmd_shrink,
               "tables": cmd_tables, "stats": cmd_stats,
               "corpus": cmd_corpus}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
