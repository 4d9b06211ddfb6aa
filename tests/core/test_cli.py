"""CLI tests."""

import json

import pytest

import repro.cli as cli
from repro.cli import build_parser, main
from repro.core import PMRace
from repro.core.session import result_fingerprint
from repro.obs import Tracer, read_trace, summarize_path
from repro.targets import make_target


def _cli_result(monkeypatch, argv):
    """Run ``repro <argv>`` (exit 0) and return its merged RunResult."""
    results = []
    real = cli._print_findings
    monkeypatch.setattr(cli, "_print_findings", lambda result, args: (
        results.append(result), real(result, args)))
    assert main(argv) == 0
    return results[-1]


class TestParser:
    def test_targets_command(self):
        args = build_parser().parse_args(["targets"])
        assert args.command == "targets"

    def test_fuzz_defaults(self):
        args = build_parser().parse_args(["fuzz", "P-CLHT"])
        assert args.target == "P-CLHT"
        assert args.campaigns == 80
        assert args.mode == "pmrace"
        assert not args.eadr

    def test_fuzz_options(self):
        args = build_parser().parse_args(
            ["fuzz", "CCEH", "--campaigns", "5", "--seeds", "1", "2",
             "--mode", "delay", "--eadr", "--parallel", "2"])
        assert args.campaigns == 5
        assert args.seeds == [1, 2]
        assert args.mode == "delay"
        assert args.eadr and args.parallel == 2

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fuzz_parallel_options(self):
        args = build_parser().parse_args(
            ["fuzz", "P-CLHT", "--seeds", "1", "2",
             "--parallel", "2", "--worker-timeout", "30"])
        assert args.command == "fuzz"
        assert args.seeds == [1, 2]
        assert args.parallel == 2
        assert args.worker_timeout == 30.0

    def test_fuzz_parallel_defaults(self):
        """In-process and no timeout."""
        args = build_parser().parse_args(["fuzz", "CCEH"])
        assert args.parallel == 0
        assert args.worker_timeout is None

    @pytest.mark.parametrize("argv", [
        ["fuzz-parallel", "P-CLHT"],
        ["fuzz", "P-CLHT", "--processes", "2"],
        ["fuzz", "P-CLHT", "--max-retries", "1"],
        # In-process workers cannot be timed out, so the flag would be
        # silently ignored.
        ["fuzz", "P-CLHT", "--worker-timeout", "30"],
        ["fuzz", "P-CLHT", "--parallel", "1", "--worker-timeout", "30"],
        ["validate", "P-CLHT", "--jobs", "2"],
        ["validate", "P-CLHT", "--max-retries", "1"],
        ["tables", "--worker-timeout", "30"],
    ])
    def test_retired_and_fuzz_only_options_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_observability_flags(self):
        args = build_parser().parse_args(
            ["fuzz", "P-CLHT", "--trace-out", "t.jsonl",
             "--metrics-out", "m.jsonl"])
        assert args.trace_out == "t.jsonl"
        assert args.metrics_out == "m.jsonl"

    def test_validate_and_stats_commands(self):
        args = build_parser().parse_args(["validate", "P-CLHT"])
        assert args.command == "validate"
        assert not hasattr(args, "parallel")
        assert not hasattr(args, "jobs")
        args = build_parser().parse_args(["stats", "trace.jsonl"])
        assert args.command == "stats"
        assert args.file == "trace.jsonl"


class TestCommands:
    def test_targets_lists_all(self, capsys):
        assert main(["targets"]) == 0
        out = capsys.readouterr().out
        for name in ("P-CLHT", "CCEH", "FAST-FAIR", "memcached-pmem"):
            assert name in out

    def test_fuzz_unknown_target(self, capsys):
        assert main(["fuzz", "redis"]) == 2
        assert "unknown target" in capsys.readouterr().err

    def test_fuzz_small_run(self, capsys, tmp_path):
        report = tmp_path / "out.json"
        code = main(["fuzz", "P-CLHT", "--campaigns", "10",
                     "--seeds", "7", "--output", str(report)])
        assert code == 0
        captured = capsys.readouterr()
        assert "unique bugs" in captured.out
        assert "Workers" in captured.out  # one table, pool or not
        assert "merged total" in captured.err
        payload = json.loads(report.read_text())
        assert payload["target"] == "P-CLHT"
        assert payload["campaigns"] == 10

    def test_fuzz_eadr_flag(self, capsys):
        assert main(["fuzz", "CCEH", "--campaigns", "6",
                     "--seeds", "7", "--eadr"]) == 0
        out = capsys.readouterr().out
        assert "inter-thread candidates     : 0" in out

    def test_fuzz_parallel_small_run(self, capsys, tmp_path):
        report = tmp_path / "out.json"
        code = main(["fuzz", "P-CLHT", "--campaigns", "8",
                     "--seeds", "7", "13", "--parallel", "1",
                     "--output", str(report)])
        assert code == 0
        captured = capsys.readouterr()
        assert "Workers" in captured.out
        assert "unique bugs" in captured.out
        assert "merged total" in captured.err  # progress hook streamed
        payload = json.loads(report.read_text())
        assert payload["campaigns"] == 16
        assert [w["seed"] for w in payload["workers"]] == [7, 13]
        assert all(w["status"] == "ok" for w in payload["workers"])

    def test_fuzz_equals_inprocess_fuzz_parallel(self, capsys,
                                                 monkeypatch):
        """In-process ``fuzz`` and ``fuzz --parallel 2`` on a worker pool
        find the same things: one engine session per seed either way."""
        flags = ["fuzz", "pmring", "--campaigns", "20", "--seeds", "7", "13"]
        serial = _cli_result(monkeypatch, flags)
        pooled = _cli_result(monkeypatch, flags + ["--parallel", "2"])
        assert serial.campaigns == 40
        assert result_fingerprint(serial) == result_fingerprint(pooled)

    @pytest.mark.parametrize("command", ["fuzz", "validate"])
    def test_fuzz_seed_failure_exits_1(self, command, capsys, monkeypatch):
        """No retries under ``fuzz``: a raising seed fails the command."""
        import repro.core.parallel as parallel

        def broken(name):
            raise RuntimeError("broken target")

        monkeypatch.setattr(parallel, "make_target", broken)
        assert main([command, "pmring", "--campaigns", "4",
                     "--seeds", "7"]) == 1
        err = capsys.readouterr().err
        assert "1 worker(s) failed" in err
        assert "RuntimeError: broken target" in err

    def test_failed_seed_survives_kill_before_final_checkpoint(
            self, capsys, monkeypatch, tmp_path):
        """The second seed raises, then the run dies before its final
        checkpoint. The failed unit was checkpointed when it finished,
        so the resumed run skips it, still reports it, and exits 1."""
        import repro.core.parallel as parallel
        from repro.core.session import InjectedFault, Session

        real_make_target, built = parallel.make_target, []

        def second_seed_broken(name):
            built.append(name)
            if len(built) == 2:
                raise RuntimeError("seed 13 is broken")
            return real_make_target(name)

        real_checkpoint = Session.write_checkpoint

        def killed_before_final(session, result, units, final=False,
                                interrupted=None):
            if final:
                raise InjectedFault("killed before the final checkpoint")
            return real_checkpoint(session, result, units, final,
                                   interrupted)

        monkeypatch.setattr(parallel, "make_target", second_seed_broken)
        monkeypatch.setattr(Session, "write_checkpoint", killed_before_final)
        argv = ["fuzz", "pmring", "--campaigns", "4", "--seeds", "7", "13",
                "--session-dir", str(tmp_path / "session")]
        with pytest.raises(InjectedFault):
            main(argv)
        monkeypatch.setattr(Session, "write_checkpoint", real_checkpoint)
        capsys.readouterr()
        results = []
        real_print = cli._print_findings
        monkeypatch.setattr(cli, "_print_findings", lambda result, args: (
            results.append(result), real_print(result, args)))
        assert main(argv + ["--resume"]) == 1
        assert len(built) == 2  # nothing re-ran
        assert [(s.worker_id, s.seed, s.status)
                for s in results[0].worker_stats] == \
            [(0, 7, "ok"), (1, 13, "failed")]
        err = capsys.readouterr().err
        assert "1 worker(s) failed" in err
        assert "seed 13 is broken" in err

    def test_fuzz_parallel_unknown_target(self, capsys):
        assert main(["fuzz", "redis", "--parallel", "2"]) == 2
        assert "unknown target" in capsys.readouterr().err

    def test_fuzz_with_whitelist_file(self, capsys, tmp_path):
        wl = tmp_path / "wl.txt"
        wl.write_text("repro.targets.pclht:\n")  # whitelist everything
        assert main(["fuzz", "P-CLHT", "--campaigns", "10", "--seeds",
                     "7", "--whitelist", str(wl)]) == 0
        out = capsys.readouterr().out
        assert "campaigns" in out


class TestObservability:
    def test_fuzz_trace_and_metrics_out(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.jsonl"
        assert main(["fuzz", "P-CLHT", "--campaigns", "8", "--seeds", "7",
                     "--trace-out", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        err = capsys.readouterr().err
        assert "trace written to" in err
        assert "metrics written to" in err
        records = list(read_trace(str(trace)))  # validates every record
        types = {record["type"] for record in records}
        assert {"trace_header", "run_start", "campaign", "run_end"} <= types
        lines = [json.loads(line) for line
                 in metrics.read_text().splitlines()]
        assert lines[0]["type"] == "metrics_header"
        names = {line["name"] for line in lines[1:]}
        assert {"pm.stores", "scheduler.steps", "engine.campaigns"} <= names

    def test_stats_on_cli_trace(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(["fuzz", "P-CLHT", "--campaigns", "8", "--seeds", "7",
                     "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "observability stats" in out
        assert "coverage growth" in out

    def test_stats_on_fuzz_trace_match_engine_sessions(self, capsys,
                                                        tmp_path):
        """``repro stats`` on a ``repro fuzz`` trace reports what the
        per-seed engine sessions report on their own; the service adds
        only its ``worker`` records."""
        argv = ["fuzz", "pmring", "--campaigns", "8", "--seeds", "7", "13"]
        direct = tmp_path / "direct.jsonl"
        config = cli._make_config(build_parser().parse_args(argv))
        with Tracer(str(direct)) as tracer:
            for seed in (7, 13):
                config.base_seed = seed
                PMRace(make_target("pmring"), config, tracer=tracer).run()
        trace = tmp_path / "trace.jsonl"
        assert main(argv + ["--trace-out", str(trace)]) == 0
        capsys.readouterr()
        want, got = summarize_path(str(direct)), summarize_path(str(trace))
        for field in ("runs", "campaigns", "coverage", "candidates",
                      "inconsistencies", "verdicts"):
            assert got[field] == want[field], field
        assert got["runs"] == 2
        extra = dict(got["events_by_type"])
        assert extra.pop("worker") == 2
        assert extra == want["events_by_type"]

    def test_stats_rejects_garbage(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["stats", str(bad)]) == 2
        assert "cannot summarize" in capsys.readouterr().err
        assert main(["stats", str(tmp_path / "missing.jsonl")]) == 2

    def test_validate_runs_separate_pass(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(["validate", "P-CLHT", "--campaigns", "8",
                     "--seeds", "7", "--trace-out", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "post-failure validation:" in out
        assert "unique bugs" in out
        verdicts = [r for r in read_trace(str(trace))
                    if r["type"] == "verdict"]
        assert verdicts and all(r["verdict"] in
                                ("bug", "validated_fp", "whitelisted_fp",
                                 "pending") for r in verdicts)
