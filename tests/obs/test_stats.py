"""``repro stats`` summarizer tests, synthetic and end-to-end."""

import io
import json

import pytest

from repro.obs import (
    Metrics,
    Tracer,
    read_trace,
    render_stats,
    summarize_path,
    summarize_records,
)


def make_trace_records():
    sink = io.StringIO()
    tracer = Tracer(sink)
    tracer.emit("run_start", target="toy", mode="pmrace")
    tracer.emit("seed_start", session=0, seed=7)
    tracer.emit("campaign", index=0, branch_total=5, alias_total=1,
                status="ok")
    tracer.emit("interleaving", tier="interleaving", priority=2)
    tracer.emit("campaign", index=1, branch_total=9, alias_total=4,
                status="ok")
    tracer.emit("candidate", kind="inter-candidate", addr=64)
    tracer.emit("inconsistency", kind="inter", addr=64)
    tracer.emit("verdict", kind="inter", verdict="bug", note="")
    tracer.emit("verdict", kind="inter", verdict="validated_fp", note="")
    tracer.emit("verdict", kind="inter", verdict="bug", note="")
    tracer.emit("worker", worker_id=0, seed=7, status="ok")
    tracer.emit("run_end", duration_s=2.0, summary={"campaigns": 10})
    return [json.loads(line) for line in sink.getvalue().splitlines()]


class TestSummarize:
    def test_counts_and_coverage_growth(self):
        summary = summarize_records(make_trace_records())
        assert summary["runs"] == 1
        assert summary["seeds"] == 1
        assert summary["campaigns"] == 10
        assert summary["duration_s"] == pytest.approx(2.0)
        assert summary["interleavings"] == 1
        assert summary["coverage"] == {
            "branch_first": 5, "branch_last": 9, "branch_growth": 4,
            "alias_first": 1, "alias_last": 4, "alias_growth": 3}
        assert summary["candidates"] == 1
        assert summary["inconsistencies"] == 1
        assert summary["candidate_rate"] == pytest.approx(0.1)
        assert summary["verdicts"] == {"bug": 2, "validated_fp": 1}
        assert summary["verdict_ratios"]["bug"] == pytest.approx(2 / 3,
                                                                 abs=1e-4)
        assert summary["workers"] == {"ok": 1}

    def test_unknown_record_type_rejected(self):
        with pytest.raises(ValueError):
            summarize_records([{"type": "mystery", "t": 0, "seq": 0}])

    def test_metrics_file_summary(self, tmp_path):
        metrics = Metrics()
        metrics.counter("pm.loads").inc(100)
        metrics.histogram("steps", bounds=(10,)).observe(5)
        path = str(tmp_path / "m.jsonl")
        metrics.dump(path)
        summary = summarize_path(path)
        assert summary["metrics"]["pm.loads"]["value"] == 100
        assert summary["metrics"]["steps"]["kind"] == "histogram"

    def test_render_stats_mentions_key_lines(self):
        text = render_stats(summarize_records(make_trace_records()))
        assert "coverage growth: branch 5 -> 9 (+4)" in text
        assert "candidates: 1" in text
        assert "bug=2" in text
        assert "worker attempts: ok=1" in text


class TestEndToEnd:
    """The real engine's --trace-out/--metrics-out output must both
    validate against the schema and summarize meaningfully."""

    @pytest.fixture(scope="class")
    def run_files(self, tmp_path_factory):
        from repro.core import PMRaceConfig, fuzz_parallel

        from ..core.toy_target import ToyTarget

        tmp = tmp_path_factory.mktemp("obs")
        trace_path = str(tmp / "trace.jsonl")
        metrics = Metrics()
        with Tracer(trace_path) as tracer:
            fuzz_parallel(ToyTarget, PMRaceConfig(max_campaigns=8),
                          seeds=(7,), processes=1, tracer=tracer,
                          metrics=metrics)
        metrics_path = str(tmp / "metrics.jsonl")
        metrics.dump(metrics_path)
        return trace_path, metrics_path

    def test_trace_schema_valid(self, run_files):
        trace_path, _ = run_files
        records = list(read_trace(trace_path, validate=True))
        types = {record["type"] for record in records}
        assert {"trace_header", "run_start", "seed_start", "campaign",
                "run_end"} <= types

    def test_trace_summarizes(self, run_files):
        trace_path, _ = run_files
        summary = summarize_path(trace_path)
        assert summary["runs"] == 1
        assert summary["campaigns"] > 0
        assert summary["coverage"]["branch_last"] > 0

    def test_metrics_summarize(self, run_files):
        _, metrics_path = run_files
        summary = summarize_path(metrics_path)
        assert summary["metrics"]["pm.stores"]["value"] > 0
        assert summary["metrics"]["scheduler.runs"]["value"] > 0
        assert summary["metrics"]["scheduler.handoffs"]["value"] > 0
        text = render_stats(summary)
        assert "scheduler.handoffs" in text
        assert "scheduler.parked_steps" in text


class TestTornTail:
    """A SIGKILLed writer leaves a half-appended final line; ``repro
    stats`` must summarize the rest and report the torn tail instead of
    dying with a JSON error."""

    def make_trace_text(self):
        sink = io.StringIO()
        tracer = Tracer(sink)
        tracer.emit("run_start", target="toy", mode="pmrace")
        tracer.emit("campaign", index=0, branch_total=5, alias_total=1,
                    status="ok")
        tracer.emit("run_end", duration_s=1.0, summary={"campaigns": 1})
        return sink.getvalue()

    def test_torn_tail_skipped_and_counted(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        text = self.make_trace_text()
        line = json.dumps({"type": "campaign", "index": 1, "t": 0,
                           "seq": 9})
        with open(path, "w") as handle:
            handle.write(text + line[: len(line) // 2])  # no newline
        summary = summarize_path(path)
        assert summary["torn_lines"] == 1
        assert summary["runs"] == 1
        assert summary["campaigns"] == 1
        assert "torn tail line(s) skipped: 1" in render_stats(summary)

    def test_intact_file_reports_zero_torn(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with open(path, "w") as handle:
            handle.write(self.make_trace_text())
        summary = summarize_path(path)
        assert summary["torn_lines"] == 0
        assert "torn tail" not in render_stats(summary)

    def test_garbage_only_file_still_errors(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with open(path, "w") as handle:
            handle.write("not json\n")
        with pytest.raises(ValueError, match="not JSON"):
            summarize_path(path)

    def test_corruption_before_tail_still_errors(self, tmp_path):
        """Only the *last* line may be torn; garbage with well-formed
        records after it means real corruption and must be loud."""
        path = str(tmp_path / "trace.jsonl")
        lines = self.make_trace_text().splitlines()
        with open(path, "w") as handle:
            handle.write(lines[0] + "\nGARBAGE\n" +
                         "\n".join(lines[1:]) + "\n")
        with pytest.raises(ValueError, match="not JSON"):
            summarize_path(path)


def test_switches_per_handoff_shown_next_to_handoffs():
    records = [
        {"type": "metric", "name": "scheduler.handoffs", "kind": "counter",
         "value": 200},
        {"type": "metric", "name": "scheduler.os_switches",
         "kind": "counter", "value": 250},
    ]
    summary = summarize_records(records)
    assert summary["switches_per_handoff"] == 1.25
    lines = render_stats(summary).splitlines()
    at = next(i for i, line in enumerate(lines)
              if "scheduler.handoffs" in line)
    assert "scheduler.os_switches" in lines[at + 1]
    assert "(1.25 per handoff)" in lines[at + 1]


def test_switches_per_handoff_absent_without_os_switches():
    summary = summarize_records([
        {"type": "metric", "name": "scheduler.handoffs", "kind": "counter",
         "value": 200}])
    assert summary["switches_per_handoff"] is None
    assert "per handoff" not in render_stats(summary)
