"""``repro stats``: summarize trace / metrics JSONL files.

Consumes anything the observability layer writes — a ``--trace-out``
event stream, a ``--metrics-out`` registry dump, or a file mixing both
record shapes — and reduces it to the quantities the paper's evaluation
argues with: coverage growth, candidate discovery rate, and validation
verdict ratios. A metrics dump that holds ``scheduler.os_switches`` also
gets OS context switches per scheduler handoff.
"""

import json

from .tracer import EVENT_TYPES, SCHEMA_VERSION, validate_record


def _load_lines(path, torn_counter=None):
    """Yield JSONL records; tolerate a torn *tail* line.

    A file whose final line is half-written is the normal state of a
    ``--trace-out``/``--metrics-out`` sink after SIGKILL — the process
    died mid-append.  Such tail lines are counted into ``torn_counter``
    (a one-element list) and skipped, *provided* at least one record
    decoded before them; a file that yields nothing but garbage is still
    an error, not a torn trace.
    """
    decoded = 0
    pending = None  # (number, exc) of a bad line awaiting a successor
    with open(path) as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            if pending is not None:
                # The bad line has well-formed lines after it: not a
                # torn tail, genuinely corrupt.
                raise ValueError("%s:%d: not JSON: %s" % pending)
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                pending = (path, number, exc)
                continue
            decoded += 1
            yield record
    if pending is not None:
        if not decoded:
            raise ValueError("%s:%d: not JSON: %s" % pending)
        if torn_counter is not None:
            torn_counter[0] += 1


def summarize_records(records):
    """Reduce an iterable of trace/metric records to a summary dict."""
    summary = {
        "records": 0,
        "torn_lines": 0,
        "events_by_type": {},
        "runs": 0,
        "campaigns": 0,
        "duration_s": 0.0,
        "coverage": None,
        "candidates": 0,
        "inconsistencies": 0,
        "candidate_rate": None,
        "verdicts": {},
        "verdict_ratios": {},
        "interleavings": 0,
        "seeds": 0,
        "workers": {},
        "metrics": {},
        "switches_per_handoff": None,
    }
    first_cov = last_cov = None
    for record in records:
        rtype = record.get("type")
        if rtype in EVENT_TYPES:
            validate_record(record)
        elif rtype not in ("metrics_header", "metric"):
            raise ValueError("unknown record type %r" % (rtype,))
        summary["records"] += 1
        by_type = summary["events_by_type"]
        by_type[rtype] = by_type.get(rtype, 0) + 1
        if rtype == "run_start":
            summary["runs"] += 1
        elif rtype == "run_end":
            run = record.get("summary", {})
            summary["campaigns"] += run.get("campaigns", 0)
            summary["duration_s"] += record.get("duration_s", 0.0)
        elif rtype == "seed_start":
            summary["seeds"] += 1
        elif rtype == "interleaving":
            summary["interleavings"] += 1
        elif rtype == "campaign":
            point = (record.get("branch_total", 0),
                     record.get("alias_total", 0))
            if first_cov is None:
                first_cov = point
            last_cov = point
        elif rtype == "candidate":
            summary["candidates"] += 1
        elif rtype == "inconsistency":
            summary["inconsistencies"] += 1
        elif rtype == "verdict":
            verdict = record.get("verdict", "?")
            summary["verdicts"][verdict] = \
                summary["verdicts"].get(verdict, 0) + 1
        elif rtype == "worker":
            status = record.get("status", "?")
            summary["workers"][status] = \
                summary["workers"].get(status, 0) + 1
        elif rtype == "metric":
            summary["metrics"][record["name"]] = {
                key: value for key, value in record.items()
                if key not in ("type", "name")}
        elif rtype == "metrics_header":
            if record.get("schema") != SCHEMA_VERSION:
                raise ValueError("unsupported metrics schema %r"
                                 % (record.get("schema"),))
    if first_cov is not None:
        summary["coverage"] = {
            "branch_first": first_cov[0], "branch_last": last_cov[0],
            "branch_growth": last_cov[0] - first_cov[0],
            "alias_first": first_cov[1], "alias_last": last_cov[1],
            "alias_growth": last_cov[1] - first_cov[1],
        }
    if summary["campaigns"]:
        summary["candidate_rate"] = round(
            summary["candidates"] / summary["campaigns"], 4)
    handoffs = summary["metrics"].get("scheduler.handoffs", {}).get("value")
    switches = summary["metrics"].get("scheduler.os_switches", {}) \
        .get("value")
    if handoffs and switches is not None:
        summary["switches_per_handoff"] = round(switches / handoffs, 4)
    total_verdicts = sum(summary["verdicts"].values())
    if total_verdicts:
        summary["verdict_ratios"] = {
            verdict: round(count / total_verdicts, 4)
            for verdict, count in sorted(summary["verdicts"].items())}
    return summary


def summarize_path(path):
    """Summarize one JSONL file written by the observability layer.

    A torn tail line (the file's writer was SIGKILLed mid-append) is
    skipped and surfaced as ``torn_lines`` in the summary instead of
    failing the whole summarization.
    """
    torn = [0]
    summary = summarize_records(_load_lines(path, torn_counter=torn))
    summary["torn_lines"] = torn[0]
    return summary


def _format_metric(name, data):
    if data.get("kind") == "histogram":
        count = data.get("count", 0)
        mean = data.get("sum", 0.0) / count if count else 0.0
        return "  %-32s histogram n=%d mean=%.4g" % (name, count, mean)
    return "  %-32s %s %s" % (name, data.get("kind", "?"),
                              data.get("value"))


def render_stats(summary):
    """Human-readable report for one summary dict."""
    lines = ["observability stats (%d records)" % summary["records"]]
    if summary.get("torn_lines"):
        lines.append("torn tail line(s) skipped: %d (writer was killed "
                     "mid-append)" % summary["torn_lines"])
    events = summary["events_by_type"]
    if events:
        lines.append("record types: " + ", ".join(
            "%s=%d" % (rtype, count)
            for rtype, count in sorted(events.items())))
    if summary["runs"]:
        lines.append("runs: %d  campaigns: %d  duration: %.2fs"
                     % (summary["runs"], summary["campaigns"],
                        summary["duration_s"]))
    coverage = summary["coverage"]
    if coverage is not None:
        lines.append("coverage growth: branch %d -> %d (+%d), "
                     "alias %d -> %d (+%d)"
                     % (coverage["branch_first"], coverage["branch_last"],
                        coverage["branch_growth"], coverage["alias_first"],
                        coverage["alias_last"], coverage["alias_growth"]))
    if summary["candidates"] or summary["inconsistencies"]:
        rate = "" if summary["candidate_rate"] is None else \
            " (%.4f per campaign)" % summary["candidate_rate"]
        lines.append("candidates: %d%s  confirmed inconsistencies: %d"
                     % (summary["candidates"], rate,
                        summary["inconsistencies"]))
    if summary["verdicts"]:
        lines.append("verdicts: " + ", ".join(
            "%s=%d (%.0f%%)" % (verdict, count,
                                100 * summary["verdict_ratios"][verdict])
            for verdict, count in sorted(summary["verdicts"].items())))
    if summary["workers"]:
        lines.append("worker attempts: " + ", ".join(
            "%s=%d" % (status, count)
            for status, count in sorted(summary["workers"].items())))
    if summary["metrics"]:
        lines.append("metrics (%d):" % len(summary["metrics"]))
        for name, data in sorted(summary["metrics"].items()):
            line = _format_metric(name, data)
            if name == "scheduler.os_switches" and \
                    summary["switches_per_handoff"] is not None:
                line += " (%.2f per handoff)" % summary["switches_per_handoff"]
            lines.append(line)
    return "\n".join(lines)
