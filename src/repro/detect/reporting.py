"""Bug-report serialization and whitelist file I/O.

The original tool writes a detailed report per inconsistency (stack
traces + the seed that triggered it) and lets developers maintain the
whitelist as a file of code locations. These helpers provide the same
workflow: dump a RunResult's findings as JSON, and load/save whitelists
as plain text (one location per line, ``#`` comments).
"""

import json

from .records import (
    BugReport,
    CandidateRecord,
    InconsistencyRecord,
    SyncInconsistencyRecord,
)
from .whitelist import DEFAULT_WHITELIST, Whitelist


def record_to_dict(record):
    """JSON-safe dict for any detection record type."""
    if isinstance(record, CandidateRecord):
        return {
            "type": "candidate",
            "kind": record.kind,
            "addr": record.addr,
            "size": record.size,
            "read_code": record.read_instr,
            "write_code": record.write_instr,
            "reader_tid": record.reader_tid,
            "writer_tid": record.writer_tid,
            "stack": list(record.stack or ()),
        }
    if isinstance(record, InconsistencyRecord):
        return {
            "type": "inconsistency",
            "kind": record.kind,
            "write_code": record.write_instr,
            "read_code": record.read_instr,
            "side_effect_code": record.side_effect_instr,
            "side_effect_addr": record.side_effect_addr,
            "side_effect_size": record.side_effect_size,
            "data_flow": "address" if record.address_flow else "content",
            "verdict": record.verdict.value,
            "note": record.note,
            "stack": list(record.stack or ()),
            "has_repro_bundle": getattr(record, "bundle", None) is not None,
        }
    if isinstance(record, SyncInconsistencyRecord):
        return {
            "type": "sync_inconsistency",
            "kind": "sync",
            "annotation": record.annotation_name,
            "addr": record.addr,
            "expected_init": record.init_val,
            "observed_value": int(record.new_value)
            if isinstance(record.new_value, int) else None,
            "update_code": record.instr_id,
            "verdict": record.verdict.value,
            "note": record.note,
            "has_repro_bundle": getattr(record, "bundle", None) is not None,
        }
    raise TypeError("cannot serialize %r" % (record,))


def report_to_dict(report):
    """JSON-safe dict for one :class:`BugReport`."""
    members = []
    for record in report.records:
        try:
            members.append(record_to_dict(record))
        except TypeError:
            members.append({"type": "hang",
                            "blocked_on": sorted(record.signature())})
    return {
        "bug_id": report.bug_id,
        "target": report.target,
        "kind": report.kind,
        "write_code": report.write_instr,
        "read_code": report.read_instr,
        "description": report.description,
        "seed": report.seed,
        "records": members,
    }


def dump_run_result(result, path):
    """Write a RunResult's findings as a JSON report file; returns path."""
    payload = {
        "target": result.target_name,
        "campaigns": result.campaigns,
        "duration_s": round(result.duration, 3),
        "summary": result.summary(),
        "bugs": [report_to_dict(report) for report in result.bug_reports],
        "inconsistencies": [record_to_dict(r)
                            for r in result.inconsistencies],
        "sync_inconsistencies": [record_to_dict(r)
                                 for r in result.sync_inconsistencies],
        "candidates": [record_to_dict(c) for c in result.candidates],
        "workers": [stats.to_dict()
                    for stats in getattr(result, "worker_stats", ())],
        "corpus_digests": sorted(
            entry["digest"]
            for entry in getattr(result, "corpus_seeds", ())),
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
    return path


def load_run_report(path):
    """Load a JSON report written by :func:`dump_run_result`."""
    with open(path) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# whitelist files

def save_whitelist(whitelist, path):
    """Write a whitelist as text: one location per line."""
    with open(path, "w") as handle:
        handle.write("# PMRace whitelist: code locations whose reads of\n"
                     "# non-persisted data are crash-consistent (§4.4).\n")
        for entry in whitelist.entries:
            handle.write(entry + "\n")
    return path


def load_whitelist(path, include_defaults=True):
    """Read a whitelist file; blank lines and ``#`` comments ignored."""
    entries = list(DEFAULT_WHITELIST) if include_defaults else []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line not in entries:
                entries.append(line)
    return Whitelist(entries)
