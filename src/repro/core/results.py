"""Result aggregation: the paper's tables rebuilt from RunResults.

The expected-bug catalog maps Table 2's 14 bugs onto code sites of the
re-implemented targets, so benchmark output can report found/missed per
paper bug alongside any additional findings.
"""

from ..detect.records import Verdict


class ExpectedBug:
    """One Table 2 row and how to recognize it in our reports.

    Attributes:
        bug_id: Paper bug number (1-14).
        target: Table 1 system name.
        kind: "inter", "intra", "sync", "candidate", or "hang".
        new: Whether the paper reported it as a new bug.
        write_site / read_site: Original code locations (documentation).
        matcher: Substring (or tuple of alternatives) that must appear in
            the found record's write/read site (or hang signature /
            candidate read).
        kinds: Record kinds accepted as a rediscovery; defaults to the
            paper's kind plus its intra/inter twin (a scheduling-dependent
            distinction for the same root cause).
        description / consequence: Table 2 text.
    """

    def __init__(self, bug_id, target, kind, new, write_site, read_site,
                 matcher, description, consequence, kinds=None):
        self.bug_id = bug_id
        self.target = target
        self.kind = kind
        self.new = new
        self.write_site = write_site
        self.read_site = read_site
        self.matcher = (matcher,) if isinstance(matcher, str) else \
            tuple(matcher)
        if kinds is None:
            if kind in ("inter", "intra"):
                kinds = ("inter", "intra")
            else:
                kinds = (kind,)
        self.kinds = tuple(kinds)
        self.description = description
        self.consequence = consequence


EXPECTED_BUGS = (
    ExpectedBug(1, "P-CLHT", "inter", True, "clht_lb_res.c:785",
                "clht_lb_res.c:417", "pclht:_resize",
                "read unflushed table pointer and insert items",
                "data loss"),
    ExpectedBug(2, "P-CLHT", "sync", True, "clht_lb_res.c:429", "-",
                "bucket_lock",
                "do not initialize bucket locks after restarts", "hang"),
    ExpectedBug(3, "P-CLHT", "intra", True, "clht_lb_res.c:789",
                "clht_gc.c:190", "pclht:_resize",
                "read unflushed table pointer and perform GC",
                "PM leakage"),
    ExpectedBug(4, "P-CLHT", "candidate", True, "clht_lb_res.c:321",
                "clht_lb_res.c:616", "pclht:get",
                "read unflushed keys", "redundant PM writes"),
    ExpectedBug(5, "P-CLHT", "hang", True, "clht_lb_res.c:526", "-",
                "pm_lock:bucket",
                "do not release bucket locks in update", "hang"),
    ExpectedBug(6, "CCEH", "sync", True, "CCEH.h:86", "-", "segment_lock",
                "do not release segment locks after restarts", "hang"),
    ExpectedBug(7, "CCEH", "intra", True, "CCEH.h:165", "CCEH.cpp:171",
                "cceh:_double_directory",
                "read unflushed capacity and allocate segments",
                "PM leakage"),
    ExpectedBug(8, "FAST-FAIR", "inter", True, "btree.h:560", "btree.h:876",
                "fastfair:_split_leaf",
                "read unflushed pointer and insert data", "data loss"),
    ExpectedBug(9, "memcached-pmem", "inter", True, "memcached.c:4292",
                "memcached.c:2805", "memcached:_write_value",
                "read unflushed value and write value", "inconsistent data"),
    ExpectedBug(10, "memcached-pmem", "inter", True, "memcached.c:4293",
                "memcached.c:2805",
                ("memcached:cmd_arith", "memcached:cmd_store"),
                "read unflushed value and write value", "inconsistent data"),
    ExpectedBug(11, "memcached-pmem", "inter", False, "items.c:423",
                "items.c:464",
                ("memcached:_set_prev", "memcached:_lru_unlink"),
                "read unflushed 'prev' and write 'slabs_clsid'",
                "inconsistent index"),
    ExpectedBug(12, "memcached-pmem", "inter", False, "slabs.c:549",
                "slabs.c:412",
                ("memcached:_set_next", "memcached:_lru_link_head"),
                "read unflushed 'next' and write 'it_flags' or value",
                "inconsistent index"),
    ExpectedBug(13, "memcached-pmem", "inter", False, "items.c:1096",
                "memcached.c:2824", "memcached:cmd_get",
                "read unflushed 'it_flags' and write value",
                "inconsistent data"),
    ExpectedBug(14, "memcached-pmem", "inter", False, "items.c:627",
                "items.c:623",
                ("memcached:_evict_tail", "memcached:_alloc_item"),
                "read unflushed 'slabs_clsid' and write 'slabs_clsid'",
                "inconsistent index"),
)

#: The full seeded-bug matrix: the paper's 14 bugs plus the bugs seeded
#: in the SDK extension targets. ``build_table2`` reports the paper
#: catalog only; the bug-matrix harness
#: (``tests/integration/test_bug_matrix.py``) covers this one.
SEEDED_BUGS = EXPECTED_BUGS + (
    ExpectedBug(15, "pmring", "inter", True, "pmring.c:201", "pmring.c:258",
                ("pmring:push", "pmring:pop"),
                "read unfenced slot publication and log consumed cursor",
                "lost element"),
    ExpectedBug(16, "txkv", "inter", True, "txkv.c:144", "txkv.c:210",
                ("txkv:_bump_gen", "txkv:stat"),
                "read unflushed out-of-tx generation and log snapshot",
                "inconsistent metadata"),
)


def expected_bugs_for(target_name):
    return [bug for bug in SEEDED_BUGS if bug.target == target_name]


def match_expected(expected, result):
    """True if ``result`` (a RunResult) exhibits the expected bug."""
    def hit(text):
        return any(needle in text for needle in expected.matcher)

    if expected.kind == "candidate":
        return any(hit(c.read_instr or "") for c in result.candidates)
    if expected.kind == "hang":
        return any(any(hit(reason) for reason in hang.signature())
                   for hang in result.hangs)
    for report in result.bug_reports:
        if report.kind not in expected.kinds:
            continue
        sites = "%s %s" % (report.write_instr or "", report.read_instr or "")
        if expected.kind == "sync":
            sites += " " + " ".join(
                getattr(record, "annotation_name", "")
                for record in report.records)
        if hit(sites):
            return True
    return False


# ----------------------------------------------------------------------
# table builders (results: dict of target name -> RunResult)

def build_table2(results):
    """Per-bug found/missed rows in Table 2's format."""
    rows = []
    for bug in EXPECTED_BUGS:
        result = results.get(bug.target)
        found = match_expected(bug, result) if result is not None else False
        rows.append({
            "#": bug.bug_id,
            "system": bug.target,
            "type": {"inter": "Inter", "intra": "Intra", "sync": "Sync",
                     "candidate": "Other", "hang": "Other"}[bug.kind],
            "new": "Y" if bug.new else "N",
            "write_code": bug.write_site,
            "read_code": bug.read_site,
            "description": bug.description,
            "consequence": bug.consequence,
            "found": "FOUND" if found else "missed",
        })
    return rows


def _bug_groups(result, kind):
    return [r for r in result.bug_reports if r.kind == kind]


def _inter_pairs(result):
    """Unique (write site, read site) pairs among inter inconsistencies —
    the same granularity candidates are counted at, so Inter ≤ Inter-Cand
    as in the paper's Table 3."""
    return {(r.write_instr, r.read_instr)
            for r in result.inter_inconsistencies}


def _fp_pairs(result, verdicts):
    return {(r.write_instr, r.read_instr)
            for r in result.inter_inconsistencies if r.verdict in verdicts}


def build_table3(results):
    """Detection/false-positive accounting in Table 3's format."""
    rows = []
    totals = dict.fromkeys(
        ("inter_cand", "inter", "validated_fp", "whitelisted_fp",
         "inter_bug", "annotation", "sync", "sync_validated_fp",
         "sync_bug"), 0)
    for name, result in results.items():
        row = {
            "system": name,
            "inter_cand": len(result.inter_candidates),
            "inter": len(_inter_pairs(result)),
            "validated_fp": len(_fp_pairs(result,
                                          (Verdict.VALIDATED_FP,))),
            "whitelisted_fp": len(_fp_pairs(result,
                                            (Verdict.WHITELISTED_FP,))),
            "inter_bug": len(_bug_groups(result, "inter")),
            "annotation": result.annotation_count,
            "sync": len(result.sync_inconsistencies),
            "sync_validated_fp": sum(
                1 for r in result.sync_inconsistencies
                if r.verdict is Verdict.VALIDATED_FP),
            "sync_bug": len(_bug_groups(result, "sync")),
        }
        rows.append(row)
        for key in totals:
            totals[key] += row[key]
    totals["system"] = "Total"
    rows.append(totals)
    return rows


def build_table5(results):
    """Unique-bug summary ("n|m" = new|total) in Table 5's format."""
    rows = []
    total = {"inter": [0, 0], "sync": [0, 0], "intra": [0, 0],
             "other": [0, 0]}
    for name, result in results.items():
        counts = {"inter": [0, 0], "sync": [0, 0], "intra": [0, 0],
                  "other": [0, 0]}
        for bug in expected_bugs_for(name):
            if not match_expected(bug, result):
                continue
            key = bug.kind if bug.kind in ("inter", "sync", "intra") \
                else "other"
            counts[key][1] += 1
            total[key][1] += 1
            if bug.new:
                counts[key][0] += 1
                total[key][0] += 1
        row = {"system": name}
        for key in ("inter", "sync", "intra", "other"):
            row[key] = "%d|%d" % tuple(counts[key]) if counts[key][1] \
                else "-"
        row["total"] = "%d|%d" % (sum(v[0] for v in counts.values()),
                                  sum(v[1] for v in counts.values()))
        row["extra_findings"] = max(
            0, len(result.bug_reports)
            - sum(v[1] for v in counts.values()))
        rows.append(row)
    rows.append({
        "system": "Total",
        **{key: "%d|%d" % tuple(total[key])
           for key in ("inter", "sync", "intra", "other")},
        "total": "%d|%d" % (sum(v[0] for v in total.values()),
                            sum(v[1] for v in total.values())),
        "extra_findings": sum(r["extra_findings"] for r in rows),
    })
    return rows


def build_table6(results):
    """Inconsistency/FP summary in Table 6's (artifact) format."""
    rows = []
    for name, result in results.items():
        rows.append({
            "system": name,
            "inter_cand": len(result.inter_candidates),
            "inter": len(_inter_pairs(result)),
            "sync": len(result.sync_inconsistencies),
            "fp_inter": len(_fp_pairs(result, (Verdict.VALIDATED_FP,
                                               Verdict.WHITELISTED_FP))),
            "fp_sync": sum(1 for r in result.sync_inconsistencies
                           if r.verdict is Verdict.VALIDATED_FP),
            "bug": len(result.bug_reports),
        })
    return rows


def count_repro_bundles(result):
    """Kept records carrying a repro bundle (``--repro-dir`` capture)."""
    return sum(1 for record in list(result.inconsistencies)
               + list(result.sync_inconsistencies)
               if getattr(record, "bundle", None) is not None)


def build_worker_table(result):
    """One row per worker of a parallel run's ``worker_stats``."""
    rows = []
    for stats in result.worker_stats:
        rows.append({
            "worker": stats.worker_id,
            "seed": stats.seed,
            "status": stats.status,
            "campaigns": stats.campaigns,
            "duration_s": "%.2f" % stats.duration,
            "execs_per_s": "%.1f" % stats.execs_per_sec,
            "error": (stats.error or "").strip().splitlines()[-1]
            if stats.error else "",
        })
    return rows


def render_table(rows, columns=None, title=None):
    """Plain-text table renderer for benchmark output."""
    if not rows:
        return "(empty table)"
    columns = columns or list(rows[0].keys())
    widths = {col: max(len(str(col)),
                       max(len(str(row.get(col, ""))) for row in rows))
              for col in columns}
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(str(col).ljust(widths[col]) for col in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[col] for col in columns))
    for row in rows:
        lines.append(" | ".join(
            str(row.get(col, "")).ljust(widths[col]) for col in columns))
    return "\n".join(lines)
