"""Metric catalogue, trajectory files and the ``--check`` comparison.

``BENCHMARK.json`` at the repository root is the single catalogue of
metric names, units, directions and bounds: every value a run emits is
looked up there, so an uncatalogued name fails loudly.
"""

import json
import os
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
#: Trajectory settings that must match before two trajectories compare.
COMPARED_SETTINGS = ("seed", "seconds", "runs")


def load_spec(path=SPEC_PATH):
    with open(path) as handle:
        return json.load(handle)


def catalogue(spec, section):
    """``{name: entry}`` for ``end_to_end`` or ``per_layer``."""
    return {entry["name"]: entry for entry in spec[section]}


def result_document(run, trace, spec):
    """The one-line JSON result of a run (the benchmark contract)."""
    section = "per_layer" if trace else "end_to_end"
    values = run.per_layer() if trace else run.end_to_end()
    table = catalogue(spec, section)
    unknown = sorted(set(values) - set(table))
    missing = sorted(set(table) - set(values))
    if unknown or missing:
        raise KeyError("metrics not matching BENCHMARK.json %s: unknown %s, "
                       "missing %s" % (section, unknown, missing))
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(values[name]),
                           "unit": table[name]["unit"]}
                    for name in table},
    }


def summarize(samples):
    """Samples with their median and quartiles (quartiles need two)."""
    median = statistics.median(samples)
    if len(samples) >= 2:
        q1, _q2, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = median
    return {"samples": list(samples), "median": median, "q1": q1, "q3": q3}


def workload_summary(runs, traced, spec):
    """Trajectory entry for one workload from its run documents."""
    entry = {"attempted": sum(r["attempted"] for r in runs + traced),
             "failed": sum(r["failed"] for r in runs + traced),
             "correct": all(r["correct"] for r in runs + traced)}
    for section, docs in (("end_to_end", runs), ("per_layer", traced)):
        entry[section] = {}
        if not docs:
            continue
        for name, meta in catalogue(spec, section).items():
            summary = summarize([d["metrics"][name]["value"] for d in docs])
            summary.update(unit=meta["unit"], better=meta["better"])
            if "bound" in meta:
                summary["bound"] = meta["bound"]
            entry[section][name] = summary
    return entry


def _spread(summary):
    median = abs(summary["median"])
    return (summary["q3"] - summary["q1"]) / median if median else 0.0


def judge(base, cand, bound, better):
    """One metric's verdict: better, same, worse or unresolved.

    * better: over at least ten (candidate, baseline) run pairs, the
      candidate wins at least 9 of 10 and its median is better by more
      than the baseline's quartile spread;
    * unresolved: either side's quartile spread is wider than the
      bound, unless every candidate run beats every baseline run;
    * worse: the median is worse by more than the bound.
    """
    sign = 1.0 if better == "higher" else -1.0
    scale = abs(base["median"]) or 1.0
    change = sign * (cand["median"] - base["median"]) / scale
    pairs = [sign * (c - b) for c in cand["samples"]
             for b in base["samples"]]
    wins = sum(1 for p in pairs if p > 0) / len(pairs)
    if len(pairs) >= 10 and wins >= 0.9 and change > _spread(base):
        return "better", change
    if max(_spread(base), _spread(cand)) > bound and min(pairs) <= 0:
        return "unresolved", change
    if -change > bound:
        return "worse", change
    return "same", change


def compare(baseline, candidate):
    """Rows ``(workload, metric, verdict, change)`` plus failures.

    A failure is any ``worse`` metric, a rise in the failed share or an
    incorrect candidate run.  Trajectories measured with a different
    seed, window or number of runs are not compared: that is a failure
    too, with no rows.
    """
    rows, failures = [], []
    for key in COMPARED_SETTINGS:
        if baseline.get(key) != candidate.get(key):
            failures.append("baseline %s is %r, this run's is %r" % (
                key, baseline.get(key), candidate.get(key)))
    if failures:
        return rows, failures
    for workload, cand in sorted(candidate["workloads"].items()):
        base = baseline["workloads"].get(workload)
        if base is None:
            continue
        if not cand["correct"]:
            failures.append("%s: a candidate run was incorrect" % workload)
        base_share = base["failed"] / max(base["attempted"], 1)
        cand_share = cand["failed"] / max(cand["attempted"], 1)
        if cand_share > base_share:
            failures.append("%s: failed share rose %.4f -> %.4f" % (
                workload, base_share, cand_share))
        for name, cand_metric in sorted(cand["end_to_end"].items()):
            base_metric = base["end_to_end"].get(name)
            if base_metric is None:
                continue
            verdict, change = judge(base_metric, cand_metric,
                                    cand_metric["bound"],
                                    cand_metric["better"])
            rows.append((workload, name, verdict, change))
            if verdict == "worse":
                failures.append("%s %s worse by %.1f%%" % (
                    workload, name, -100 * change))
    return rows, failures
