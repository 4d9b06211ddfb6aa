"""Self-test of the benchmark harness, on tiny budgets.

Run from the repository root::

    python3 -m pytest pmbench/test_pmbench.py
"""

import copy
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import layertrace  # noqa: E402
import report  # noqa: E402
import workloads  # noqa: E402
from repro.instrument.hooks import PmView  # noqa: E402

#: Campaigns per session for the fuzz workloads; validate runs 2 passes.
TINY = {"pclht": 4, "memcached": 4, "pmring": 10}


def tiny_run(name, trace):
    return workloads.run(name, 7, 0, trace=trace,
                         units=2 if name == "validate" else 1,
                         campaigns=TINY.get(name))


@pytest.fixture(scope="module")
def traced():
    return {name: tiny_run(name, True) for name in workloads.WORKLOADS}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_matches_untraced(traced, name):
    run = traced[name]
    assert run.correct, run.problems
    assert len(run.traced) == len(run.plain)
    for plain, twin in zip(run.plain, run.traced):
        assert twin.fingerprint == plain.fingerprint
        assert twin.verdicts == plain.verdicts
        assert plain.steps == twin.steps


def test_fingerprint_catches_a_shifted_frame_walk():
    """Wrapping a PmView method breaks the rule the tracer obeys: the
    wrapper frame becomes the call site, and the fingerprint shows it."""
    spec = workloads.FUZZ_WORKLOADS["pmring"]
    plain = workloads.fuzz_session(spec, 7, 3)
    timeline = layertrace.Timeline()
    with layertrace.Patch(timeline, ((PmView, ("load_u64",), "bad"),)):
        shifted = workloads.fuzz_session(spec, 7, 3)
    assert shifted.fingerprint != plain.fingerprint


def test_patch_restores_class_attributes():
    missing = object()
    before = {(owner, name): vars(owner).get(name, missing)
              for owner, names, _layer in layertrace.SPANS for name in names}
    with layertrace.Patch(layertrace.Timeline()):
        for (owner, name), original in before.items():
            assert vars(owner).get(name, missing) is not original
    after = {(owner, name): vars(owner).get(name, missing)
             for owner, name in before}
    assert after == before


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_layers_sum_to_traced_wall_time(traced, name):
    assert traced[name].layer_sum_error() < 0.01


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_emitted_name_is_catalogued(traced, name):
    spec = report.load_spec()
    run = traced[name]
    assert set(run.end_to_end()) == set(report.catalogue(spec, "end_to_end"))
    assert set(run.per_layer()) == set(report.catalogue(spec, "per_layer"))
    for trace in (0, 1):
        doc = report.result_document(run, trace, spec)
        assert set(doc) == {"correct", "attempted", "failed", "metrics"}


def test_benchmark_json_follows_its_contract():
    spec = report.load_spec()
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    entries = spec["end_to_end"] + spec["per_layer"] + spec["workloads"]
    names = [entry["name"] for entry in entries]
    assert all(name.match(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for entry in spec["end_to_end"]:
        assert 0 <= entry["bound"] <= 0.25
    setup = report.catalogue(spec, "end_to_end")["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in spec["end_to_end"])


def _trajectory(scale=1.0):
    spec = report.load_spec()
    runs = []
    for jitter in (0.99, 1.0, 1.01, 1.0, 0.995):
        metrics = {}
        for entry in spec["end_to_end"]:
            value = 10.0 * jitter
            if entry["name"] != "bugs_per_session":
                value *= scale if entry["better"] == "lower" else 1 / scale
            else:
                value = 5.0
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        runs.append({"correct": True, "attempted": 100, "failed": 0,
                     "metrics": metrics})
    return {"seed": 7, "seconds": spec["run_seconds"], "runs": len(runs),
            "workloads": {"pmring": report.workload_summary(runs, [], spec)}}


def test_check_passes_an_identical_copy():
    base = _trajectory()
    rows, failures = report.compare(base, copy.deepcopy(base))
    assert not failures
    assert {verdict for _w, _m, verdict, _c in rows} == {"same"}


def test_check_flags_a_twenty_percent_regression():
    rows, failures = report.compare(_trajectory(), _trajectory(scale=1.2))
    verdicts = {metric: verdict for _w, metric, verdict, _c in rows}
    moved = [entry["name"] for entry in report.load_spec()["end_to_end"]
             if entry["name"] != "bugs_per_session"]
    assert {name: verdicts[name] for name in moved} == dict.fromkeys(
        moved, "worse")
    assert len(failures) == len(moved)


@pytest.mark.parametrize("key", report.COMPARED_SETTINGS)
def test_check_refuses_a_baseline_with_other_settings(key):
    base = _trajectory()
    cand = copy.deepcopy(base)
    cand[key] += 1
    rows, failures = report.compare(base, cand)
    assert not rows
    assert failures and key in failures[0]


def test_check_flags_a_rise_in_failed_share():
    base = _trajectory()
    cand = copy.deepcopy(base)
    cand["workloads"]["pmring"]["failed"] = 1
    _rows, failures = report.compare(base, cand)
    assert any("failed share" in failure for failure in failures)


def test_command_prints_one_result_line():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "validate", "--seed", "3", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["correct"] and doc["attempted"] >= 1 and doc["failed"] == 0
    assert doc["metrics"]["bugs_per_session"]["value"] == 4
