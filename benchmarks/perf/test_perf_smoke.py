"""Smoke tests of the perf ledger itself (``pytest benchmarks/perf``).

Not part of tier-1 (``testpaths`` is ``tests``): they check the benchmark,
not the product — that every metric named in ``BENCHMARK.json`` is emitted
once per workload with a finite value and its unit, that the timing
wrappers come off cleanly, and that spans nest and add up.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run  # noqa: F401  (puts src/ and this directory on sys.path)
import perf_harness
import perf_tracing
import perf_workloads

SPEC = json.loads(run.SPEC_PATH.read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _measure(name: str, trace: bool) -> dict:
    workload = perf_workloads.WORKLOADS[name](seed=7, smoke=True)
    return perf_harness.measure(workload, seconds=0.0, trace=trace, passes=workload.smoke_passes)


@pytest.fixture(scope="module")
def traced_reports() -> dict:
    return {name: _measure(name, trace=True) for name in WORKLOAD_NAMES}


def test_spec_lists_what_the_code_emits():
    assert WORKLOAD_NAMES == list(perf_workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(
        perf_harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        perf_harness.PER_LAYER)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert SPEC["paths"] == ["benchmarks/perf"]


def _assert_metrics(report: dict, expected) -> None:
    assert report["failed"] == 0, report["errors"]
    assert report["attempted"] >= 30
    metrics = report["metrics"]
    assert list(metrics) == [name for name, _, _ in expected]
    for name, unit, _ in expected:
        assert metrics[name]["unit"] == unit
        assert math.isfinite(metrics[name]["value"]), name


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_untraced_run_emits_every_end_to_end_metric(name):
    report = _measure(name, trace=False)
    _assert_metrics(report, perf_harness.END_TO_END)
    assert all(report["metrics"][m]["value"] > 0 for m, _, _ in perf_harness.END_TO_END)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_run_emits_every_per_layer_metric(name, traced_reports):
    _assert_metrics(traced_reports[name], perf_harness.PER_LAYER)


def test_counts_repeat_exactly_on_the_same_seed(traced_reports):
    again = _measure("readsession_drain", trace=True)["metrics"]
    first = traced_reports["readsession_drain"]["metrics"]
    for name, unit, _ in perf_harness.PER_LAYER:
        if unit in ("1/op", "ratio", "count") and not name.startswith("bench."):
            assert again[name]["value"] == first[name]["value"], name
    assert again["sim.metastore_ms_per_op"] == first["sim.metastore_ms_per_op"]


def test_bypassed_layers_read_zero(traced_reports):
    dashboard = traced_reports["dashboard_hot"]["metrics"]
    assert dashboard["formats.decode_ms_per_op"]["value"] == 0
    assert dashboard["sql.parse_expression_ms_per_op"]["value"] == 0
    assert dashboard["cache.result_hit_ratio"]["value"] == 1.0
    drains = traced_reports["readsession_drain"]["metrics"]
    assert drains["engine.operators_self_ms_per_op"]["value"] == 0
    assert drains["serving.jobs_per_op"]["value"] == 0
    ingest = traced_reports["txn_ingest"]["metrics"]
    assert ingest["txn.attempts_per_commit"]["value"] >= 1.0
    assert ingest["core.write_amp"]["value"] > 1.0


def _attribute(holder, attr):
    return vars(holder)[attr]


def test_install_then_uninstall_restores_every_attribute():
    recorder = perf_tracing.Recorder()
    recorder.install()
    patched = recorder.patched_attributes()
    try:
        assert len(patched) >= len(perf_tracing.TARGETS)
        assert all(_attribute(holder, attr) is not original for holder, attr, original in patched)
        # A function imported by name elsewhere is wrapped there too.
        import repro.sql.parser
        import repro.storageapi.read_api

        assert repro.storageapi.read_api.parse_expression is repro.sql.parser.parse_expression
    finally:
        recorder.uninstall()
    assert all(_attribute(holder, attr) is original for holder, attr, original in patched)
    assert recorder.patched_attributes() == []


def test_spans_nest_and_self_times_add_up(traced_reports):
    for name, report in traced_reports.items():
        spans = report["spans"]
        assert spans, name
        for index, span in enumerate(spans):
            parent = span[perf_tracing.PARENT]
            assert span[perf_tracing.START] <= span[perf_tracing.END]
            if parent >= 0:
                assert parent < index
                outer = spans[parent]
                assert outer[perf_tracing.START] <= span[perf_tracing.START]
                assert span[perf_tracing.END] <= outer[perf_tracing.END]
                assert outer[perf_tracing.OP] == span[perf_tracing.OP]
        recorder = perf_tracing.Recorder()
        recorder.spans = spans
        # Self times of an op's spans add up to what its outermost spans
        # cover; the rest of the op's wall time is the unattributed share.
        self_ns = sum(recorder.self_times_ns(ops_only=True).values())
        covered_ns = sum(recorder.top_level_ns_by_op().values())
        assert self_ns == covered_ns
        assert covered_ns <= report["traced_op_wall_ns"]
    adhoc = traced_reports["adhoc_cold"]
    covered = sum(_recorder(adhoc).top_level_ns_by_op().values())
    assert covered >= 0.99 * adhoc["traced_op_wall_ns"]


def _recorder(report: dict) -> perf_tracing.Recorder:
    recorder = perf_tracing.Recorder()
    recorder.spans = report["spans"]
    return recorder


def test_command_line_contract(tmp_path):
    command = SPEC["command"] + [
        "--workload", "txn_ingest", "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke"]
    done = subprocess.run(
        [sys.executable] + command[1:], cwd=run.ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _, _ in perf_harness.END_TO_END]

    # Without the program under test there is nothing to measure: the same
    # command must fail, and print no result.
    bare = tmp_path / "bare"
    shutil.copytree(run.HERE, bare / "benchmarks" / "perf")
    shutil.copy(run.SPEC_PATH, bare / "BENCHMARK.json")
    failed = subprocess.run(
        [sys.executable] + command[1:], cwd=bare, capture_output=True, text=True)
    assert failed.returncode != 0
    assert not failed.stdout.strip().startswith("{")
