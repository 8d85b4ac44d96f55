"""The measurement loop, and the metric definitions, of the perf ledger.

One run = one workload in one process and one thread (closed loop, one
client). Set-up is timed on its own, then whole passes of the workload run
until ``seconds`` of *timed* wall clock are used. Only the calls into the
system are timed; building inputs and checking answers happen between timed
segments. With ``trace`` on, passes alternate untraced / traced — the traced
ones under the wrappers of :mod:`perf_tracing` — so the tracing overhead is
the ratio of neighbouring passes on the same state, and the per-layer
numbers come from the traced passes only. End-to-end metrics are only ever
reported from runs with tracing off.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any

import numpy as np

from perf_tracing import Recorder
from repro.obs.trace import summarize_trace
from repro.simtime import MIB

# -- metric tables ----------------------------------------------------------
# (name, unit, better). BENCHMARK.json repeats these with the bounds; the
# smoke test keeps the two in step.

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p95", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("cpu_ms_per_op", "ms", "lower"),
    ("sim_ms_per_op", "ms", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)

# Span name -> the ``<span>_ms_per_op`` metric it feeds (self time / ops).
SELF_TIME_METRICS = {
    "sql.tokenize": "sql.tokenize_ms_per_op",
    "sql.parse_statement": "sql.parse_statement_ms_per_op",
    "sql.parse_expression": "sql.parse_expression_ms_per_op",
    "sql.extract_constraints": "sql.extract_constraints_ms_per_op",
    "engine.plan": "engine.plan_ms_per_op",
    "engine.optimize": "engine.optimize_ms_per_op",
    "engine.operators": "engine.operators_self_ms_per_op",
    "engine.scheduler": "engine.scheduler_ms_per_op",
    "cache.plan_lookup": "cache.plan_lookup_ms_per_op",
    "cache.result_lookup": "cache.result_lookup_ms_per_op",
    "cache.data_lookup": "cache.data_lookup_ms_per_op",
    "storageapi.session_create": "storageapi.session_create_self_ms_per_op",
    "storageapi.serialize": "storageapi.serialize_ms_per_op",
    "storageapi.attach": "storageapi.attach_ms_per_op",
    "storageapi.read_rows": "storageapi.read_rows_self_ms_per_op",
    "storageapi.superluminal_compile": "storageapi.superluminal_compile_ms_per_op",
    "storageapi.superluminal_process": "storageapi.superluminal_process_ms_per_op",
    "storageapi.drain": "storageapi.drain_self_ms_per_op",
    "formats.footer": "formats.footer_ms_per_op",
    "formats.decode": "formats.decode_ms_per_op",
    "formats.encode": "formats.encode_ms_per_op",
    "metastore.prune": "metastore.prune_ms_per_op",
    "metastore.commit": "metastore.commit_ms_per_op",
    "metastore.catalog_resolve": "metastore.catalog_resolve_ms_per_op",
    "security.iam": "security.iam_ms_per_op",
    "security.policy_resolve": "security.policy_resolve_ms_per_op",
    "security.audit": "security.audit_ms_per_op",
    "serving.submit": "serving.submit_ms_per_op",
    "serving.drain": "serving.drain_self_ms_per_op",
    "serving.pool_run": "serving.pool_run_self_ms_per_op",
    "obs.history": "obs.history_ms_per_op",
    "obs.monitor": "obs.monitor_ms_per_op",
    "txn.begin": "txn.begin_ms_per_op",
    "txn.execute": "txn.execute_ms_per_op",
    "txn.log": "txn.log_ms_per_op",
    "core.dml": "core.dml_self_ms_per_op",
    "core.rewrite_rows": "core.rewrite_rows_ms_per_op",
}

_OBJECTSTORE_SPANS = (
    "objectstore.get", "objectstore.put", "objectstore.cas_put",
    "objectstore.list", "objectstore.other",
)
_SIM_LAYERS = ("engine", "formats", "metastore", "objectstore", "scheduler", "storageapi")

PER_LAYER = tuple(
    [(name, "ms", "lower") for name in SELF_TIME_METRICS.values()]
    + [(f"sim.{layer}_ms_per_op", "ms", "lower") for layer in _SIM_LAYERS]
    + [
        ("sql.parse_expression_calls_per_op", "1/op", "lower"),
        ("cache.plan_hit_ratio", "ratio", "higher"),
        ("cache.result_hit_ratio", "ratio", "higher"),
        ("cache.data_chunk_hit_ratio", "ratio", "higher"),
        ("cache.data_footer_hit_ratio", "ratio", "higher"),
        ("cache.data_evictions", "count", "lower"),
        ("storageapi.session_create_calls_per_op", "1/op", "lower"),
        ("storageapi.superluminal_compile_calls_per_op", "1/op", "lower"),
        ("storageapi.rows_returned_per_row_decoded", "ratio", "higher"),
        ("storageapi.rebalance_moves_per_op", "1/op", "lower"),
        ("formats.decode_mib_per_s", "MiB/s", "higher"),
        ("formats.encoded_bytes_per_user_byte", "ratio", "lower"),
        ("objectstore.get_calls_per_op", "1/op", "lower"),
        ("objectstore.get_mib_per_op", "MiB", "lower"),
        ("objectstore.put_calls_per_op", "1/op", "lower"),
        ("objectstore.put_mib_per_op", "MiB", "lower"),
        ("objectstore.list_calls_per_op", "1/op", "lower"),
        ("objectstore.cas_failures_per_op", "1/op", "lower"),
        ("objectstore.wall_ms_per_op", "ms", "lower"),
        ("metastore.files_pruned_ratio", "ratio", "higher"),
        ("security.iam_checks_per_op", "1/op", "lower"),
        ("serving.jobs_per_op", "1/op", "lower"),
        ("obs.span_calls_per_op", "1/op", "lower"),
        ("obs.metrics_calls_per_op", "1/op", "lower"),
        ("txn.commit_ms_per_commit", "ms", "lower"),
        ("txn.attempts_per_commit", "ratio", "lower"),
        ("core.compaction_ms_per_cycle", "ms", "lower"),
        ("core.write_amp", "ratio", "lower"),
        ("core.live_files_end", "count", "lower"),
        ("bench.trace_overhead_share", "ratio", "lower"),
        ("bench.unattributed_ms_per_op", "ms", "lower"),
        ("bench.spans_per_op", "1/op", "lower"),
    ]
)

#: How often set-up is repeated (and its median reported) when the workload
#: keeps one long-lived state; workloads rebuilt every pass repeat it anyway.
SETUP_REPEATS = 3


class Meter:
    """What a workload calls around the timed segments of one pass."""

    def __init__(self, recorder: Recorder | None, first_op_id: int) -> None:
        self.recorder = recorder  # set when this pass runs under the wrappers
        self.next_op_id = first_op_id
        self.wall_ns = 0  # every timed segment: ops and background work
        self.cpu_ns = 0
        self.last_ns = 0  # duration of the segment that just ended
        self.op_ns: list[int] = []  # one entry per finished op
        self.ok_ops = 0
        self.failed_ops = 0
        self.sim_ms = 0.0
        self.errors: list[str] = []
        self.sim_layers_ms: dict[str, float] = defaultdict(float)

    def new_op_id(self) -> int:
        self.next_op_id += 1
        return self.next_op_id - 1

    @contextmanager
    def timed(self, op_id: int, tracer):
        """Time one segment of op ``op_id`` (-1: background work that is not
        part of any op). In a traced pass the segment also runs under one
        root span of the product's own sim-clock tracer, whose per-layer
        summary feeds the ``sim.*`` metrics."""
        recorder = self.recorder
        handle = root = None
        if recorder is not None:
            handle = tracer.span("bench.segment", layer="bench")
            root = handle.__enter__()
            recorder.op_id = op_id
        cpu0 = time.process_time_ns()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            cpu1 = time.process_time_ns()
            self.last_ns = end - start
            self.wall_ns += self.last_ns
            self.cpu_ns += cpu1 - cpu0
            if recorder is not None:
                recorder.op_id = -1
                handle.__exit__(None, None, None)
                for layer, ms in summarize_trace(root)["layers_ms"].items():
                    self.sim_layers_ms[layer] += ms

    def finish_op(self, wall_ns: int, sim_ms: float, error: str | None) -> None:
        """Record one finished op; ``error`` names what was wrong with it."""
        self.op_ns.append(wall_ns)
        self.sim_ms += sim_ms
        if error is None:
            self.ok_ops += 1
        else:
            self.failed_ops += 1
            if len(self.errors) < 20:
                self.errors.append(error)


# -- the loop ---------------------------------------------------------------


def _timed_setup(workload, samples: list[float]) -> None:
    start = time.perf_counter()
    workload.setup()
    samples.append(time.perf_counter() - start)


def measure(workload, seconds: float, trace: bool, passes: int | None = None) -> dict:
    """Run ``workload`` and return the detailed report of this run.

    ``passes`` fixes the number of measured passes (the smoke profile, so
    counts repeat exactly); otherwise whole passes run until ``seconds`` of
    timed wall clock are used, and at least ``workload.min_passes``.
    """
    setup_samples: list[float] = []
    warmup_s = 0.0
    if workload.rebuild_every_pass:
        start = time.perf_counter()
        for _ in range(workload.warmup_passes):
            _timed_setup(workload, setup_samples)
            workload.run_pass(Meter(None, 0))
        warmup_s = time.perf_counter() - start
    else:
        for _ in range(SETUP_REPEATS):
            _timed_setup(workload, setup_samples)
    recorder = Recorder() if trace else None
    counters: dict[str, float] = defaultdict(float)
    meters: list[tuple[Meter, bool]] = []
    budget_ns = seconds * 1e9
    used_ns = 0
    next_op_id = 0
    gc.collect()
    while True:
        index = len(meters)
        if passes is not None:
            if index >= passes:
                break
        elif used_ns >= budget_ns and index >= workload.min_passes:
            break
        if workload.rebuild_every_pass:
            _timed_setup(workload, setup_samples)
        traced = trace and index % 2 == 1
        meter = Meter(recorder if traced else None, next_op_id)
        if traced:
            before = workload.counters()
            recorder.install()
            try:
                workload.run_pass(meter)
            finally:
                recorder.uninstall()
            for key, value in workload.counters().items():
                counters[key] += value - before.get(key, 0)
            _fold_sessions(recorder, counters)
        else:
            workload.run_pass(meter)
        next_op_id = meter.next_op_id
        used_ns += meter.wall_ns
        meters.append((meter, traced))

    end_errors = workload.end_errors()
    report: dict[str, Any] = {
        "workload": workload.name,
        "seed": workload.seed,
        "trace": int(trace),
        "sizes": workload.sizes(),
        "setup_samples_s": setup_samples,
        "warmup_s": warmup_s,
        "passes": len(meters),
    }
    plain = [m for m, traced in meters if not traced]
    attempted = sum(len(m.op_ns) for m, _ in meters)
    failed = sum(m.failed_ops for m, _ in meters) + len(end_errors)
    report["attempted"] = attempted
    report["failed"] = failed
    report["errors"] = [e for m, _ in meters for e in m.errors][:20] + end_errors
    if trace:
        report["metrics"] = per_layer_metrics(
            recorder, [m for m, traced in meters if traced], plain, counters, workload
        )
        report["spans"] = recorder.spans
        report["traced_op_wall_ns"] = sum(ns for m, traced in meters if traced for ns in m.op_ns)
    else:
        report["metrics"], report["rounds"] = end_to_end_metrics(plain, setup_samples)
        report["op_samples"] = sum(len(m.op_ns) for m in plain)
    return report


def _fold_sessions(recorder: Recorder, counters: dict[str, float]) -> None:
    for session in recorder.take_sessions():
        stats = session.stats
        counters["files_total"] += stats.files_total
        counters["files_pruned"] += stats.files_pruned
        counters["rows_scanned"] += stats.rows_scanned
        counters["rows_returned"] += stats.rows_returned


# -- end-to-end metrics -----------------------------------------------------


# Each wall metric is computed per pass; the run reports the best decile of
# its passes (10th percentile of a time, 90th of a rate). Every pass does the
# same work, and whatever else the machine is doing can only slow a pass
# down, so the fast decile is what the program costs and the rest is the
# neighbours. It is the decile, and passes are kept short (under a second
# where the workload allows), because a neighbour's stalls land on single
# ops: a pass with a handful of them has a clean median but a wrong p95, and
# with long passes too few are free of them. The product's own tail is inside
# each pass: p95 is taken over the ops of a pass (nearest rank, so on a 17-op
# pass it is the slowest statement), before any pass is preferred over another.
PASS_METRICS = {
    "op_ms_p50": lambda m: float(np.percentile(m.op_ns, 50)) / 1e6,
    "op_ms_p95": lambda m: float(np.percentile(m.op_ns, 95, method="higher")) / 1e6,
    "ops_per_s": lambda m: m.ok_ops / (m.wall_ns / 1e9),
    "cpu_ms_per_op": lambda m: m.cpu_ns / 1e6 / len(m.op_ns),
}


def best_decile(values: list[float], better: str) -> float:
    return float(np.percentile(values, 90 if better == "higher" else 10))


def end_to_end_metrics(meters: list[Meter], setup_samples: list[float]) -> tuple[dict, dict]:
    """(metrics, per-pass values of the wall metrics)."""
    rounds = {name: [fn(m) for m in meters] for name, fn in PASS_METRICS.items()}
    values = {
        "setup_s": statistics.median(setup_samples),
        "sim_ms_per_op": sum(m.sim_ms for m in meters) / sum(len(m.op_ns) for m in meters),
        # ru_maxrss is KiB on Linux.
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name, _, better in END_TO_END:
        if name in rounds:
            values[name] = best_decile(rounds[name], better)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    return metrics, rounds


# -- per-layer metrics ------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    recorder: Recorder,
    traced: list[Meter],
    plain: list[Meter],
    counters: dict[str, float],
    workload,
) -> dict:
    ops = max(1, sum(len(m.op_ns) for m in traced))
    self_ns = recorder.self_times_ns()
    calls = recorder.span_calls()
    counts = recorder.counts
    values: dict[str, float] = {}
    for span, metric in SELF_TIME_METRICS.items():
        values[metric] = self_ns.get(span, 0) / 1e6 / ops
    for layer in _SIM_LAYERS:
        values[f"sim.{layer}_ms_per_op"] = sum(m.sim_layers_ms.get(layer, 0.0) for m in traced) / ops

    values["sql.parse_expression_calls_per_op"] = calls.get("sql.parse_expression", 0) / ops
    values["cache.plan_hit_ratio"] = _ratio(
        counters["plan_hits"], counters["plan_hits"] + counters["plan_misses"])
    values["cache.result_hit_ratio"] = _ratio(
        counters["result_hits"], counters["result_hits"] + counters["result_misses"])
    values["cache.data_chunk_hit_ratio"] = _ratio(
        counters["chunk_hits"], counters["chunk_hits"] + counters["chunk_misses"])
    values["cache.data_footer_hit_ratio"] = _ratio(
        counters["footer_hits"], counters["footer_hits"] + counters["footer_misses"])
    values["cache.data_evictions"] = counters["data_evictions"]
    values["storageapi.session_create_calls_per_op"] = (
        calls.get("storageapi.session_create", 0) / ops)
    values["storageapi.superluminal_compile_calls_per_op"] = (
        calls.get("storageapi.superluminal_compile", 0) / ops)
    values["storageapi.rows_returned_per_row_decoded"] = _ratio(
        counters["rows_returned"], counters["rows_scanned"])
    values["storageapi.rebalance_moves_per_op"] = counts["storageapi.rebalance_moves"] / ops
    decode_s = self_ns.get("formats.decode", 0) / 1e9
    values["formats.decode_mib_per_s"] = _ratio(counts["formats.decoded_bytes"] / MIB, decode_s)
    values["formats.encoded_bytes_per_user_byte"] = _ratio(
        counts["formats.encoded_bytes"], counts["formats.user_bytes"])
    values["objectstore.get_calls_per_op"] = calls.get("objectstore.get", 0) / ops
    values["objectstore.get_mib_per_op"] = counts["objectstore.get_bytes"] / MIB / ops
    puts = calls.get("objectstore.put", 0) + calls.get("objectstore.cas_put", 0)
    values["objectstore.put_calls_per_op"] = puts / ops
    values["objectstore.put_mib_per_op"] = counts["objectstore.put_bytes"] / MIB / ops
    values["objectstore.list_calls_per_op"] = counts["objectstore.list.calls"] / ops
    values["objectstore.cas_failures_per_op"] = recorder.raised("objectstore.cas_put") / ops
    values["objectstore.wall_ms_per_op"] = (
        sum(self_ns.get(span, 0) for span in _OBJECTSTORE_SPANS) / 1e6 / ops)
    values["metastore.files_pruned_ratio"] = _ratio(
        counters["files_pruned"], counters["files_total"])
    values["security.iam_checks_per_op"] = calls.get("security.iam", 0) / ops
    values["serving.jobs_per_op"] = calls.get("serving.submit", 0) / ops
    values["obs.span_calls_per_op"] = counts["obs.span.calls"] / ops
    values["obs.metrics_calls_per_op"] = counts["obs.metrics.calls"] / ops
    commit_ns, commits = recorder.inclusive_ns("txn.commit", ok_only=True)
    values["txn.commit_ms_per_commit"] = _ratio(commit_ns / 1e6, commits)
    values["txn.attempts_per_commit"] = _ratio(calls.get("txn.begin", 0), commits)
    compaction_ns, compactions = recorder.inclusive_ns("core.compaction")
    # One cycle compacts every table of the workload once.
    cycles = compactions / max(1, len(workload.compacted_tables))
    values["core.compaction_ms_per_cycle"] = _ratio(compaction_ns / 1e6, cycles)
    values["core.write_amp"] = _ratio(
        counts["objectstore.data_file_put_bytes"], workload.user_bytes_committed)
    values["core.live_files_end"] = float(workload.live_files())

    traced_ms = statistics.median(m.wall_ns / len(m.op_ns) for m in traced) / 1e6
    plain_ms = statistics.median(m.wall_ns / len(m.op_ns) for m in plain) / 1e6
    values["bench.trace_overhead_share"] = traced_ms / plain_ms - 1.0
    covered = sum(recorder.top_level_ns_by_op().values())
    op_wall = sum(ns for m in traced for ns in m.op_ns)
    values["bench.unattributed_ms_per_op"] = (op_wall - covered) / 1e6 / ops
    values["bench.spans_per_op"] = len(recorder.spans) / ops
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
