"""Shared machinery for the experiment benchmarks.

Each benchmark in ``benchmarks/`` regenerates one of the paper's
tables/figures (see DESIGN.md's experiment index). The harness provides
platform builders for the standard workloads, a sequential "power run"
runner (the measurement mode Fig. 4 uses), plain-text table printing so
benchmark output reads like the paper's reported series, and a
machine-readable report (``record_bench`` / ``write_bench_report``) the
suite conftest dumps to the repo root (``benchmarks/conftest.py`` names
the file) — schema in EXPERIMENTS.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.cache import CacheConfig
from repro.core import LakehousePlatform
from repro.core.platform import PlatformConfig
from repro.engine.engine import QueryStats
from repro.metastore.catalog import MetadataCacheMode
from repro.obs.trace import summarize_trace
from repro.workloads import tpcds_lite, tpch_lite


@dataclass
class PowerRunResult:
    """Per-query and total simulated timings for one power run."""

    query_stats: dict[str, QueryStats] = field(default_factory=dict)
    total_elapsed_ms: float = 0.0
    # name -> {"total_ms", "span_count", "layers_ms"} when tracing is on.
    trace_summaries: dict[str, dict] = field(default_factory=dict)

    def elapsed(self, name: str) -> float:
        return self.query_stats[name].elapsed_ms


def power_run(engine, queries: dict[str, str], principal) -> PowerRunResult:
    """Run each query sequentially (the paper's TPC-DS power-run mode)."""
    result = PowerRunResult()
    for name, sql in queries.items():
        query_result = engine.execute(sql, principal)
        result.query_stats[name] = query_result.stats
        result.total_elapsed_ms += query_result.stats.elapsed_ms
        if query_result.trace is not None:
            result.trace_summaries[name] = summarize_trace(query_result.trace)
    return result


def _make_platform(data_cache: CacheConfig | None) -> LakehousePlatform:
    if data_cache is None:
        return LakehousePlatform()
    return LakehousePlatform(PlatformConfig(data_cache=data_cache))


def build_tpcds_platform(
    scale: float = 0.3,
    cache_mode: MetadataCacheMode = MetadataCacheMode.AUTOMATIC,
    fact_files: int = 24,
    data_cache: CacheConfig | None = None,
    **engine_flags: Any,
):
    """(platform, admin, engine, queries) over a BigLake TPC-DS lake."""
    platform = _make_platform(data_cache)
    admin = platform.admin_user()
    data = tpcds_lite.generate(scale=scale)
    tpcds_lite.load_as_biglake(
        platform, admin, data, cache_mode=cache_mode, fact_files=fact_files
    )
    engine = platform.home_engine
    for flag, value in engine_flags.items():
        setattr(engine, flag, value)
    return platform, admin, engine, tpcds_lite.queries()


def build_tpch_platform(
    scale: float = 0.3,
    cache_mode: MetadataCacheMode = MetadataCacheMode.AUTOMATIC,
    data_cache: CacheConfig | None = None,
    lineitem_files: int = 16,
    **engine_flags: Any,
):
    platform = _make_platform(data_cache)
    admin = platform.admin_user()
    data = tpch_lite.generate(scale=scale)
    tpch_lite.load_as_biglake(
        platform, admin, data, cache_mode=cache_mode, lineitem_files=lineitem_files
    )
    engine = platform.home_engine
    for flag, value in engine_flags.items():
        setattr(engine, flag, value)
    return platform, admin, engine, tpch_lite.queries()


# --------------------------------------------------------------------------
# Machine-readable bench report
# --------------------------------------------------------------------------

#: Accumulates across one pytest session; the benchmarks/ conftest writes
#: it out at session finish. Keyed by bench id ("e1", "e2", ...).
_REPORT: dict[str, dict[str, Any]] = {}

REPORT_SCHEMA_VERSION = 1


def record_bench(bench: str, **fields: Any) -> None:
    """Merge result fields into one bench's report entry.

    Values must be JSON-serializable; simulated times are milliseconds and
    speedups are plain ratios (``4.2`` meaning 4.2x), so downstream tooling
    never parses ``"4.2x"`` strings.
    """
    _REPORT.setdefault(bench, {}).update(fields)


def record_power_run(bench: str, label: str, result: PowerRunResult) -> None:
    """Attach one power run's per-query timings + layer summary to a bench."""
    layers: dict[str, float] = {}
    for summary in result.trace_summaries.values():
        for layer, ms in summary["layers_ms"].items():
            layers[layer] = round(layers.get(layer, 0.0) + ms, 3)
    runs = _REPORT.setdefault(bench, {}).setdefault("runs", {})
    runs[label] = {
        "total_ms": round(result.total_elapsed_ms, 3),
        "queries_ms": {
            name: round(stats.elapsed_ms, 3)
            for name, stats in result.query_stats.items()
        },
        "layers_ms": layers,
    }


def bench_report() -> dict[str, Any]:
    """The report document (shared dict — callers must not mutate it)."""
    return {"schema_version": REPORT_SCHEMA_VERSION, "benches": _REPORT}


def write_bench_report(path: str) -> str | None:
    """Dump the accumulated report as JSON; a no-op when nothing recorded
    (e.g. a ``-k``-filtered run that touched no recording bench)."""
    if not _REPORT:
        return None
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bench_report(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def format_table(title: str, headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Render an aligned plain-text table (the benches print these)."""
    formatted_rows = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in formatted_rows)) if formatted_rows
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = [f"\n=== {title} ==="]
    lines.append("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in formatted_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:,.2f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)
