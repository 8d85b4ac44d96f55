"""repro.obs — zero-dependency tracing + metrics ("Dapper-lite").

The paper's production claims all rest on *measured* internals; this
package is how the reproduction measures its own:

* :mod:`repro.obs.trace` — per-query span trees over simulated time. A
  :class:`Tracer` lives on the shared :class:`~repro.simtime.SimContext`
  and every layer (object store, Big Metadata, Read API, Superluminal,
  engine operators, ML, Omni networking) opens spans around its work, so
  a query's simulated latency decomposes exactly into per-layer time.
* :mod:`repro.obs.metrics` — a Prometheus-style registry of counters,
  gauges, and histograms with a text exposition dump, also hanging off
  the ``SimContext`` so one platform reads one set of meters.
* :mod:`repro.obs.history` — the persistent :class:`JobHistory` ring
  buffer every ``execute()`` records into, keeping per-job stats and span
  trees queryable after the ``QueryResult`` is gone.
* :mod:`repro.obs.system_tables` — ``INFORMATION_SCHEMA`` virtual tables
  (JOBS, JOBS_TIMELINE, TABLE_STORAGE, DATA_ACCESS, METRICS, plus the
  fleet-telemetry RESERVATION_TIMELINE / METRICS_HISTORY / ALERTS) the
  planner resolves like ordinary relations, governed by the platform IAM.
* :mod:`repro.obs.tsdb` — the sim-time time-series store and the metrics
  scraper behind ``METRICS_HISTORY`` (Prometheus-shaped window queries,
  staleness markers).
* :mod:`repro.obs.alerts` — the declarative SLO alert engine (threshold
  and multi-window burn-rate rules) evaluated deterministically on the
  sim clock.
* :mod:`repro.obs.monitor` — the :class:`FleetMonitor` that wires the
  scraper, reservation timelines, and alert engine onto one platform's
  serving layer as a pure reader.
* :mod:`repro.obs.export` — the Chrome-trace exporter for any retained
  span tree, plus whole-serve-run exports with per-principal lanes.

Tracing is always-on but cheap to disable: ``ctx.tracer.enabled = False``
turns every ``span()`` call into a shared no-op context manager.
"""

from repro.obs.alerts import AlertEngine, AlertEvent, AlertRule
from repro.obs.export import (
    chrome_trace,
    chrome_trace_json,
    serve_chrome_trace,
    serve_chrome_trace_json,
)
from repro.obs.history import JobHistory, JobRecord, job_summary, timeline_rows
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.monitor import FleetMonitor, MonitorConfig, default_alert_rules
from repro.obs.system_tables import SystemTables
from repro.obs.tsdb import MetricsScraper, TimeSeriesStore
from repro.obs.trace import (
    NOOP_TRACER,
    Span,
    Tracer,
    layer_breakdown,
    layer_time_ms,
    render_trace,
    summarize_trace,
)

__all__ = [
    "AlertEngine",
    "AlertEvent",
    "AlertRule",
    "Counter",
    "FleetMonitor",
    "Gauge",
    "Histogram",
    "JobHistory",
    "JobRecord",
    "MetricsRegistry",
    "MetricsScraper",
    "MonitorConfig",
    "NOOP_TRACER",
    "Span",
    "SystemTables",
    "TimeSeriesStore",
    "Tracer",
    "chrome_trace",
    "chrome_trace_json",
    "default_alert_rules",
    "job_summary",
    "layer_breakdown",
    "layer_time_ms",
    "render_trace",
    "serve_chrome_trace",
    "serve_chrome_trace_json",
    "summarize_trace",
    "timeline_rows",
]
