"""Fleet telemetry: the monitor that watches the serving layer.

One :class:`FleetMonitor` per platform bridges three clocks' worth of
telemetry into the sim-time TSDB (:mod:`repro.obs.tsdb`):

* **Registry scrapes** (clock timeline) — :meth:`FleetMonitor.tick` is
  called from the job queue at submit and drain points and lets the
  :class:`~repro.obs.tsdb.MetricsScraper` catch up its fixed grid; the
  result is ``INFORMATION_SCHEMA.METRICS_HISTORY``.
* **Reservation timelines** (serving timeline) — after every shared-pool
  batch, :meth:`observe_batch` derives per-interval, per-principal rows
  (slot-ms split scan/compute, queue-depth and running averages,
  admissions/completions, fair-share attainment vs. configured weights)
  purely from the pool verdicts — the same
  :class:`~repro.engine.scheduler.TaskRun` attempts that feed
  ``JOBS_TIMELINE``, which is why the two tables tie out by
  construction. The result is ``INFORMATION_SCHEMA.RESERVATION_TIMELINE``.
* **Per-job SLO events** (serving timeline) — each settled job lands
  event samples (queue wait, retried?, degraded?, cache-bypassed?) the
  alert rules window over. The store keeps the newest
  :data:`~repro.obs.tsdb.RETENTION_SAMPLES` of each series, so these do
  not accumulate over a platform's life.

The *serving timeline* is the concatenation of batch model timelines:
when a batch's modeled makespan outruns the real-work clock, the next
batch is re-based at the previous batch's end, so fleet time is
monotone and every TSDB append stays in order.

Naming convention: series scraped from the registry keep their metric
names (``repro_*``); serving-timeline series derived here use bare names
(``pool_slot_busy_ratio``, ``job_queue_wait_ms``, ...) so the two
timelines never interleave one series.

The monitor is a pure *reader* of the serving layer: it never advances
the clock, never draws randomness, and runs strictly after each batch's
verdicts are final — enabling it cannot change query results, fault
draws, or JOBS rows (the observer-effect-zero property test).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Any

from repro.obs.alerts import AlertEngine, AlertRule
from repro.obs.metrics import LabelKey, MetricHandles
from repro.obs.tsdb import MetricsScraper, TimeSeriesStore, _Series

if TYPE_CHECKING:
    from repro.simtime import SimContext


def default_alert_rules() -> list[AlertRule]:
    """The stock SLO rule set the serve workload is monitored under.

    Thresholds are sized so a healthy seeded serve run stays quiet and a
    chaos run (transient faults + stragglers + cache bypasses) burns
    deterministically.
    """
    return [
        AlertRule(
            name="queue-wait-p99",
            kind="threshold",
            series="job_queue_wait_ms",
            fn="quantile",
            q=0.99,
            threshold=2000.0,
            comparator=">",
            window_ms=1600.0,
            for_ms=200.0,
            severity="warning",
        ),
        AlertRule(
            name="pool-saturated",
            kind="threshold",
            series="pool_slot_busy_ratio",
            fn="avg",
            threshold=0.95,
            comparator=">",
            window_ms=800.0,
            severity="warning",
        ),
        AlertRule(
            name="retry-budget-burn",
            kind="burn_rate",
            series="job_retried",
            window_ms=1600.0,
            short_window_ms=400.0,
            error_budget=0.2,
            burn_factor=1.0,
            severity="page",
        ),
        AlertRule(
            name="cache-bypass-burn",
            kind="burn_rate",
            series="job_cache_bypass",
            window_ms=1600.0,
            short_window_ms=400.0,
            error_budget=0.25,
            burn_factor=1.0,
            severity="page",
        ),
    ]


@dataclass
class MonitorConfig:
    """Fleet-telemetry policy (off by default: zero observer effect is a
    property we *prove*, but no telemetry is still the cheapest)."""

    enabled: bool = False
    # Registry scrape grid (clock timeline) -> METRICS_HISTORY.
    scrape_interval_ms: float = 100.0
    # Reservation-timeline bucket width (serving timeline).
    timeline_interval_ms: float = 100.0
    # Ring bounds, like the job-history capacity.
    reservation_capacity: int = 8192
    metrics_history_rows: int = 50_000
    # None -> default_alert_rules().
    rules: list[AlertRule] | None = None


@dataclass
class ReservationRow:
    """One (interval, principal) cell of RESERVATION_TIMELINE."""

    period_start_ms: float
    period_end_ms: float
    principal: str
    slot_ms: float = 0.0
    scan_slot_ms: float = 0.0
    compute_slot_ms: float = 0.0
    queue_ms: float = 0.0
    queue_depth_avg: float = 0.0
    running_avg: float = 0.0
    jobs_admitted: int = 0
    jobs_completed: int = 0
    weight: float = 1.0
    attainment: float = 1.0

    def to_row(self) -> tuple:
        return (
            self.period_start_ms, self.period_end_ms, self.principal,
            self.slot_ms, self.scan_slot_ms, self.compute_slot_ms,
            self.queue_ms, self.queue_depth_avg, self.running_avg,
            self.jobs_admitted, self.jobs_completed, self.weight,
            self.attainment,
        )


@dataclass
class _Cell:
    slot_ms: float = 0.0
    scan_ms: float = 0.0
    compute_ms: float = 0.0
    queue_ms: float = 0.0
    running_ms: float = 0.0
    admitted: int = 0
    completed: int = 0


def _overlap(a0: float, a1: float, b0: float, b1: float) -> float:
    return max(0.0, min(a1, b1) - max(a0, b0))


def _principal_key(principal: str) -> LabelKey:
    """The label key a ``principal=`` keyword label normalises to."""
    return (("principal", principal if type(principal) is str else str(principal)),)


_DEPTH = "repro_pool_queue_depth"
_DEPTH_HELP = "avg queued jobs per principal, last batch"


class FleetMonitor:
    """Scrapes, samples, and alerts over one platform's serving layer."""

    def __init__(self, ctx: "SimContext", config: MonitorConfig | None = None) -> None:
        self.ctx = ctx
        self.config = config or MonitorConfig()
        self.enabled = self.config.enabled
        self.store = TimeSeriesStore()
        self.scraper = MetricsScraper(
            ctx.metrics,
            self.store,
            interval_ms=self.config.scrape_interval_ms,
            history_rows=self.config.metrics_history_rows,
        )
        self.rules = (
            list(self.config.rules)
            if self.config.rules is not None
            else default_alert_rules()
        )
        self.alerts = AlertEngine(self.rules, self.store, metrics=ctx.metrics)
        self.reservation: deque[ReservationRow] = deque(
            maxlen=self.config.reservation_capacity
        )
        self.batches_observed = 0
        # High-water mark of the serving timeline (see module docstring).
        self._timeline_ms = 0.0
        # Principals with a live queue-depth gauge series (diffed per
        # batch so vanished principals get staleness markers, not ghosts).
        self._gauged: set[str] = set()
        self._meters = MetricHandles(ctx.metrics)

    # -- clock-timeline scraping ---------------------------------------------

    def tick(self, now_ms: float | None = None) -> int:
        """Catch the scraper up to ``now_ms`` (defaults to the clock)."""
        if not self.enabled:
            return 0
        if now_ms is None:
            now_ms = self.ctx.clock.now_ms
        return self.scraper.maybe_scrape(now_ms)

    # -- serving-timeline observation ----------------------------------------

    def observe_batch(
        self,
        anchor_ms: float,
        entries: list[dict[str, Any]],
        slots: int,
        weights: dict[str, float] | None = None,
    ) -> None:
        """Derive telemetry for one settled shared-pool batch.

        ``entries`` is one dict per job: ``principal``, ``verdict`` (the
        :class:`~repro.serving.pool.JobVerdict`), plus the per-job SLO
        facts the queue observed around the real work (``retried``,
        ``degraded``, ``cache_bypass``). Times inside a verdict are
        batch-model offsets; they are re-based onto the monotone serving
        timeline here.
        """
        if not self.enabled or not entries:
            return
        self.batches_observed += 1
        weights = dict(weights or {})
        step = self.config.timeline_interval_ms
        base = max(anchor_ms, self._timeline_ms)
        batch_end = max(e["verdict"].end_ms for e in entries)
        n_buckets = max(1, math.ceil(max(batch_end, 1e-9) / step))
        cells: dict[tuple[int, str], _Cell] = {}

        def cell(b: int, principal: str) -> _Cell:
            got = cells.get((b, principal))
            if got is None:
                got = cells[(b, principal)] = _Cell()
            return got

        def spread(p: str, t0: float, t1: float, attr: str) -> None:
            if t1 <= t0:
                return
            b = max(0, int(t0 // step))
            while b < n_buckets and b * step < t1:
                part = _overlap(t0, t1, b * step, (b + 1) * step)
                if part > 0:
                    c = cell(b, p)
                    setattr(c, attr, getattr(c, attr) + part)
                b += 1

        # (end, series name, label key, value, series) per settled job; a
        # batch takes each series handle once.
        store = self.store
        flags = [
            (name, fact, store.series(name, ()))
            for name, fact in (
                ("job_retried", "retried"),
                ("job_degraded", "degraded"),
                ("job_cache_bypass", "cache_bypass"),
            )
        ]
        waits: dict[str, tuple[LabelKey, _Series]] = {}
        events: list[tuple[float, str, LabelKey, float, _Series]] = []
        for entry in sorted(entries, key=lambda e: e["verdict"].key):
            v = entry["verdict"]
            p = entry["principal"]
            queued_until = v.admitted_ms if v.admitted else v.end_ms
            spread(p, v.arrival_ms, queued_until, "queue_ms")
            if v.admitted:
                spread(p, v.admitted_ms, v.end_ms, "running_ms")
                b = min(n_buckets - 1, int(v.admitted_ms // step))
                cell(b, p).admitted += 1
            b = min(n_buckets - 1, int(v.end_ms // step))
            cell(b, p).completed += 1
            for run in v.runs:
                t0 = v.admitted_ms + run.start_ms
                t1 = v.admitted_ms + run.end_ms
                spread(p, t0, t1, "slot_ms")
                spread(
                    p, t0, t1,
                    "compute_ms" if run.stage == "compute" else "scan_ms",
                )
            wait = waits.get(p)
            if wait is None:
                key = _principal_key(p)
                wait = waits[p] = (key, store.series("job_queue_wait_ms", key))
            events.append(
                (v.end_ms, "job_queue_wait_ms", wait[0], v.queue_wait_ms, wait[1])
            )
            for name, fact, series in flags:
                value = 1.0 if entry.get(fact) else 0.0
                events.append((v.end_ms, name, (), value, series))

        # Reservation rows + bucket series, bucket order (time-ordered).
        batch_principals = sorted({e["principal"] for e in entries})
        depth_sum: dict[str, float] = {}
        for b in range(n_buckets):
            active = sorted(p for (bb, p) in cells if bb == b)
            if not active:
                continue
            total_slot = sum(cells[(b, p)].slot_ms for p in active)
            weight_sum = sum(max(weights.get(p, 1.0), 1e-9) for p in active)
            t_end = base + (b + 1) * step
            store.series("pool_slot_busy_ratio", ()).append(
                t_end, total_slot / (max(1, slots) * step)
            )
            for p in active:
                c = cells[(b, p)]
                weight = weights.get(p, 1.0)
                fair = max(weight, 1e-9) / weight_sum
                attainment = (
                    (c.slot_ms / total_slot) / fair if total_slot > 0 else 1.0
                )
                row = ReservationRow(
                    period_start_ms=base + b * step,
                    period_end_ms=t_end,
                    principal=p,
                    slot_ms=c.slot_ms,
                    scan_slot_ms=c.scan_ms,
                    compute_slot_ms=c.compute_ms,
                    queue_ms=c.queue_ms,
                    queue_depth_avg=c.queue_ms / step,
                    running_avg=c.running_ms / step,
                    jobs_admitted=c.admitted,
                    jobs_completed=c.completed,
                    weight=weight,
                    attainment=attainment,
                )
                self.reservation.append(row)
                key = _principal_key(p)
                store.series("pool_queue_depth", key).append(
                    t_end, row.queue_depth_avg
                )
                store.series("pool_attainment", key).append(t_end, attainment)
                depth_sum[p] = depth_sum.get(p, 0.0) + row.queue_depth_avg

        # Per-job SLO event samples, time-sorted per the append contract. The
        # sort is stable and keyed without the value, so same-instant ties
        # keep their job order.
        events.sort(key=itemgetter(0, 1, 2))
        for t, _, _, value, series in events:
            series.append(base + t, value)

        # Deterministic alert sweep over the batch's grid instants.
        for b in range(1, n_buckets + 1):
            self.alerts.evaluate(base + b * step)

        self._timeline_ms = base + n_buckets * step
        self._update_gauges(batch_principals, depth_sum, n_buckets)

    def _update_gauges(
        self, batch_principals: list[str], depth_sum: dict[str, float], buckets: int
    ) -> None:
        """Live-registry view of the last batch; vanished principals are
        remove()-d so the next scrape emits staleness markers instead of
        repeating their final values forever."""
        meters = self._meters
        for p in batch_principals:
            meters.gauge(_DEPTH, _DEPTH_HELP, _principal_key(p)).set(
                depth_sum.get(p, 0.0) / max(1, buckets)
            )
        for p in sorted(self._gauged - set(batch_principals)):
            meters.gauge(_DEPTH, _DEPTH_HELP, _principal_key(p)).remove()
        self._gauged = set(batch_principals)
        meters.counter(
            "repro_monitor_batches_total", "shared-pool batches observed"
        ).inc()
        gauge = meters.gauge(
            "repro_monitor_observing", "1 while a batch observation is open"
        )
        gauge.inc()
        gauge.dec()
        meters.gauge(
            "repro_monitor_reservation_rows", "retained RESERVATION_TIMELINE rows"
        ).set(float(len(self.reservation)))

    # -- system-table views ---------------------------------------------------

    def reservation_rows(self) -> list[tuple]:
        return [row.to_row() for row in self.reservation]

    def metrics_history_rows(self) -> list[tuple]:
        return list(self.scraper.rows)

    def alert_rows(self) -> list[tuple]:
        return [event.to_row() for event in self.alerts.events]

    def summary(self) -> dict[str, Any]:
        """A compact JSON-able view (used by the monitor CLI report)."""
        return {
            "enabled": self.enabled,
            "batches_observed": self.batches_observed,
            "scrapes": self.scraper.scrape_count,
            "metrics_history_rows": len(self.scraper.rows),
            "reservation_rows": len(self.reservation),
            "tsdb_series": len(self.store),
            "tsdb_samples": self.store.sample_count(),
            "alerts": [event.to_dict() for event in self.alerts.events],
            "alerts_firing": self.alerts.firing(),
            "rules": [rule.name for rule in self.rules],
        }


__all__ = [
    "FleetMonitor",
    "MonitorConfig",
    "ReservationRow",
    "default_alert_rules",
]
