"""The observer's write path as it was before series handles: every write
re-derives its label key from keyword labels, every scrape re-renders every
sample's text and re-sorts its key, the drain observation sorts dict-labelled
events and appends through ``record()``, and a histogram finds its bucket by
a linear scan. ``Histogram.observe`` and ``.samples``,
``TimeSeriesStore.record``, ``MetricsScraper._scrape`` and
``FleetMonitor.observe_batch`` / ``._update_gauges`` are kept verbatim, each
in a subclass of today's class; :class:`ReferenceRegistry` only makes
``histogram()`` build the reference histogram.

Not collected by pytest (no ``test_`` prefix); the oracle of
tests/test_obs_monitor_oracle.py.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

from repro.obs.alerts import AlertEngine
from repro.obs.metrics import (
    Histogram,
    LabelKey,
    MetricsRegistry,
    _fmt_value,
    _label_key,
    _render_labels,
)
from repro.obs.monitor import FleetMonitor, ReservationRow, _Cell, _overlap
from repro.obs.tsdb import MetricsScraper, TimeSeriesStore, _Series


class ReferenceHistogram(Histogram):
    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        counts = self._counts.setdefault(key, [0] * len(self.buckets))
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                counts[i] += 1
                break
        self._sums[key] = self._sums.get(key, 0.0) + value
        self._totals[key] = self._totals.get(key, 0) + 1

    def samples(self) -> Iterable[tuple[str, LabelKey, float]]:
        for key in sorted(self._totals):
            cumulative = 0
            for i, bound in enumerate(self.buckets):
                cumulative += self._counts[key][i]
                yield (
                    f"{self.name}_bucket",
                    key + (("le", _fmt_value(bound)),),
                    float(cumulative),
                )
            yield f"{self.name}_sum", key, self._sums[key]
            yield f"{self.name}_count", key, float(self._totals[key])


class ReferenceRegistry(MetricsRegistry):
    def histogram(
        self, name: str, help: str = "", buckets: tuple[float, ...] | None = None
    ) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = ReferenceHistogram(name, help, buckets)
            self._metrics[name] = metric
        elif not isinstance(metric, Histogram):
            raise ValueError(f"metric {name!r} already registered as {metric.kind}")
        return metric


class ReferenceStore(TimeSeriesStore):
    def record(self, name: str, t_ms: float, value: float, **labels: Any) -> None:
        key = (name, _label_key(labels))
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _Series()
        series.append(t_ms, value)


class ReferenceScraper(MetricsScraper):
    def _scrape(self, t_ms: float) -> None:
        self.scrape_count += 1
        seen: dict[tuple[str, LabelKey], str] = {}
        for metric_name in self.registry.names():
            metric = self.registry.get(metric_name)
            for sample_name, key, value in metric.samples():
                seen[(sample_name, key)] = metric.kind
                self.store.record(sample_name, t_ms, value, **dict(key))
                self.rows.append(
                    (
                        t_ms,
                        metric_name,
                        metric.kind,
                        f"{sample_name}{_render_labels(key)}",
                        float(value),
                        False,
                    )
                )
        for (sample_name, key), kind in self._live.items():
            if (sample_name, key) in seen:
                continue
            # The series existed last scrape and is gone now: one
            # staleness marker, then it drops out of the scrape entirely.
            self.store.record_stale(sample_name, t_ms, **dict(key))
            self.rows.append(
                (t_ms, sample_name, kind, f"{sample_name}{_render_labels(key)}",
                 math.nan, True)
            )
        self._live = seen


class ReferenceMonitor(FleetMonitor):
    """Today's monitor over a :class:`ReferenceStore` scraped by a
    :class:`ReferenceScraper`, with the old drain observation."""

    def __init__(self, ctx, config=None) -> None:
        super().__init__(ctx, config)
        self.store = ReferenceStore()
        self.scraper = ReferenceScraper(
            ctx.metrics,
            self.store,
            interval_ms=self.config.scrape_interval_ms,
            history_rows=self.config.metrics_history_rows,
        )
        self.alerts = AlertEngine(self.rules, self.store, metrics=ctx.metrics)

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

        events: list[tuple[float, str, dict[str, str], float]] = []
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
            events.append(
                (v.end_ms, "job_queue_wait_ms", {"principal": p}, v.queue_wait_ms)
            )
            events.append(
                (v.end_ms, "job_retried", {}, 1.0 if entry.get("retried") else 0.0)
            )
            events.append(
                (v.end_ms, "job_degraded", {}, 1.0 if entry.get("degraded") else 0.0)
            )
            events.append(
                (
                    v.end_ms, "job_cache_bypass", {},
                    1.0 if entry.get("cache_bypass") else 0.0,
                )
            )

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
            self.store.record(
                "pool_slot_busy_ratio", t_end, total_slot / (max(1, slots) * step)
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
                self.store.record(
                    "pool_queue_depth", t_end, row.queue_depth_avg, principal=p
                )
                self.store.record(
                    "pool_attainment", t_end, attainment, principal=p
                )
                depth_sum[p] = depth_sum.get(p, 0.0) + row.queue_depth_avg

        # Per-job SLO event samples, time-sorted per the append contract.
        for t, name, labels, value in sorted(
            events, key=lambda e: (e[0], e[1], sorted(e[2].items()))
        ):
            self.store.record(name, base + t, value, **labels)

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
        metrics = self.ctx.metrics
        depth = metrics.gauge(
            "repro_pool_queue_depth", "avg queued jobs per principal, last batch"
        )
        for p in batch_principals:
            depth.set(depth_sum.get(p, 0.0) / max(1, buckets), principal=p)
        for p in sorted(self._gauged - set(batch_principals)):
            depth.remove(principal=p)
        self._gauged = set(batch_principals)
        metrics.counter(
            "repro_monitor_batches_total", "shared-pool batches observed"
        ).inc()
        gauge = metrics.gauge(
            "repro_monitor_observing", "1 while a batch observation is open"
        )
        gauge.inc()
        gauge.dec()
        metrics.gauge(
            "repro_monitor_reservation_rows", "retained RESERVATION_TIMELINE rows"
        ).set(float(len(self.reservation)))

