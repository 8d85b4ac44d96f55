"""Prometheus-style metrics: counters, gauges, histograms, registry.

Metric names follow the Prometheus convention (``snake_case`` with a
``_total`` suffix for counters, base units in the name, e.g.
``objectstore_ops_total`` / ``query_elapsed_ms``). Labels are passed as
keyword arguments at observation time::

    ctx.metrics.counter("objectstore_ops_total").inc(op="get", region="gcp/us-central1")
    ctx.metrics.histogram("query_elapsed_ms").observe(stats.elapsed_ms)

:meth:`MetricsRegistry.render` emits the text exposition format, sorted
for deterministic output.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Iterable

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    # Almost every series has no label or one (tier=, stream=, op=): nothing
    # to sort, and a str value needs no conversion.
    if not labels:
        return ()
    if len(labels) == 1:
        ((k, v),) = labels.items()
        return ((k, v if type(v) is str else str(v)),)
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Prometheus text-format escaping: backslash, double-quote, newline."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(key: LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = key + extra
    if not items:
        return ""
    body = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in items
    )
    return "{" + body + "}"


def _fmt_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Counter:
    """A monotonically increasing per-label-set counter."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: dict[LabelKey, float] = {}

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        self._inc(_label_key(labels), value)

    def _inc(self, key: LabelKey, value: float) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {value})")
        self._values[key] = self._values.get(key, 0.0) + value

    def bind(self, **labels: Any) -> "BoundCounter":
        """This counter's series for ``labels``, the label key built once."""
        return BoundCounter(self, _label_key(labels))

    def get(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label combination."""
        return sum(self._values.values())

    def samples(self) -> Iterable[tuple[str, LabelKey, float]]:
        for key in sorted(self._values):
            yield self.name, key, self._values[key]


class Gauge:
    """A value that can go up or down (per label set).

    A label set that stops being meaningful (a principal with no queued
    jobs, a drained pool) must be :meth:`remove`-d, not left at its last
    value: the scraper (:class:`~repro.obs.tsdb.MetricsScraper`) turns a
    vanished series into a staleness marker instead of repeating a value
    that no longer describes anything.
    """

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        self._values[_label_key(labels)] = float(value)

    def add(self, delta: float, **labels: Any) -> None:
        self._add(_label_key(labels), delta)

    def _add(self, key: LabelKey, delta: float) -> None:
        self._values[key] = self._values.get(key, 0.0) + delta

    def bind(self, **labels: Any) -> "BoundGauge":
        """This gauge's series for ``labels``, the label key built once."""
        return BoundGauge(self, _label_key(labels))

    def inc(self, delta: float = 1.0, **labels: Any) -> None:
        self.add(delta, **labels)

    def dec(self, delta: float = 1.0, **labels: Any) -> None:
        self.add(-delta, **labels)

    def get(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def remove(self, **labels: Any) -> bool:
        """Drop one label series entirely (it stops being exported; the
        next scrape records a staleness marker for it). Returns whether
        the series existed."""
        return self._values.pop(_label_key(labels), None) is not None

    def label_sets(self) -> list[LabelKey]:
        """The currently live label series, sorted (for samplers that
        need to diff consecutive scrapes)."""
        return sorted(self._values)

    def samples(self) -> Iterable[tuple[str, LabelKey, float]]:
        for key in sorted(self._values):
            yield self.name, key, self._values[key]


DEFAULT_BUCKETS = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0, 30000.0, math.inf,
)


class Histogram:
    """A cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(
        self, name: str, help: str = "", buckets: tuple[float, ...] | None = None
    ) -> None:
        self.name = name
        self.help = help
        self.buckets = tuple(buckets) if buckets else DEFAULT_BUCKETS
        if self.buckets[-1] != math.inf:
            self.buckets = self.buckets + (math.inf,)
        if any(not lo < hi for lo, hi in zip(self.buckets, self.buckets[1:])):
            raise ValueError(f"histogram {name} buckets must increase: {self.buckets}")
        # The buckets never change, so neither do their ``le`` labels.
        self._le = tuple(("le", _fmt_value(bound)) for bound in self.buckets)
        self._counts: dict[LabelKey, list[int]] = {}
        self._sums: dict[LabelKey, float] = {}
        self._totals: dict[LabelKey, int] = {}

    def observe(self, value: float, **labels: Any) -> None:
        self._observe(_label_key(labels), value)

    def _observe(self, key: LabelKey, value: float) -> None:
        counts = self._counts.get(key)
        if counts is None:
            counts = self._counts[key] = [0] * len(self.buckets)
        if value == value:  # NaN lands in no bucket, but in sum and count
            # The first bucket whose bound is >= value (the last is +Inf).
            counts[bisect_left(self.buckets, value)] += 1
        self._sums[key] = self._sums.get(key, 0.0) + value
        self._totals[key] = self._totals.get(key, 0) + 1

    def bind(self, **labels: Any) -> "BoundHistogram":
        """This histogram's series for ``labels``, the label key built once."""
        return BoundHistogram(self, _label_key(labels))

    def count(self, **labels: Any) -> int:
        return self._totals.get(_label_key(labels), 0)

    def sum(self, **labels: Any) -> float:
        return self._sums.get(_label_key(labels), 0.0)

    def quantile(self, q: float, **labels: Any) -> float:
        """Estimate the q-quantile from the cumulative buckets, following
        Prometheus ``histogram_quantile``:

        * the containing bucket is the *first* one whose cumulative count
          reaches ``rank = q * total`` (so a rank landing exactly on a
          bucket boundary resolves to that bucket's upper bound);
        * linear interpolation within the containing bucket, whose lower
          bound is the previous bucket's upper bound (0 for the first
          bucket with a positive upper bound);
        * a first bucket with a non-positive upper bound returns that
          upper bound (no interpolation down from 0);
        * the +Inf bucket returns the previous finite bound.

        One documented deviation: ``q=0.0`` with empty leading buckets
        returns the lower bound of the first populated bucket (the
        minimum's bucket edge) where strict Prometheus divides 0/0 into
        NaN. Returns NaN with no observations.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1] (got {q})")
        key = _label_key(labels)
        total = self._totals.get(key, 0)
        if total == 0:
            return math.nan
        counts = self._counts[key]
        rank = q * total
        cumulative = 0
        b = len(self.buckets) - 1
        for i in range(len(self.buckets)):
            cumulative += counts[i]
            if cumulative >= rank:
                b = i
                break
        if self.buckets[b] == math.inf:
            return self.buckets[b - 1] if b > 0 else math.nan
        if b == 0 and self.buckets[0] <= 0:
            return self.buckets[0]
        lower = 0.0 if b == 0 else self.buckets[b - 1]
        upper = self.buckets[b]
        count = counts[b]
        if count == 0:
            # Only reachable at rank 0 (q=0 with empty leading buckets):
            # report the first populated bucket's lower edge.
            for i in range(b, len(self.buckets)):
                if counts[i] > 0:
                    if self.buckets[i] == math.inf:
                        return self.buckets[i - 1] if i > 0 else math.nan
                    return 0.0 if i == 0 else self.buckets[i - 1]
            return math.nan
        below = cumulative - count
        fraction = (rank - below) / count
        return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)

    def samples(self) -> Iterable[tuple[str, LabelKey, float]]:
        bucket = f"{self.name}_bucket"
        for key in sorted(self._totals):
            cumulative = 0
            for le, n in zip(self._le, self._counts[key]):
                cumulative += n
                yield bucket, key + (le,), float(cumulative)
            yield f"{self.name}_sum", key, self._sums[key]
            yield f"{self.name}_count", key, float(self._totals[key])


class _BoundSeries:
    """One label series of a metric: ``bind(**labels)`` builds the label
    key once, and every write through the handle reuses it."""

    __slots__ = ("metric", "key")

    def __init__(self, metric: Any, key: LabelKey) -> None:
        self.metric = metric
        self.key = key


class BoundCounter(_BoundSeries):
    __slots__ = ()

    def inc(self, value: float = 1.0) -> None:
        self.metric._inc(self.key, value)


class BoundGauge(_BoundSeries):
    __slots__ = ()

    def set(self, value: float) -> None:
        self.metric._values[self.key] = float(value)

    def inc(self, delta: float = 1.0) -> None:
        self.metric._add(self.key, delta)

    def dec(self, delta: float = 1.0) -> None:
        self.metric._add(self.key, -delta)

    def remove(self) -> bool:
        """:meth:`Gauge.remove` of this series; a later write revives it."""
        return self.metric._values.pop(self.key, None) is not None


class BoundHistogram(_BoundSeries):
    __slots__ = ()

    def observe(self, value: float) -> None:
        self.metric._observe(self.key, value)


class MetricHandles:
    """One owner's bound series handles, each resolved from the registry on
    its first write and reused for every write after it.

    Resolution waits for that first write on purpose: a metric registered
    ahead of it would add an empty ``# HELP`` / ``# TYPE`` pair to
    :meth:`MetricsRegistry.render` and a row to
    ``INFORMATION_SCHEMA.METRICS``. A handle never goes stale: the registry
    drops no metric and a metric drops no series dict (a removed gauge
    series is revived by its next write, as through the metric).

    ``labels`` is a tuple of ``(name, value)`` pairs, normalised like
    keyword labels when the handle is first resolved.
    """

    __slots__ = ("registry", "_bound")

    def __init__(self, registry: "MetricsRegistry") -> None:
        self.registry = registry
        self._bound: dict[tuple[str, str, tuple], Any] = {}

    def counter(self, name: str, help: str, labels: tuple = ()) -> BoundCounter:
        return self._bound.get(("counter", name, labels)) or self._bind(
            "counter", name, help, labels
        )

    def gauge(self, name: str, help: str, labels: tuple = ()) -> BoundGauge:
        return self._bound.get(("gauge", name, labels)) or self._bind(
            "gauge", name, help, labels
        )

    def histogram(self, name: str, help: str, labels: tuple = ()) -> BoundHistogram:
        return self._bound.get(("histogram", name, labels)) or self._bind(
            "histogram", name, help, labels
        )

    def _bind(self, kind: str, name: str, help: str, labels: tuple) -> Any:
        metric = getattr(self.registry, kind)(name, help)
        bound = self._bound[kind, name, labels] = metric.bind(**dict(labels))
        return bound


class MetricsRegistry:
    """Get-or-create home for every metric of one platform."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, help)

    def histogram(
        self, name: str, help: str = "", buckets: tuple[float, ...] | None = None
    ) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(name, help, buckets)
            self._metrics[name] = metric
        elif not isinstance(metric, Histogram):
            raise ValueError(f"metric {name!r} already registered as {metric.kind}")
        return metric

    def _get_or_create(self, name: str, cls, help: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ValueError(f"metric {name!r} already registered as {metric.kind}")
        return metric

    def get(self, name: str) -> Counter | Gauge | Histogram:
        return self._metrics[name]

    def has(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def snapshot(self) -> dict[str, dict[str, float]]:
        """{metric_name: {rendered_labels: value}} for programmatic reads."""
        out: dict[str, dict[str, float]] = {}
        for name in self.names():
            metric = self._metrics[name]
            series: dict[str, float] = {}
            for sample_name, key, value in metric.samples():
                series[f"{sample_name}{_render_labels(key)}"] = value
            out[name] = series
        return out

    def render(self) -> str:
        """The Prometheus text exposition format (sorted, deterministic)."""
        lines: list[str] = []
        for name in self.names():
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for sample_name, key, value in metric.samples():
                lines.append(f"{sample_name}{_render_labels(key)} {_fmt_value(value)}")
        return "\n".join(lines) + ("\n" if lines else "")
