"""Metrics-registry unit tests: exposition escaping + quantile estimation.

The Prometheus text format requires ``\\``, ``"``, and newline escapes in
label values; ``Histogram.quantile`` implements ``histogram_quantile``'s
linear interpolation over cumulative buckets. Both ship with the
observability tentpole and are covered here at the unit level.
"""

import enum
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import Histogram, MetricsRegistry, _escape_label_value, _label_key


class _Tier(enum.Enum):
    CHUNK = "chunk"
    FOOTER = "footer"


class _Op(str, enum.Enum):  # a str whose str() is not itself
    GET = "get"


_LABEL_VALUES = st.one_of(
    st.text(max_size=4), st.integers(-5, 5), st.floats(allow_nan=False),
    st.booleans(), st.sampled_from(list(_Tier) + list(_Op)),
)


@given(st.dictionaries(st.text(alphabet="abcxyz_", min_size=1, max_size=3),
                       _LABEL_VALUES, max_size=4))
@settings(max_examples=300, deadline=None)
def test_label_key_shortcuts_give_the_sorted_stringified_key(labels):
    """No label and one label skip the sort and the ``str``; the key — what
    ``render()`` and the scraper see — is the general path's."""
    key = _label_key(labels)
    assert key == tuple(sorted((k, str(v)) for k, v in labels.items()))
    assert all(type(v) is str for _, v in key)


class TestLabelEscaping:
    def test_escape_function(self):
        assert _escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'
        assert _escape_label_value("plain") == "plain"

    def test_backslash_escaped_before_quote(self):
        # Order matters: escaping quotes first would double-escape.
        assert _escape_label_value('\\"') == '\\\\\\"'

    def test_render_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("ops_total").inc(path='gs://b/"weird"\npath\\x')
        text = registry.render()
        assert 'path="gs://b/\\"weird\\"\\npath\\\\x"' in text
        # The rendered exposition stays one-sample-per-line.
        sample_lines = [
            line for line in text.splitlines() if not line.startswith("#")
        ]
        assert len(sample_lines) == 1

    def test_snapshot_uses_same_escaping(self):
        registry = MetricsRegistry()
        registry.counter("ops_total").inc(name='say "hi"')
        (series,) = registry.snapshot()["ops_total"].keys()
        assert series == 'ops_total{name="say \\"hi\\""}'


class TestHistogramQuantile:
    def test_no_observations_is_nan(self):
        histogram = Histogram("h")
        assert math.isnan(histogram.quantile(0.5))

    def test_out_of_range_raises(self):
        histogram = Histogram("h")
        with pytest.raises(ValueError, match="quantile"):
            histogram.quantile(1.5)
        with pytest.raises(ValueError, match="quantile"):
            histogram.quantile(-0.1)

    def test_linear_interpolation_within_bucket(self):
        histogram = Histogram("h", buckets=(10.0, 20.0, 30.0))
        for value in (5.0, 15.0, 25.0, 26.0):
            histogram.observe(value)
        # rank(0.5) = 2 of 4; the (10, 20] bucket holds observation 2
        # (cumulative 1 -> 2), so interpolate fully through it: 10 + 20*? ...
        # fraction = (2 - 1) / 1 = 1.0 -> upper bound 20.
        assert histogram.quantile(0.5) == pytest.approx(20.0)
        # rank(0.25) = 1: fully through the first bucket, lower bound 0.
        assert histogram.quantile(0.25) == pytest.approx(10.0)
        # rank(1.0) = 4: last bucket (20, 30], fraction (4-2)/2 = 1.0.
        assert histogram.quantile(1.0) == pytest.approx(30.0)

    def test_partial_fraction(self):
        histogram = Histogram("h", buckets=(0.0, 100.0))
        for _ in range(4):
            histogram.observe(50.0)  # all land in (0, 100]
        # rank(0.5) = 2 of 4 -> fraction 0.5 through (0, 100].
        assert histogram.quantile(0.5) == pytest.approx(50.0)
        assert histogram.quantile(0.75) == pytest.approx(75.0)

    def test_inf_bucket_returns_lower_bound(self):
        histogram = Histogram("h", buckets=(10.0,))
        histogram.observe(5.0)
        histogram.observe(1e9)  # lands in +Inf
        assert histogram.quantile(1.0) == pytest.approx(10.0)

    def test_respects_labels(self):
        histogram = Histogram("h", buckets=(10.0, 20.0))
        histogram.observe(5.0, engine="a")
        histogram.observe(15.0, engine="b")
        assert histogram.quantile(1.0, engine="a") <= 10.0
        assert histogram.quantile(1.0, engine="b") > 10.0
        assert math.isnan(histogram.quantile(0.5, engine="c"))

    def test_median_of_query_latencies(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("query_elapsed_ms")
        for ms in (3.0, 40.0, 40.0, 40.0, 9000.0):
            histogram.observe(ms)
        p50 = histogram.quantile(0.5)
        # The median observation (40) lives in the (25, 50] default bucket.
        assert 25.0 < p50 <= 50.0


class TestHistogramQuantileEdges:
    """Table-driven pins against Prometheus ``histogram_quantile``
    (``bucketQuantile`` in promql/quantile.go), plus the one documented
    deviation for q=0 over empty leading buckets."""

    # (buckets, observations, q, expected)
    PROMETHEUS_TABLE = [
        # q=0 with the first bucket populated: fraction 0 through (0, 10].
        ((10.0, 20.0), (5.0,), 0.0, 0.0),
        # Rank landing exactly on a bucket boundary resolves to that
        # bucket's upper bound (first cumulative >= rank).
        ((10.0, 20.0), (5.0, 15.0), 0.5, 10.0),
        ((10.0, 20.0, 30.0), (5.0, 15.0, 25.0), 2 / 3, 20.0),
        # First bucket with a non-positive upper bound returns the bound
        # itself — no interpolating down from a fictitious 0 lower edge.
        ((-5.0, 10.0), (-7.0,), 0.5, -5.0),
        ((0.0, 100.0), (0.0,), 0.5, 0.0),
        ((0.0, 100.0), (0.0,), 1.0, 0.0),
        # +Inf bucket answers with the highest finite bound.
        ((10.0,), (1e9,), 0.5, 10.0),
        ((10.0,), (5.0, 1e9), 1.0, 10.0),
        # Interpolation partway through an interior bucket: rank 2.5 of 5,
        # 1 below the (10, 20] bucket, fraction (2.5 - 1) / 4 = 0.375.
        ((10.0, 20.0), (5.0, 12.0, 14.0, 18.0, 19.0), 0.5, 13.75),
    ]

    @pytest.mark.parametrize("buckets,observations,q,expected", PROMETHEUS_TABLE)
    def test_prometheus_semantics(self, buckets, observations, q, expected):
        histogram = Histogram("h", buckets=buckets)
        for value in observations:
            histogram.observe(value)
        assert histogram.quantile(q) == pytest.approx(expected)

    def test_q0_with_empty_leading_buckets_returns_first_populated_edge(self):
        # Documented deviation: strict Prometheus divides 0/0 into NaN here;
        # we answer with the minimum's bucket edge instead.
        histogram = Histogram("h", buckets=(10.0, 20.0, 30.0))
        histogram.observe(15.0)
        assert histogram.quantile(0.0) == pytest.approx(10.0)

    def test_q0_only_inf_bucket_populated(self):
        histogram = Histogram("h", buckets=(10.0, 20.0))
        histogram.observe(1e9)
        assert histogram.quantile(0.0) == pytest.approx(20.0)

    def test_all_mass_in_inf_with_no_finite_bucket_is_nan(self):
        histogram = Histogram("h", buckets=(math.inf,))
        histogram.observe(5.0)
        assert math.isnan(histogram.quantile(0.5))

    def test_boundary_rank_never_exceeds_next_bucket(self):
        # Sweep every q over a fixed histogram: the estimate must be
        # monotone in q and clamped to the outermost finite bounds.
        histogram = Histogram("h", buckets=(10.0, 20.0, 30.0))
        for value in (5.0, 15.0, 15.0, 25.0, 29.0, 1e9):
            histogram.observe(value)
        previous = -math.inf
        for step in range(0, 21):
            q = step / 20
            estimate = histogram.quantile(q)
            assert 0.0 <= estimate <= 30.0
            assert estimate >= previous
            previous = estimate
