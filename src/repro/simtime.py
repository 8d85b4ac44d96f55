"""Deterministic simulated time, cost model, and metering.

The real BigLake runs against cloud object stores, cross-cloud VPNs, and a
slot-scheduled Dremel fleet. This reproduction performs the *work* for real
(bytes are encoded, filters are evaluated, joins are joined) but charges
*time* to a deterministic :class:`SimClock` through a :class:`CostModel`, so
experiments report stable, machine-independent latencies whose shape matches
the paper's claims.

Three pieces:

* :class:`SimClock` — a monotonically advancing logical clock (milliseconds).
* :class:`CostModel` — constants describing how long simulated operations
  take (LIST page latency, GET first-byte latency, per-MiB transfer time,
  VPN round trips, slot think-time, ...). Experiments may override any
  constant.
* :class:`Metering` — counters for operations, bytes, and money-shaped
  quantities (egress bytes per cloud pair), used by the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from typing import Callable, TypeVar

    from repro.faults import FaultInjector, RetryPolicy
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer

    _T = TypeVar("_T")

MIB = 1024.0 * 1024.0


class SimClock:
    """A logical millisecond clock advanced explicitly by simulated work.

    It takes no lock: nothing in the package starts a thread. Concurrency
    (parallel tasks on shared slots, consumers of one read session) is
    modeled on discrete-event timelines of its own, never on this clock.
    """

    def __init__(self, start_ms: float = 0.0) -> None:
        self._now_ms = float(start_ms)

    @property
    def now_ms(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now_ms

    def advance(self, delta_ms: float) -> float:
        """Advance the clock by ``delta_ms`` and return the new time."""
        if delta_ms < 0:
            raise ValueError(f"cannot advance clock by negative {delta_ms}")
        self._now_ms += delta_ms
        return self._now_ms

    def advance_to(self, timestamp_ms: float) -> float:
        """Move the clock forward to ``timestamp_ms`` if it is in the future."""
        if timestamp_ms > self._now_ms:
            self._now_ms = timestamp_ms
        return self._now_ms


@dataclass
class CostModel:
    """Latency/cost constants for simulated infrastructure operations.

    Defaults are order-of-magnitude realistic for public-cloud object
    stores and cross-region networking circa the paper's publication; the
    absolute values matter less than their ratios (e.g. LIST pages are slow
    relative to metadata-cache lookups; cross-cloud bytes are expensive
    relative to in-region bytes).
    """

    # Object store.
    list_page_latency_ms: float = 60.0
    list_page_size: int = 1000
    get_first_byte_ms: float = 12.0
    get_per_mib_ms: float = 8.0
    put_first_byte_ms: float = 20.0
    put_per_mib_ms: float = 10.0
    delete_latency_ms: float = 10.0
    head_latency_ms: float = 8.0
    # Conditional pointer updates (open-table-format commits) are limited to
    # roughly this many mutations per second per object.
    cas_mutations_per_sec: float = 2.0

    # Metadata services.
    bigmeta_lookup_ms: float = 4.0
    bigmeta_commit_ms: float = 1.5

    # Networking.
    in_region_rtt_ms: float = 0.5
    cross_region_rtt_ms: float = 30.0
    cross_cloud_rtt_ms: float = 45.0
    vpn_overhead_ms: float = 2.0
    in_region_per_mib_ms: float = 0.8
    cross_region_per_mib_ms: float = 9.0
    cross_cloud_per_mib_ms: float = 12.0
    # Egress price (USD per GiB) used for cost-shaped reporting.
    cross_cloud_egress_usd_per_gib: float = 0.09

    # Engine.
    slot_startup_ms: float = 2.0
    shuffle_write_per_mib_ms: float = 1.2
    shuffle_read_per_mib_ms: float = 1.0
    scan_per_mib_ms: float = 2.5
    row_scan_overhead_per_row_us: float = 1.2
    join_cpu_us_per_row: float = 1.5
    aggregate_cpu_us_per_row: float = 0.8
    # Client-side TLS decryption of ReadRows payloads (§3.4 future work).
    tls_decrypt_per_mib_ms: float = 1.5
    # Slot-local data cache (§3.3): a hit is a hash probe plus a memory
    # copy — orders of magnitude under GET first-byte + per-MiB decode.
    cache_lookup_ms: float = 0.02
    cache_hit_per_mib_ms: float = 0.05

    # Inference.
    remote_call_overhead_ms: float = 25.0
    remote_autoscale_step_ms: float = 15000.0

    def transfer_ms(self, num_bytes: int, per_mib_ms: float, rtt_ms: float) -> float:
        """Time to move ``num_bytes`` over a link with given RTT and rate."""
        return rtt_ms + (num_bytes / MIB) * per_mib_ms


@dataclass
class Metering:
    """Aggregated counters for simulated infrastructure usage."""

    op_counts: dict[str, int] = field(default_factory=dict)
    bytes_read: int = 0
    bytes_written: int = 0
    # (source, destination) -> bytes, where each end is "cloud/region".
    egress_bytes: dict[tuple[str, str], int] = field(default_factory=dict)

    def count(self, op: str, n: int = 1) -> None:
        """Increment the counter for operation ``op`` by ``n``."""
        self.op_counts[op] = self.op_counts.get(op, 0) + n

    def add_read(self, num_bytes: int) -> None:
        self.bytes_read += num_bytes

    def add_write(self, num_bytes: int) -> None:
        self.bytes_written += num_bytes

    def add_egress(self, source: str, destination: str, num_bytes: int) -> None:
        """Record ``num_bytes`` leaving ``source`` toward ``destination``."""
        key = (source, destination)
        self.egress_bytes[key] = self.egress_bytes.get(key, 0) + num_bytes

    def total_egress(self) -> int:
        """Total bytes that crossed any location boundary."""
        return sum(self.egress_bytes.values())

    def snapshot(self) -> "Metering":
        """Return an independent copy (for before/after deltas)."""
        copy = Metering()
        copy.op_counts = dict(self.op_counts)
        copy.bytes_read = self.bytes_read
        copy.bytes_written = self.bytes_written
        copy.egress_bytes = dict(self.egress_bytes)
        return copy

    def delta_since(self, earlier: "Metering") -> "Metering":
        """Counters accumulated since ``earlier`` was snapshotted."""
        delta = Metering()
        for op, n in self.op_counts.items():
            prev = earlier.op_counts.get(op, 0)
            if n - prev:
                delta.op_counts[op] = n - prev
        delta.bytes_read = self.bytes_read - earlier.bytes_read
        delta.bytes_written = self.bytes_written - earlier.bytes_written
        for key, n in self.egress_bytes.items():
            prev = earlier.egress_bytes.get(key, 0)
            if n - prev:
                delta.egress_bytes[key] = n - prev
        return delta


@dataclass
class SimContext:
    """Bundle of clock + cost model + metering + observability shared by a
    simulation.

    Every stateful component (object stores, metadata services, engines,
    networks) takes a ``SimContext`` so an experiment controls one clock and
    reads one set of meters. The :class:`~repro.obs.Tracer` and
    :class:`~repro.obs.MetricsRegistry` ride along so every layer can open
    spans and bump counters without extra wiring; set
    ``ctx.tracer.enabled = False`` to turn tracing into no-ops.
    """

    clock: SimClock = field(default_factory=SimClock)
    costs: CostModel = field(default_factory=CostModel)
    metering: Metering = field(default_factory=Metering)
    tracer: "Tracer | None" = None
    metrics: "MetricsRegistry | None" = None
    faults: "FaultInjector | None" = None
    retry: "RetryPolicy | None" = None

    def __post_init__(self) -> None:
        from repro.faults import FaultInjector, RetryPolicy
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import Tracer

        if self.tracer is None:
            self.tracer = Tracer(self.clock)
        if self.metrics is None:
            self.metrics = MetricsRegistry()
        if self.faults is None:
            self.faults = FaultInjector(self.clock, self.metering, self.metrics, self.tracer)
        if self.retry is None:
            self.retry = RetryPolicy()

    def charge(self, op: str, latency_ms: float) -> None:
        """Record operation ``op`` and advance the clock by its latency."""
        self.metering.count(op)
        self.clock.advance(latency_ms)

    def with_retry(self, op: str, fn: "Callable[[], _T]") -> "_T":
        """Run ``fn`` under this context's :class:`RetryPolicy`."""
        return self.retry.call(self, op, fn)
