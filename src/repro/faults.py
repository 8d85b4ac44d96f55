"""Deterministic fault injection and recovery policies (chaos substrate).

The paper's stack survives transient cloud failures the simulation could
model but never exercised: object-store rate limits and 5xx unavailability
(§4.2), metadata-cache staleness with fallback to live listing (§3.3),
cross-cloud VPN flaps and token expiry (§5.2–5.3), and Dremel worker
restarts. This module provides both halves:

* **Injection** — a :class:`FaultInjector` owned by :class:`~repro.simtime.
  SimContext` (like the tracer and metrics registry) that every layer
  consults at its hazard points via ``ctx.faults.check("layer.op", ...)``.
  A :class:`FaultPlan` declares probabilistic or scheduled faults from a
  seed, so a chaos run is exactly replayable: same seed + same workload ⇒
  the same faults fire at the same operations in the same order.
* **Recovery** — a reusable :class:`RetryPolicy` (exponential backoff with
  deterministic jitter, attempt and time budgets) whose sleeps are charged
  to the sim clock, and :func:`record_degradation` for paths that fall back
  to a slower-but-correct plan instead of retrying.

Determinism contract: one seeded ``random.Random`` drives all probabilistic
draws; hazard points are visited in a stable order because the simulator is
single-threaded per query; backoff jitter hashes ``(op, attempt)`` instead
of drawing fresh randomness. Nothing here reads wall-clock time.

Hazard-point naming is dotted ``layer.op``: ``objectstore.get``,
``objectstore.put``, ``objectstore.cas_put``, ``objectstore.list``,
``objectstore.get_range``, ``objectstore.head``, ``objectstore.delete``,
``bigmeta.lookup``, ``bigmeta.commit``, ``read_api.read_rows``,
``write_api.append``, ``vpn.call``, ``engine.task``, ``cache.get``,
``cache.put`` (data-cache probes degrade to a bypass, never an error —
see :mod:`repro.cache`), ``txn.crash`` (writer death between transaction
publish steps — fire it with ``error=WriterCrashError`` and select a step
via ``match``, e.g. ``"txn.crash:count=1:step=marker"``; recovery is
exercised in :mod:`repro.txn`), and ``task.slow`` (a *slowdown* hazard
probed by the slot scheduler: it multiplies a task's cost instead of
raising — see :meth:`FaultInjector.slowdown`). Fault specs select by
*prefix*, so ``op="objectstore."`` matches every store operation while
``op="objectstore.get"`` matches GETs (including ranged GETs) only.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from math import inf
from typing import TYPE_CHECKING, Any, Callable, TypeVar

import repro.errors
from repro.errors import ReproError, is_retryable

if TYPE_CHECKING:
    from repro.simtime import SimContext

T = TypeVar("T")

#: Error classes a FaultSpec may name (validated in :func:`_error_class`).
_DEFAULT_ERROR = "UnavailableError"


def _error_class(name: str) -> type[ReproError]:
    """Resolve an error-class name from :mod:`repro.errors`, validated."""
    cls = getattr(repro.errors, name, None)
    if not (isinstance(cls, type) and issubclass(cls, ReproError)):
        raise ValueError(f"unknown fault error class {name!r} (see repro.errors)")
    return cls


@dataclass(frozen=True)
class FaultSpec:
    """One declared fault: where it strikes, what it raises, when, how often.

    ``op`` is a hazard-point *prefix* (``"objectstore.get"`` hits plain and
    ranged GETs; ``"objectstore."`` hits everything in the store). Either
    ``count`` (fire unconditionally on the next N matching operations) or
    ``rate`` (fire each matching operation with probability ``rate``, drawn
    from the plan's seeded RNG, at most ``max_fires`` times) drives firing. ``start_ms``/``end_ms``
    bound the window on the sim clock; ``match`` restricts to operations
    whose keyword detail (e.g. ``store="gcp-us"``) matches exactly.
    """

    op: str
    error: str = _DEFAULT_ERROR
    rate: float = 0.0
    count: int = 0
    start_ms: float = 0.0
    end_ms: float = inf
    max_fires: int | None = None
    match: tuple[tuple[str, str], ...] = ()
    # factor > 1 declares a *slowdown* spec: instead of raising, a firing
    # multiplies the probed cost (straggler injection at ``task.slow``).
    # Slowdown specs are consulted only by :meth:`FaultInjector.slowdown`;
    # :meth:`FaultInjector.check` skips them.
    factor: float = 1.0

    @property
    def is_slowdown(self) -> bool:
        return self.factor > 1.0

    def __post_init__(self) -> None:
        _error_class(self.error)  # fail fast on typos
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.factor < 1.0:
            raise ValueError(f"fault factor must be >= 1, got {self.factor}")
        if self.rate == 0.0 and self.count == 0:
            raise ValueError(
                f"fault spec {self.op!r} can never fire: set rate= or count="
            )

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse ``"op:key=value:..."`` (the CLI ``--plan`` syntax).

        Known keys: ``rate``, ``count``, ``error``, ``start``, ``end``,
        ``max``, ``factor``. Any other key becomes a ``match`` constraint,
        e.g. ``"objectstore.get:rate=0.1:store=aws-east"``; a slowdown plan
        reads ``"task.slow:rate=0.15:factor=8"``.
        """
        parts = text.split(":")
        op, fields = parts[0], parts[1:]
        kwargs: dict[str, Any] = {"op": op}
        match: list[tuple[str, str]] = []
        for item in fields:
            if "=" not in item:
                raise ValueError(f"bad fault spec field {item!r} in {text!r}")
            key, value = item.split("=", 1)
            if key == "rate":
                kwargs["rate"] = float(value)
            elif key == "count":
                kwargs["count"] = int(value)
            elif key == "error":
                kwargs["error"] = value
            elif key == "start":
                kwargs["start_ms"] = float(value)
            elif key == "end":
                kwargs["end_ms"] = float(value)
            elif key == "max":
                kwargs["max_fires"] = int(value)
            elif key == "factor":
                kwargs["factor"] = float(value)
            else:
                match.append((key, value))
        kwargs["match"] = tuple(match)
        return cls(**kwargs)


@dataclass
class FaultPlan:
    """A seed plus the list of :class:`FaultSpec` to install together."""

    seed: int = 0
    specs: list[FaultSpec] = field(default_factory=list)

    @classmethod
    def parse(cls, texts: list[str], seed: int = 0) -> "FaultPlan":
        return cls(seed=seed, specs=[FaultSpec.parse(t) for t in texts])

    @classmethod
    def uniform(cls, rate: float, seed: int = 0) -> "FaultPlan":
        """Transient faults at ``rate`` across every major hazard class —
        the default chaos mix (storage 5xx, metadata blips, worker
        restarts, VPN flaps), all retryable. ``rate=0`` is the clean
        control: an empty plan."""
        if rate == 0.0:
            return cls(seed=seed, specs=[])
        return cls(seed=seed, specs=[
            FaultSpec(op="objectstore.get", error="UnavailableError", rate=rate),
            FaultSpec(op="bigmeta.lookup", error="MetadataUnavailableError", rate=rate),
            FaultSpec(op="engine.task", error="TransientExecutionError", rate=rate),
            FaultSpec(op="vpn.call", error="VpnUnavailableError", rate=rate),
        ])


@dataclass(frozen=True)
class FaultEvent:
    """One fault that actually fired (the injector's replay log)."""

    seq: int
    op: str
    error: str
    at_ms: float


class FaultInjector:
    """Seeded, deterministic fault injection consulted at hazard points.

    Owned by :class:`~repro.simtime.SimContext`; layers call
    :meth:`check` at each hazard point and the injector raises the declared
    error when a spec fires. With no plan installed, :meth:`check` is a
    single attribute test — cheap enough to leave in production paths.
    """

    def __init__(self, clock, metering, metrics, tracer) -> None:
        # The context's services, not the context: the injector is owned by
        # it and must not point back (and outlives it in callers that keep
        # ``SimContext(...).faults``).
        self.clock = clock
        self.metering = metering
        self.metrics = metrics
        self.tracer = tracer
        self._rng = random.Random(0)
        self._specs: list[FaultSpec] = []
        self._counts: dict[int, int] = {}  # spec index -> remaining count
        self._fires: dict[int, int] = {}   # spec index -> fires so far
        self.events: list[FaultEvent] = []

    @property
    def enabled(self) -> bool:
        return bool(self._specs)

    def install(self, plan: FaultPlan) -> None:
        """Install ``plan``, reseeding the RNG and resetting all state."""
        self.clear()
        self._rng = random.Random(plan.seed)
        for spec in plan.specs:
            self.add(spec)

    def add(self, spec: FaultSpec) -> None:
        """Add one spec to the active set (keeps the current RNG stream)."""
        index = len(self._specs)
        self._specs.append(spec)
        if spec.count:
            self._counts[index] = spec.count

    def clear(self) -> None:
        """Remove all specs and the replay log (RNG left as-is until the
        next :meth:`install`)."""
        self._specs = []
        self._counts = {}
        self._fires = {}
        self.events = []

    def check(self, op: str, **detail: Any) -> None:
        """Consult the plan at hazard point ``op``; raise if a fault fires.

        ``detail`` carries selector context (``store=``, ``table=``, ...)
        that specs may constrain via ``match``. Count-based specs fire
        unconditionally while their count lasts; rate-based specs draw from
        the seeded RNG. The first matching spec that fires wins.
        """
        if not self._specs:
            return
        now = self.clock.now_ms
        for index, spec in enumerate(self._specs):
            if spec.is_slowdown:
                continue  # consulted by slowdown(), never raises here
            if not self._matches(spec, op, now, detail):
                continue
            if index in self._counts:
                self._counts[index] -= 1
                if self._counts[index] <= 0:
                    del self._counts[index]
                self._fire(index, spec, op, now)
            elif spec.rate > 0.0:
                if spec.max_fires is not None and self._fires.get(index, 0) >= spec.max_fires:
                    continue
                if self._rng.random() < spec.rate:
                    self._fire(index, spec, op, now)

    def slowdown(self, op: str, **detail: Any) -> float:
        """Probe a *slowdown* hazard point (e.g. ``task.slow``).

        Returns the combined multiplicative factor of every slowdown spec
        that fires (1.0 = healthy); never raises. Firing draws from the
        same seeded RNG stream as :meth:`check`, and each firing is logged
        to :attr:`events` / metered like an injected fault, so straggler
        injection is exactly as replayable as error injection.
        """
        if not self._specs:
            return 1.0
        factor = 1.0
        now = self.clock.now_ms
        for index, spec in enumerate(self._specs):
            if not spec.is_slowdown:
                continue
            if not self._matches(spec, op, now, detail):
                continue
            if index in self._counts:
                self._counts[index] -= 1
                if self._counts[index] <= 0:
                    del self._counts[index]
                self._record(index, spec, op, now)
                factor *= spec.factor
            elif spec.rate > 0.0:
                if spec.max_fires is not None and self._fires.get(index, 0) >= spec.max_fires:
                    continue
                if self._rng.random() < spec.rate:
                    self._record(index, spec, op, now)
                    factor *= spec.factor
        return factor

    @staticmethod
    def _matches(spec: FaultSpec, op: str, now: float, detail: dict[str, Any]) -> bool:
        if not op.startswith(spec.op):
            return False
        if not spec.start_ms <= now < spec.end_ms:
            return False
        return not any(str(detail.get(key)) != value for key, value in spec.match)

    def _record(self, index: int, spec: FaultSpec, op: str, now: float) -> FaultEvent:
        """Log one firing (replay log + metering + metrics + span tag)."""
        label = f"Slowdown x{spec.factor:g}" if spec.is_slowdown else spec.error
        self._fires[index] = self._fires.get(index, 0) + 1
        event = FaultEvent(seq=len(self.events), op=op, error=label, at_ms=now)
        self.events.append(event)
        self.metering.count("repro.fault_injected")
        if op.startswith("objectstore."):
            # Compatibility: the legacy ObjectStore injector metered here.
            self.metering.count("object_store.injected_fault")
        self.metrics.counter(
            "repro_faults_injected_total",
            "Faults fired by the chaos injector.",
        ).inc(op=op, error=label)
        span = self.tracer.current
        if span is not None:
            span.set_tag("fault_injected", label)
        return event

    def _fire(self, index: int, spec: FaultSpec, op: str, now: float) -> None:
        event = self._record(index, spec, op, now)
        raise _error_class(spec.error)(
            f"injected {spec.error} on {op} [fault #{event.seq}]"
        )


@dataclass
class RetryPolicy:
    """Exponential backoff with deterministic jitter, charged to sim time.

    ``call`` retries transient failures (per :func:`repro.errors.
    is_retryable`) up to ``max_attempts`` total attempts or until the next
    backoff would exceed ``budget_ms`` of cumulative sleep, whichever comes
    first. Jitter is a hash of ``(op, attempt)`` — no RNG draw — so retry
    timing never perturbs the fault plan's random stream.
    """

    max_attempts: int = 4
    base_backoff_ms: float = 50.0
    backoff_multiplier: float = 2.0
    max_backoff_ms: float = 2000.0
    jitter_fraction: float = 0.2
    budget_ms: float = 10_000.0
    enabled: bool = True

    def backoff_ms(self, op: str, attempt: int) -> float:
        """Backoff before attempt ``attempt + 1`` (attempts count from 1)."""
        raw = min(
            self.max_backoff_ms,
            self.base_backoff_ms * self.backoff_multiplier ** (attempt - 1),
        )
        digest = zlib.crc32(f"{op}|{attempt}".encode()) % 10_000
        fraction = (digest / 9_999.0) * 2.0 - 1.0  # [-1, +1], deterministic
        return max(0.0, raw * (1.0 + self.jitter_fraction * fraction))

    def call(self, ctx: "SimContext", op: str, fn: Callable[[], T]) -> T:
        """Run ``fn``, retrying transient errors per this policy.

        Each backoff advances the sim clock inside a ``retry.backoff`` span
        and bumps ``repro.retry`` metering plus the
        ``repro_retries_total{op=...}`` metric, so every recovery is visible
        in traces, metrics, and job history.
        """
        attempt = 0
        slept_ms = 0.0
        while True:
            attempt += 1
            try:
                return fn()
            except ReproError as exc:
                delay = self.backoff_ms(op, attempt)
                if (
                    not self.enabled
                    or not is_retryable(exc)
                    or attempt >= self.max_attempts
                    or slept_ms + delay > self.budget_ms
                ):
                    raise
                ctx.metering.count("repro.retry")
                ctx.metrics.counter(
                    "repro_retries_total", "Transient-failure retries."
                ).inc(op=op)
                span = ctx.tracer.current
                if span is not None:
                    span.add_tag("retries", 1)
                with ctx.tracer.span(
                    "retry.backoff", layer="faults", op=op, attempt=attempt,
                    error_type=type(exc).__name__,
                ):
                    ctx.clock.advance(delay)
                slept_ms += delay


def record_degradation(ctx: "SimContext", path: str, reason: str) -> None:
    """Note a graceful-degradation event (fallback to a slower plan).

    ``path`` names the degradation (``"metadata_cache"``, ``"object_table"``)
    and ``reason`` the trigger (usually a table id). Meters ``repro.degraded``,
    bumps ``repro_degraded_total{path=...}``, and tags the current span so the
    fallback shows up on the job's `degraded` column.
    """
    ctx.metering.count("repro.degraded")
    ctx.metrics.counter(
        "repro_degraded_total", "Graceful-degradation fallbacks taken."
    ).inc(path=path)
    span = ctx.tracer.current
    if span is not None:
        span.set_tag("degraded", path)
        span.set_tag("degraded_reason", reason)
