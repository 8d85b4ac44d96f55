"""Unit tests for the chaos substrate: FaultSpec/FaultPlan parsing, the
seeded FaultInjector, RetryPolicy backoff/budgets, and SimContext wiring."""

from __future__ import annotations

import pytest

from repro.errors import (
    MetadataUnavailableError,
    NotFoundError,
    RateLimitedError,
    ReproError,
    StorageError,
    TokenExpiredError,
    TransientError,
    TransientExecutionError,
    UnavailableError,
    VpnUnavailableError,
    is_retryable,
)
from repro.faults import FaultInjector, FaultPlan, FaultSpec, RetryPolicy
from repro.simtime import SimContext


class TestErrorTaxonomy:
    def test_transient_classification(self):
        assert is_retryable(UnavailableError("x"))
        assert is_retryable(RateLimitedError("x"))
        assert is_retryable(MetadataUnavailableError("x"))
        assert is_retryable(TransientExecutionError("x"))
        assert is_retryable(VpnUnavailableError("x"))

    def test_permanent_errors_not_retryable(self):
        assert not is_retryable(StorageError("x"))
        assert not is_retryable(NotFoundError("x"))
        # Expired tokens need re-establishment, not a blind retry.
        assert not is_retryable(TokenExpiredError("x"))
        assert not is_retryable(ValueError("x"))

    def test_transient_errors_stay_catchable_by_domain(self):
        # A transient storage fault is still a StorageError to callers.
        assert issubclass(UnavailableError, StorageError)
        assert issubclass(UnavailableError, TransientError)
        assert issubclass(TransientError, ReproError)


class TestFaultSpecParsing:
    def test_parse_full_spec(self):
        spec = FaultSpec.parse(
            "objectstore.get:rate=0.25:error=RateLimitedError:start=10:end=99:max=3"
        )
        assert spec.op == "objectstore.get"
        assert spec.rate == 0.25
        assert spec.error == "RateLimitedError"
        assert spec.start_ms == 10.0
        assert spec.end_ms == 99.0
        assert spec.max_fires == 3

    def test_unknown_keys_become_match_constraints(self):
        spec = FaultSpec.parse("objectstore.get:count=2:store=aws-east")
        assert spec.count == 2
        assert spec.match == (("store", "aws-east"),)

    def test_unknown_error_class_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec.parse("objectstore.get:error=NoSuchError")

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(op="x", rate=1.5)

    def test_plan_parse_multiple(self):
        plan = FaultPlan.parse(
            ["objectstore.get:rate=0.1", "vpn.call:count=1"], seed=7
        )
        assert plan.seed == 7
        assert len(plan.specs) == 2

    def test_uniform_plan_covers_major_hazards(self):
        ops = {s.op for s in FaultPlan.uniform(0.05, seed=1).specs}
        assert {"objectstore.get", "bigmeta.lookup", "engine.task", "vpn.call"} <= ops


class TestFaultInjector:
    def test_disabled_injector_is_noop(self, ctx):
        ctx.faults.check("objectstore.get", store="s")  # no specs: no raise
        assert not ctx.faults.enabled

    def test_count_spec_fires_exactly_n_times(self, ctx):
        ctx.faults.add(FaultSpec(op="objectstore.get", count=2))
        for _ in range(2):
            with pytest.raises(UnavailableError):
                ctx.faults.check("objectstore.get")
        ctx.faults.check("objectstore.get")  # exhausted
        assert len(ctx.faults.events) == 2

    def test_prefix_selection(self, ctx):
        ctx.faults.add(FaultSpec(op="objectstore.get", count=1))
        ctx.faults.check("objectstore.put")  # different op: no fire
        with pytest.raises(UnavailableError):
            ctx.faults.check("objectstore.get_range")  # prefix match

    def test_match_constraints_scope_faults(self, ctx):
        ctx.faults.add(
            FaultSpec(op="objectstore.get", count=1, match=(("store", "a"),))
        )
        ctx.faults.check("objectstore.get", store="b")  # other store: no fire
        with pytest.raises(UnavailableError):
            ctx.faults.check("objectstore.get", store="a")

    def test_time_window(self, ctx):
        ctx.faults.add(
            FaultSpec(op="vpn.call", rate=1.0, start_ms=100.0, end_ms=200.0)
        )
        ctx.faults.check("vpn.call")  # before the window
        ctx.clock.advance(150.0)
        with pytest.raises(UnavailableError):
            ctx.faults.check("vpn.call")
        ctx.clock.advance(100.0)
        ctx.faults.check("vpn.call")  # after the window

    def test_rate_draws_are_seed_deterministic(self):
        def outcomes(seed):
            ctx = SimContext()
            ctx.faults.install(FaultPlan(seed=seed, specs=[
                FaultSpec(op="objectstore.get", rate=0.3)
            ]))
            fired = []
            for _ in range(50):
                try:
                    ctx.faults.check("objectstore.get")
                    fired.append(False)
                except UnavailableError:
                    fired.append(True)
            return fired

        assert outcomes(11) == outcomes(11)
        assert outcomes(11) != outcomes(12)

    def test_max_fires_caps_rate_spec(self, ctx):
        ctx.faults.install(FaultPlan(seed=0, specs=[
            FaultSpec(op="vpn.call", rate=1.0, max_fires=2)
        ]))
        for _ in range(2):
            with pytest.raises(UnavailableError):
                ctx.faults.check("vpn.call")
        ctx.faults.check("vpn.call")  # capped
        assert len(ctx.faults.events) == 2

    def test_install_resets_state(self, ctx):
        ctx.faults.add(FaultSpec(op="objectstore.get", count=5))
        with pytest.raises(UnavailableError):
            ctx.faults.check("objectstore.get")
        ctx.faults.install(FaultPlan(seed=0, specs=[]))
        ctx.faults.check("objectstore.get")
        assert ctx.faults.events == []

    def test_fire_meters_and_counts(self, ctx):
        ctx.faults.add(FaultSpec(op="objectstore.get", count=1))
        with pytest.raises(UnavailableError):
            ctx.faults.check("objectstore.get")
        counts = ctx.metering.op_counts
        assert counts["repro.fault_injected"] == 1
        # Object-store faults keep the legacy compatibility counter.
        assert counts["object_store.injected_fault"] == 1

    def test_non_objectstore_fault_skips_legacy_counter(self, ctx):
        ctx.faults.add(FaultSpec(op="vpn.call", count=1, error="VpnUnavailableError"))
        with pytest.raises(VpnUnavailableError):
            ctx.faults.check("vpn.call")
        assert "object_store.injected_fault" not in ctx.metering.op_counts

    def test_event_log_records_sequence(self, ctx):
        ctx.faults.add(FaultSpec(op="objectstore.get", count=2))
        for _ in range(2):
            with pytest.raises(UnavailableError):
                ctx.faults.check("objectstore.get")
        assert [e.seq for e in ctx.faults.events] == [0, 1]
        assert all(e.op == "objectstore.get" for e in ctx.faults.events)


class TestRetryPolicy:
    def test_success_needs_no_retry(self, ctx):
        assert ctx.with_retry("op", lambda: 42) == 42
        assert "repro.retry" not in ctx.metering.op_counts

    def test_transient_error_retried_until_success(self, ctx):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise UnavailableError("blip")
            return "ok"

        assert ctx.with_retry("op", flaky) == "ok"
        assert len(attempts) == 3
        assert ctx.metering.op_counts["repro.retry"] == 2

    def test_permanent_error_not_retried(self, ctx):
        attempts = []

        def broken():
            attempts.append(1)
            raise NotFoundError("gone")

        with pytest.raises(NotFoundError):
            ctx.with_retry("op", broken)
        assert len(attempts) == 1

    def test_attempts_exhausted(self, ctx):
        with pytest.raises(UnavailableError):
            ctx.with_retry("op", _always_unavailable)
        assert ctx.metering.op_counts["repro.retry"] == ctx.retry.max_attempts - 1

    def test_disabled_policy_fails_fast(self, ctx):
        ctx.retry.enabled = False
        attempts = []

        def flaky():
            attempts.append(1)
            raise UnavailableError("blip")

        with pytest.raises(UnavailableError):
            ctx.with_retry("op", flaky)
        assert len(attempts) == 1

    def test_backoff_charged_to_sim_clock(self, ctx):
        t0 = ctx.clock.now_ms
        with pytest.raises(UnavailableError):
            ctx.with_retry("op", _always_unavailable)
        # Three backoffs of ~50/100/200ms (±20% jitter) elapsed.
        assert ctx.clock.now_ms - t0 >= 0.8 * (50 + 100 + 200)

    def test_backoff_is_deterministic_and_jittered(self):
        policy = RetryPolicy()
        assert policy.backoff_ms("op", 1) == policy.backoff_ms("op", 1)
        assert policy.backoff_ms("op", 1) != policy.backoff_ms("other", 1)
        assert policy.backoff_ms("op", 2) <= policy.max_backoff_ms * 1.2
        base = policy.base_backoff_ms
        assert 0.8 * base <= policy.backoff_ms("op", 1) <= 1.2 * base

    def test_budget_bounds_total_sleep(self, ctx):
        ctx.retry.budget_ms = 60.0  # only the first ~50ms backoff fits
        with pytest.raises(UnavailableError):
            ctx.with_retry("op", _always_unavailable)
        assert ctx.metering.op_counts["repro.retry"] == 1

    def test_retry_metric_labelled_by_op(self, ctx):
        def flaky_once(state=[]):
            if not state:
                state.append(1)
                raise RateLimitedError("throttled")
            return 1

        ctx.with_retry("objectstore.cas_put", flaky_once)
        text = ctx.metrics.render()
        assert "repro_retries_total" in text
        assert "objectstore.cas_put" in text


def _always_unavailable():
    raise UnavailableError("down")


class TestSimContextWiring:
    def test_context_owns_injector_and_policy(self):
        ctx = SimContext()
        assert isinstance(ctx.faults, FaultInjector)
        assert isinstance(ctx.retry, RetryPolicy)
        # The injector shares the context's services and does not point
        # back at it: ``SimContext().faults`` outlives a dropped context.
        assert ctx.faults.clock is ctx.clock
        assert ctx.faults.metering is ctx.metering
        assert ctx.faults.metrics is ctx.metrics
        assert ctx.faults.tracer is ctx.tracer
        assert not hasattr(ctx.faults, "ctx")

    def test_now_ms_reads_under_lock(self):
        # Regression for the unlocked read: hammer now_ms from threads while
        # another advances; no torn/stale values beyond the final total.
        import threading

        ctx = SimContext()
        stop = threading.Event()
        seen = []

        def reader():
            while not stop.is_set():
                seen.append(ctx.clock.now_ms)

        t = threading.Thread(target=reader)
        t.start()
        for _ in range(1000):
            ctx.clock.advance(1.0)
        stop.set()
        t.join()
        assert ctx.clock.now_ms == 1000.0
        assert all(0.0 <= v <= 1000.0 for v in seen)
        assert seen == sorted(seen)  # monotone: no torn reads
