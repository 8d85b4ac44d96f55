"""Tests for the simulated clock, cost model, and metering."""

import re
from pathlib import Path

import pytest

import repro
from repro.simtime import CostModel, Metering, SimClock, SimContext


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now_ms == 0.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(5.0)
        clock.advance(2.5)
        assert clock.now_ms == 7.5

    def test_advance_negative_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_advance_to_future_moves(self):
        clock = SimClock(10.0)
        assert clock.advance_to(25.0) == 25.0

    def test_advance_to_past_is_noop(self):
        clock = SimClock(10.0)
        assert clock.advance_to(5.0) == 10.0

    def test_no_module_can_start_a_thread(self):
        """The clock takes no lock because nothing shares it across threads:
        no module of the package imports a thread or process API."""
        pattern = re.compile(
            r"^\s*(import|from)\s+(threading|_thread|concurrent|multiprocessing)\b",
            re.M,
        )
        root = Path(repro.__file__).parent
        assert [
            str(path.relative_to(root))
            for path in sorted(root.rglob("*.py"))
            if pattern.search(path.read_text())
        ] == []


class TestCostModel:
    def test_transfer_includes_rtt(self):
        costs = CostModel()
        assert costs.transfer_ms(0, per_mib_ms=10.0, rtt_ms=3.0) == 3.0

    def test_transfer_scales_with_bytes(self):
        costs = CostModel()
        one_mib = costs.transfer_ms(1024 * 1024, per_mib_ms=10.0, rtt_ms=0.0)
        two_mib = costs.transfer_ms(2 * 1024 * 1024, per_mib_ms=10.0, rtt_ms=0.0)
        assert two_mib == pytest.approx(2 * one_mib)


class TestMetering:
    def test_count_accumulates(self):
        m = Metering()
        m.count("get")
        m.count("get", 2)
        assert m.op_counts["get"] == 3

    def test_egress_by_pair(self):
        m = Metering()
        m.add_egress("aws/us-east-1", "gcp/us-central1", 100)
        m.add_egress("aws/us-east-1", "gcp/us-central1", 50)
        assert m.egress_bytes[("aws/us-east-1", "gcp/us-central1")] == 150
        assert m.total_egress() == 150

    def test_delta_since(self):
        m = Metering()
        m.count("get")
        m.add_read(10)
        before = m.snapshot()
        m.count("get")
        m.count("put")
        m.add_read(5)
        delta = m.delta_since(before)
        assert delta.op_counts == {"get": 1, "put": 1}
        assert delta.bytes_read == 5

    def test_snapshot_is_independent(self):
        m = Metering()
        snap = m.snapshot()
        m.count("x")
        assert "x" not in snap.op_counts


class TestSimContext:
    def test_charge_advances_clock_and_counts(self):
        ctx = SimContext()
        ctx.charge("op", 12.0)
        assert ctx.clock.now_ms == 12.0
        assert ctx.metering.op_counts["op"] == 1
