"""Skew-aware slot scheduler: LPT placement, stragglers, speculation.

Unit-level coverage for :mod:`repro.engine.scheduler` plus the per-stage
finalize regression (the scan-accounting bugfix): stages are scheduled
independently, not pooled into one wave count — and for perfectly uniform
tasks the makespan still reduces exactly to the old wave formula, pinning
old-vs-new behavior where the old model was right.
"""

from __future__ import annotations

import math

import pytest

from repro.engine.engine import QueryStats, StageScan
from repro.engine.scheduler import (
    SlotScheduler,
    SpeculationConfig,
    duration_quantile,
    normalize_costs,
)
from repro.faults import FaultPlan, FaultSpec
from repro.simtime import SimContext
from tests.reference_scheduler import attempt_facts

NO_SPEC = SpeculationConfig(enabled=False)


def injector(*specs: FaultSpec, seed: int = 0):
    ctx = SimContext()
    ctx.faults.install(FaultPlan(seed=seed, specs=list(specs)))
    return ctx.faults


class TestDurationQuantile:
    def test_nearest_rank(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert duration_quantile(values, 0.5) == 2.0
        assert duration_quantile(values, 0.75) == 3.0
        assert duration_quantile(values, 1.0) == 4.0

    def test_degenerate(self):
        assert duration_quantile([], 0.5) == 0.0
        assert duration_quantile([7.0], 0.0) == 7.0


class TestNormalizeCosts:
    def test_scales_estimates_to_measured_total(self):
        out = normalize_costs([1.0, 3.0], total_ms=8.0, tasks=2)
        assert out == [2.0, 6.0]
        assert sum(out) == pytest.approx(8.0)

    def test_uniform_fallback(self):
        # Missing, mismatched-length, negative, and zero-weight estimates
        # all degrade to an even split — never a crash, never a skew guess.
        for bad in (None, [], [1.0], [1.0, -2.0], [0.0, 0.0]):
            assert normalize_costs(bad, total_ms=6.0, tasks=2) == [3.0, 3.0]


class TestListScheduling:
    def test_uniform_tasks_reduce_to_wave_formula(self):
        # The pinned old-model behavior: n equal tasks on s slots take
        # ceil(n/s) waves. The simulation must agree exactly.
        for n, s, cost in ((3, 2, 5.0), (8, 3, 2.0), (5, 5, 1.5), (7, 1, 4.0)):
            timeline = SlotScheduler(s, speculation=NO_SPEC).run_stage(
                "t", [cost] * n
            )
            assert timeline.makespan_ms == pytest.approx(
                math.ceil(n / s) * cost
            ), f"n={n} s={s}"
            assert timeline.skew_ratio == pytest.approx(1.0)

    def test_lpt_places_longest_first(self):
        timeline = SlotScheduler(2, speculation=NO_SPEC).run_stage(
            "t", [1.0, 5.0, 1.0, 1.0]
        )
        by_task = {r.task: r for r in timeline.runs}
        # The fat task starts at t=0; the three small ones share the other
        # slot, so the stage ends with the fat task, not after it.
        assert by_task[1].start_ms == 0.0
        assert timeline.makespan_ms == pytest.approx(5.0)

    def test_freed_slot_steals_next_pending_task(self):
        timeline = SlotScheduler(2, speculation=NO_SPEC).run_stage(
            "t", [4.0, 3.0, 2.0, 1.0]
        )
        by_task = {r.task: r for r in timeline.runs}
        # LPT: 4 and 3 start; the slot that frees at t=3 steals the 2,
        # the slot that frees at t=4 steals the 1.
        assert by_task[2].start_ms == pytest.approx(3.0)
        assert by_task[3].start_ms == pytest.approx(4.0)
        assert timeline.makespan_ms == pytest.approx(5.0)

    def test_stage_offset_shifts_all_runs(self):
        timeline = SlotScheduler(2, speculation=NO_SPEC).run_stage(
            "t", [2.0, 1.0], start_ms=100.0
        )
        assert all(r.start_ms >= 100.0 for r in timeline.runs)
        # Makespan is relative to the stage start, not absolute time.
        assert timeline.makespan_ms == pytest.approx(2.0)

    def test_empty_stage(self):
        timeline = SlotScheduler(4, speculation=NO_SPEC).run_stage("t", [])
        assert timeline.makespan_ms == 0.0
        assert timeline.runs == []


class TestStragglers:
    def test_slowdown_multiplies_task_cost(self):
        faults = injector(
            FaultSpec(op="task.slow", count=1, factor=6.0)
        )
        timeline = SlotScheduler(4, faults=faults, speculation=NO_SPEC).run_stage(
            "t", [1.0, 1.0, 1.0, 1.0]
        )
        slowed = [r for r in timeline.runs if r.slow_factor > 1.0]
        assert len(slowed) == 1
        assert slowed[0].duration_ms == pytest.approx(6.0)
        assert timeline.makespan_ms == pytest.approx(6.0)
        assert timeline.skew_ratio > 2.0

    def test_probe_order_is_task_index_order(self):
        # Only task 2 matches the spec's selector: the probe passes
        # stage/task detail, so plans can target one task deterministically.
        faults = injector(
            FaultSpec(op="task.slow", count=1, factor=3.0, match=(("task", "2"),))
        )
        timeline = SlotScheduler(2, faults=faults, speculation=NO_SPEC).run_stage(
            "t", [1.0, 1.0, 1.0, 1.0]
        )
        assert [r.slow_factor for r in sorted(timeline.runs, key=lambda r: r.task)] == [
            1.0, 1.0, 3.0, 1.0,
        ]


class TestSpeculation:
    def straggler_faults(self):
        return injector(
            FaultSpec(op="task.slow", count=1, factor=10.0, match=(("task", "0"),))
        )

    def test_backup_launches_wins_and_cancels_primary(self):
        timeline = SlotScheduler(
            4,
            faults=self.straggler_faults(),
            speculation=SpeculationConfig(quantile=0.5, threshold_multiplier=1.5),
        ).run_stage("t", [1.0] * 4)
        assert timeline.speculative_launched == 1
        assert timeline.speculative_wins == 1
        backups = [r for r in timeline.runs if r.speculative]
        assert len(backups) == 1 and backups[0].winner
        primary0 = next(r for r in timeline.runs if r.task == 0 and not r.speculative)
        assert primary0.cancelled and not primary0.winner
        # The cancelled loser ends when the backup wins, freeing its slot.
        assert primary0.end_ms == pytest.approx(backups[0].end_ms)
        # Backup launched at threshold (1.0 * 1.5), healthy cost 1.0.
        assert backups[0].start_ms == pytest.approx(1.5)
        assert timeline.makespan_ms == pytest.approx(2.5)

    def test_speculation_off_leaves_straggler_alone(self):
        timeline = SlotScheduler(
            4, faults=self.straggler_faults(), speculation=NO_SPEC
        ).run_stage("t", [1.0] * 4)
        assert timeline.speculative_launched == 0
        assert timeline.makespan_ms == pytest.approx(10.0)

    def test_no_speculation_before_min_completed(self):
        # A lone task can never be compared against completed peers.
        timeline = SlotScheduler(
            2,
            faults=injector(FaultSpec(op="task.slow", count=1, factor=5.0)),
            speculation=SpeculationConfig(min_completed=2),
        ).run_stage("t", [1.0])
        assert timeline.speculative_launched == 0

    def test_backups_only_use_idle_slots(self):
        # 2 slots, 4 tasks: when the straggler is detected the other slot
        # still has pending work, so no backup can launch until the queue
        # drains — and the backup must not preempt a running primary.
        timeline = SlotScheduler(
            2,
            faults=self.straggler_faults(),
            speculation=SpeculationConfig(quantile=0.5, threshold_multiplier=1.5),
        ).run_stage("t", [1.0] * 4)
        for backup in (r for r in timeline.runs if r.speculative):
            overlapping = [
                r
                for r in timeline.runs
                if r is not backup
                and r.slot == backup.slot
                and r.start_ms < backup.end_ms
                and backup.start_ms < r.end_ms
            ]
            assert not overlapping

    def test_fault_stream_identical_with_and_without_speculation(self):
        # Backups never probe the injector: the replay log must be
        # byte-identical either way (the determinism contract).
        logs = []
        for speculation in (SpeculationConfig(), NO_SPEC):
            faults = injector(
                FaultSpec(op="task.slow", rate=0.3, factor=8.0), seed=11
            )
            SlotScheduler(4, faults=faults, speculation=speculation).run_stage(
                "t", [1.0] * 8
            )
            logs.append([(e.op, e.error) for e in faults.events])
        assert logs[0] == logs[1]


class TestPerStageFinalize:
    """The scan-accounting bugfix: waves are per-stage, never pooled."""

    def stats_with_stages(self):
        stats = QueryStats()
        # 3 + 1 tasks across two stages; uniform within each stage.
        stats.scan_work_ms = 40.0
        stats.scan_tasks = 4
        stats.scan_stages = [
            StageScan("a", 30.0, [10.0, 10.0, 10.0]),
            StageScan("b", 10.0, [10.0]),
        ]
        return stats

    def test_stages_schedule_independently(self):
        stats = self.stats_with_stages()
        stats.finalize(slots=2, startup_ms=0.0)
        # Per-stage: ceil(3/2)*10 + ceil(1/2)*10 = 30. The old pooled
        # model said ceil(4/2) waves over 4 tasks = 40 * 2/4 = 20 — wrong
        # (it let stage b's slot "help" stage a retroactively).
        pooled = 40.0 * math.ceil(4 / 2) / 4
        assert stats.elapsed_ms == pytest.approx(30.0)
        assert stats.elapsed_ms != pytest.approx(pooled)

    def test_single_uniform_stage_matches_legacy_wave_model(self):
        # Where the old model was right, the new one must agree exactly.
        stats = QueryStats()
        stats.scan_work_ms = 30.0
        stats.scan_tasks = 3
        stats.scan_stages = [StageScan("a", 30.0, [10.0] * 3)]
        stats.finalize(slots=2, startup_ms=0.0)
        assert stats.elapsed_ms == pytest.approx(30.0 * math.ceil(3 / 2) / 3)

    def test_stage_less_work_uses_legacy_wave_model(self):
        # ML batch scoring bumps scan_work_ms without stages; it keeps the
        # wave formula (3 tasks, 2 slots -> 2 waves -> 2/3 of the work).
        stats = QueryStats()
        stats.scan_work_ms = 30.0
        stats.scan_tasks = 3
        stats.finalize(slots=2, startup_ms=0.0)
        assert stats.elapsed_ms == pytest.approx(20.0)
        assert stats.task_timeline == []

    def test_timeline_and_skew_surface_on_stats(self):
        stats = self.stats_with_stages()
        stats.finalize(slots=2, startup_ms=5.0)
        assert len(stats.task_timeline) == 4
        assert stats.task_skew == pytest.approx(1.0)
        # Stage b starts after stage a's makespan, offset by startup.
        stage_b = [r for r in stats.task_timeline if r.stage == "b"]
        assert stage_b[0].start_ms == pytest.approx(5.0 + 20.0)


def _pin_stats(planning, stages, compute, extra_ms=0.0, extra_tasks=0):
    stats = QueryStats()
    stats.planning_ms = planning
    stats.compute_ms = compute
    stats.scan_stages = [StageScan(name, sum(costs), list(costs)) for name, costs in stages]
    stats.scan_work_ms = sum(sum(costs) for _, costs in stages) + extra_ms
    stats.scan_tasks = sum(len(costs) for _, costs in stages) + extra_tasks
    return stats


_PIN_STAGES = [
    ("orders", [12.3, 4.1, 9.7, 2.2, 7.9, 1.3]),
    ("lineitem", [4.4, 4.4, 9.1]),
]
# Whole-job verdicts of ``QueryStats.finalize`` as the per-stage scheduler
# produced them (captured at 9c8522e, before a solo query became a one-job
# batch on the slot pool). Timeline rows are ``attempt_facts`` tuples:
# (stage, task, slot, speculative, winner, cancelled, start_ms, end_ms,
# cost_ms, slow_factor).
_PINS = {
    'two_stages_and_compute': dict(
        elapsed_ms=79.43333333333332, slot_ms=72.1, task_skew=1.998194945848375,
        speculative_count=3, speculative_wins=0,
        compute_parallelism=3,
        timeline=[
            ('orders', 0, 0, False, True, False, 53.7, 66.0, 12.3, 1.0),
            ('orders', 2, 1, False, True, False, 53.7, 63.400000000000006, 9.7, 1.0),
            ('orders', 4, 2, False, True, False, 53.7, 61.6, 7.9, 1.0),
            ('orders', 1, 3, False, True, False, 53.7, 57.800000000000004, 4.1, 1.0),
            ('orders', 3, 3, False, True, False, 57.800000000000004, 60.00000000000001, 2.2, 1.0),
            ('orders', 5, 3, False, True, False, 60.00000000000001, 61.300000000000004, 1.3, 1.0),
            ('orders', 0, 3, True, False, True, 61.300000000000004, 66.0, 4.699999999999996, 1.0),
            ('orders', 2, 2, True, False, True, 61.6, 63.400000000000006, 1.8000000000000043, 1.0),
            ('lineitem', 2, 0, False, True, False, 66.0, 75.1, 9.1, 1.0),
            ('lineitem', 0, 1, False, True, False, 66.0, 70.4, 4.4, 1.0),
            ('lineitem', 1, 2, False, True, False, 66.0, 70.4, 4.4, 1.0),
            ('lineitem', 2, 1, True, False, True, 72.60000000000001, 75.1, 2.499999999999986, 1.0),
            ('compute', 0, 0, False, True, False, 75.1, 79.43333333333332, 4.333333333333333, 1.0),
            ('compute', 1, 1, False, True, False, 75.1, 79.43333333333332, 4.333333333333333, 1.0),
            ('compute', 2, 2, False, True, False, 75.1, 79.43333333333332, 4.333333333333333, 1.0),
        ],
    ),
    'stage_less_tail': dict(
        elapsed_ms=27.450000000000003, slot_ms=32.900000000000006, task_skew=1.0,
        speculative_count=0, speculative_wins=0,
        compute_parallelism=2,
        timeline=[
            ('compute', 0, 0, False, True, False, 27.1, 27.450000000000003, 0.35, 1.0),
            ('compute', 1, 1, False, True, False, 27.1, 27.450000000000003, 0.35, 1.0),
        ],
    ),
    'no_compute': dict(
        elapsed_ms=22.9, slot_ms=55.99999999999999, task_skew=1.9981949458483754,
        speculative_count=2, speculative_wins=0,
        compute_parallelism=3,
        timeline=[
            ('orders', 0, 0, False, True, False, 0.6, 12.9, 12.3, 1.0),
            ('orders', 2, 1, False, True, False, 0.6, 10.299999999999999, 9.7, 1.0),
            ('orders', 4, 2, False, True, False, 0.6, 8.5, 7.9, 1.0),
            ('orders', 1, 2, False, True, False, 8.5, 12.6, 4.1, 1.0),
            ('orders', 3, 1, False, True, False, 10.299999999999999, 12.5, 2.2, 1.0),
            ('orders', 5, 1, False, True, False, 12.5, 13.8, 1.3, 1.0),
            ('orders', 0, 2, True, False, True, 12.6, 12.9, 0.3000000000000007, 1.0),
            ('lineitem', 2, 0, False, True, False, 13.8, 22.9, 9.1, 1.0),
            ('lineitem', 0, 1, False, True, False, 13.8, 18.200000000000003, 4.4, 1.0),
            ('lineitem', 1, 2, False, True, False, 13.8, 18.200000000000003, 4.4, 1.0),
            ('lineitem', 2, 1, True, False, True, 20.400000000000006, 22.9, 2.499999999999993, 1.0),
        ],
    ),
    'stragglers': dict(
        elapsed_ms=129.8, slot_ms=72.1, task_skew=2.8319427890345654,
        speculative_count=3, speculative_wins=3,
        compute_parallelism=4,
        timeline=[
            ('orders', 0, 0, False, False, True, 53.7, 77.85, 24.14999999999999, 6.0),
            ('orders', 2, 1, False, False, True, 53.7, 77.50000000000001, 23.80000000000001, 6.0),
            ('orders', 4, 2, False, True, False, 53.7, 61.6, 7.9, 1.0),
            ('orders', 1, 3, False, True, False, 53.7, 57.800000000000004, 4.1, 1.0),
            ('orders', 3, 3, False, True, False, 57.800000000000004, 60.00000000000001, 2.2, 1.0),
            ('orders', 5, 3, False, True, False, 60.00000000000001, 67.80000000000001, 7.800000000000001, 6.0),
            ('orders', 0, 2, True, True, False, 65.55, 77.85, 12.3, 1.0),
            ('orders', 2, 3, True, True, False, 67.80000000000001, 77.50000000000001, 9.7, 1.0),
            ('lineitem', 2, 0, False, False, True, 77.85, 126.55, 48.7, 6.0),
            ('lineitem', 0, 1, False, True, False, 77.85, 104.25, 26.400000000000002, 6.0),
            ('lineitem', 1, 2, False, True, False, 77.85, 82.25, 4.4, 1.0),
            ('lineitem', 2, 1, True, True, False, 117.45, 126.55, 9.1, 1.0),
            ('compute', 0, 0, False, True, False, 126.55, 129.8, 3.25, 1.0),
            ('compute', 1, 1, False, True, False, 126.55, 129.8, 3.25, 1.0),
            ('compute', 2, 2, False, True, False, 126.55, 129.8, 3.25, 1.0),
            ('compute', 3, 3, False, True, False, 126.55, 129.8, 3.25, 1.0),
        ],
    ),
}


class TestFinalizePins:
    """``QueryStats.finalize`` reproduces the pinned verdicts bit for bit."""

    def check(self, name, stats, **kwargs):
        stats.finalize(**kwargs)
        pin = _PINS[name]
        assert stats.elapsed_ms == pin["elapsed_ms"]
        assert stats.slot_ms == pin["slot_ms"]
        assert stats.task_skew == pin["task_skew"]
        assert stats.speculative_count == pin["speculative_count"]
        assert stats.speculative_wins == pin["speculative_wins"]
        assert stats.compute_parallelism == pin["compute_parallelism"]
        assert [attempt_facts(r) for r in stats.task_timeline] == pin["timeline"]

    def test_two_stages_and_compute(self):
        self.check(
            "two_stages_and_compute", _pin_stats(3.7, _PIN_STAGES, 13.0),
            slots=4, startup_ms=50.0, shuffle_partitions=3,
        )

    def test_stage_less_wave_tail(self):
        # 3 stage-less tasks on 2 slots: two waves, 2/3 of 30.3 ms elapse.
        self.check(
            "stage_less_tail",
            _pin_stats(1.9, [], 0.7, extra_ms=30.3, extra_tasks=3),
            slots=2, startup_ms=5.0,
        )

    def test_no_compute(self):
        self.check(
            "no_compute", _pin_stats(0.6, _PIN_STAGES, 0.0), slots=3, startup_ms=0.0
        )

    def test_stragglers_with_winning_backups(self):
        assert _PINS["stragglers"]["speculative_wins"] >= 1
        self.check(
            "stragglers", _pin_stats(3.7, _PIN_STAGES, 13.0),
            slots=4, startup_ms=50.0, shuffle_partitions=8,
            faults=injector(
                FaultSpec(op="task.slow", rate=0.4, factor=6.0), seed=3
            ),
            speculation=SpeculationConfig(),
        )
