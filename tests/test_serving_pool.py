"""Unit tests for the shared slot pool (``repro.serving.pool``).

The pool is a pure model — a replayable function of its arrival batch —
so these tests drive it directly with synthetic job shapes: the solo-job
equivalence against the single-stage reference loop in
``tests/reference_scheduler.py`` (a job alone on the pool gets that
loop's verdict, attempt for attempt and bit for bit), admission control
and fair-share ordering, weighted slot sharing, inter-stage overlap
gating, and cancellation of queued vs running jobs at the pool level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine.engine import QueryStats, StageScan
from repro.engine.scheduler import SlotScheduler, SpeculationConfig
from repro.faults import FaultPlan
from repro.serving.pool import (
    PoolArrival,
    PoolExecution,
    PoolOpaque,
    PoolStage,
    SlotPool,
)
from repro.simtime import SimContext
from tests.reference_scheduler import (
    ReferenceScheduler,
    attempt_facts,
    reference_job,
)

SLOTS = 4
STAGE1 = [5.0, 3.0, 8.0, 2.0, 7.0, 1.0]
STAGE2 = [4.0, 4.0, 9.0]
STRAGGLERS = ["task.slow:rate=0.4:factor=6"]


def probe_factors(plan, seed, shapes):
    """Replay the straggler probes the engine performs: one per task,
    stage order, index order, on a fresh same-seed injector."""
    ctx = SimContext()
    ctx.faults.install(FaultPlan.parse(plan, seed=seed))
    return [
        [
            ctx.faults.slowdown("task.slow", stage=name, task=i)
            for i in range(len(costs))
        ]
        for name, costs in shapes
    ]


def run_solo(pool: SlotPool, work, arrival_ms: float = 0.0):
    verdicts = pool.run(
        [PoolArrival(key=0, principal="user:a", arrival_ms=arrival_ms)],
        lambda key, admitted_ms: work,
    )
    return verdicts[0]


class ScriptedFaults:
    """Stands in for the fault injector: hands back pre-drawn ``task.slow``
    factors and counts the probes."""

    def __init__(self, slow: dict[str, list[float]]) -> None:
        self.slow = slow
        self.probes: list[tuple[str, int]] = []

    def slowdown(self, op: str, *, stage: str, task: int) -> float:
        assert op == "task.slow"
        self.probes.append((stage, task))
        return self.slow[stage][task]


@dataclass
class SoloJob:
    """One job shape, in the terms both the pool and the reference take."""

    slots: int
    prelude_ms: float = 0.0
    stages: list[tuple[str, list[float]]] = field(default_factory=list)
    slow: dict[str, list[float]] = field(default_factory=dict)
    tail_ms: float = 0.0
    compute_ms: float = 0.0
    compute_tasks: int = 1
    speculation: SpeculationConfig = field(default_factory=SpeculationConfig)

    def execution(self) -> PoolExecution:
        return PoolExecution(
            prelude_ms=self.prelude_ms,
            stages=[
                PoolStage(name, costs, self.slow[name]) for name, costs in self.stages
            ],
            tail_ms=self.tail_ms,
            compute_ms=self.compute_ms,
            compute_tasks=self.compute_tasks,
            speculation=self.speculation,
        )

    def reference(self) -> dict:
        return reference_job(
            self.slots, self.prelude_ms, self.stages, self.tail_ms,
            self.compute_ms, self.compute_tasks,
            faults=ScriptedFaults(self.slow), speculation=self.speculation,
        )


# Quarter-millisecond grid: every sum, product and difference the two
# schedulers form is then exact in binary floating point, so ``==`` compares
# the algorithms and not the order in which they happen to add.
quarters = st.integers(0, 400).map(lambda q: q / 4)


@st.composite
def solo_jobs(draw, stragglers: bool, offset_safe: bool = False):
    """``offset_safe`` keeps ``compute_ms / compute_tasks`` on the grid too
    (a power-of-two split), for jobs admitted at a non-zero pool offset:
    the verdict subtracts that offset back out of every time."""
    slots = draw(st.integers(1, 8))
    factors = st.sampled_from([1.0, 2.0, 6.0]) if stragglers else st.just(1.0)
    stages, slow = [], {}
    for k in range(draw(st.integers(0, 3))):
        costs = draw(st.lists(quarters, max_size=12))
        if not costs:
            continue  # the engine never records a stage without a task
        stages.append((f"s{k}", costs))
        slow[f"s{k}"] = draw(
            st.lists(factors, min_size=len(costs), max_size=len(costs))
        )
    speculation = SpeculationConfig(
        enabled=draw(st.booleans()),
        quantile=draw(st.sampled_from([0.0, 0.5, 0.75, 1.0])),
        threshold_multiplier=draw(st.sampled_from([1.0, 1.5, 2.0])),
        min_completed=draw(st.integers(1, 4)),
    )
    partitions = min(slots, draw(st.integers(1, 8)))
    if offset_safe:
        partitions = 1 << (partitions.bit_length() - 1)
    return SoloJob(
        slots=slots,
        prelude_ms=draw(quarters),
        stages=stages,
        slow=slow,
        tail_ms=draw(st.one_of(st.just(0.0), quarters)),
        compute_ms=draw(st.one_of(st.just(0.0), quarters)),
        compute_tasks=partitions,
        speculation=speculation,
    )


def assert_solo_matches_reference(job: SoloJob, arrival_ms: float = 0.0):
    """The pool's verdict for ``job`` alone == the reference's, exactly."""
    verdict = run_solo(SlotPool(slots=job.slots), job.execution(), arrival_ms)
    expected = job.reference()
    assert verdict.state == "done"
    assert verdict.admitted_ms == arrival_ms and verdict.queue_wait_ms == 0.0
    assert verdict.elapsed_ms == expected["elapsed_ms"]
    assert [attempt_facts(r) for r in verdict.runs] == [
        attempt_facts(r) for r in expected["runs"]
    ]
    assert verdict.speculative_launched == expected["speculative_launched"]
    assert verdict.speculative_wins == expected["speculative_wins"]
    assert verdict.task_skew == expected["task_skew"]
    return verdict


HEALTHY = SoloJob(
    slots=SLOTS, prelude_ms=10.0, stages=[("s1", STAGE1), ("s2", STAGE2)],
    slow={"s1": [1.0] * len(STAGE1), "s2": [1.0] * len(STAGE2)},
    compute_ms=12.0, compute_tasks=3,
)
SEEDED = SoloJob(
    slots=SLOTS, prelude_ms=10.0, stages=[("s1", STAGE1), ("s2", STAGE2)],
    slow=dict(
        zip(
            ("s1", "s2"),
            probe_factors(STRAGGLERS, 3, [("s1", STAGE1), ("s2", STAGE2)]),
        )
    ),
)
TAIL_ONLY = SoloJob(
    slots=SLOTS, prelude_ms=5.0, tail_ms=20.0, compute_ms=8.0, compute_tasks=2
)


class TestSoloEquivalence:
    """A solo job on an empty pool == the reference scheduler's verdict."""

    @settings(max_examples=150, deadline=None)
    @given(job=solo_jobs(stragglers=False))
    @example(job=HEALTHY)
    def test_healthy_solo_job_matches_scheduler(self, job):
        verdict = assert_solo_matches_reference(job)
        if job is HEALTHY:
            assert verdict.elapsed_ms == 10.0 + 8.0 + 9.0 + 12.0 / 3

    @settings(max_examples=300, deadline=None)
    @given(job=solo_jobs(stragglers=True))
    @example(job=SEEDED)
    def test_straggler_and_speculation_timeline_matches_scheduler(self, job):
        verdict = assert_solo_matches_reference(job)
        if job is SEEDED:
            assert verdict.speculative_wins  # the seeded example is non-trivial

    @settings(max_examples=100, deadline=None)
    @given(job=solo_jobs(stragglers=True, offset_safe=True), arrival_ms=quarters)
    @example(job=TAIL_ONLY, arrival_ms=100.0)
    def test_tail_and_arrival_offset(self, job, arrival_ms):
        verdict = assert_solo_matches_reference(job, arrival_ms)
        if job is TAIL_ONLY:
            assert verdict.elapsed_ms == 5.0 + 20.0 + 8.0 / 2

    @settings(max_examples=200, deadline=None)
    @given(
        slots=st.integers(1, 8),
        costs=st.lists(quarters, max_size=12),
        start_ms=quarters,
        data=st.data(),
    )
    def test_one_stage_entry_point_matches_reference(
        self, slots, costs, start_ms, data
    ):
        slow = data.draw(
            st.lists(
                st.sampled_from([1.0, 2.0, 6.0]),
                min_size=len(costs), max_size=len(costs),
            )
        )
        spec = SpeculationConfig(min_completed=data.draw(st.integers(1, 4)))
        mine_faults, ref_faults = ScriptedFaults({"t": slow}), ScriptedFaults({"t": slow})
        mine = SlotScheduler(slots, faults=mine_faults, speculation=spec).run_stage(
            "t", costs, start_ms=start_ms
        )
        ref = ReferenceScheduler(slots, faults=ref_faults, speculation=spec).run_stage(
            "t", costs, start_ms=start_ms
        )
        assert mine_faults.probes == ref_faults.probes == [
            ("t", i) for i in range(len(costs))
        ]
        assert [attempt_facts(r) for r in mine.runs] == [attempt_facts(r) for r in ref.runs]
        assert (
            mine.slots, mine.task_count, mine.makespan_ms, mine.skew_ratio,
            mine.speculative_launched, mine.speculative_wins,
        ) == (
            ref.slots, ref.task_count, ref.makespan_ms, ref.skew_ratio,
            ref.speculative_launched, ref.speculative_wins,
        )

    @settings(max_examples=150, deadline=None)
    @given(job=solo_jobs(stragglers=True))
    def test_query_stats_finalize_matches_reference(self, job):
        stats = QueryStats()
        stats.planning_ms = job.prelude_ms
        stats.compute_ms = job.compute_ms
        stats.scan_stages = [
            StageScan(name, sum(costs), costs) for name, costs in job.stages
        ]
        # A stage-less tail of ``slots`` equal tasks is one wave: tail_ms.
        stats.scan_work_ms = sum(s.scan_ms for s in stats.scan_stages) + job.tail_ms * job.slots
        stats.scan_tasks = sum(s.tasks for s in stats.scan_stages) + job.slots
        faults = ScriptedFaults(job.slow)
        stats.finalize(
            job.slots, 0.0, shuffle_partitions=job.compute_tasks,
            faults=faults, speculation=job.speculation,
        )
        expected = job.reference()
        assert faults.probes == [
            (name, i) for name, costs in job.stages for i in range(len(costs))
        ]
        assert stats.elapsed_ms == expected["elapsed_ms"]
        assert [attempt_facts(r) for r in stats.task_timeline] == [
            attempt_facts(r) for r in expected["runs"]
        ]
        assert (
            stats.speculative_count, stats.speculative_wins, stats.task_skew
        ) == (
            expected["speculative_launched"], expected["speculative_wins"],
            expected["task_skew"],
        )


class TestAdmission:
    def test_fifo_within_principal(self):
        pool = SlotPool(slots=2, max_concurrent_jobs=1)
        arrivals = [
            PoolArrival(key=i, principal="user:a", arrival_ms=float(i))
            for i in range(3)
        ]
        verdicts = pool.run(
            arrivals, lambda key, now: PoolOpaque(elapsed_ms=10.0)
        )
        admitted = [verdicts[i].admitted_ms for i in range(3)]
        assert admitted == sorted(admitted)
        assert admitted == [0.0, 10.0, 20.0]

    def test_fair_share_across_principals(self):
        # a queues three jobs before b's lands; with one seat the pool
        # still alternates: b has fewer admitted jobs than a after a's
        # first, so b goes second — not after a's whole backlog.
        pool = SlotPool(slots=2, max_concurrent_jobs=1)
        arrivals = [
            PoolArrival(key=0, principal="user:a", arrival_ms=0.0),
            PoolArrival(key=1, principal="user:a", arrival_ms=0.0),
            PoolArrival(key=2, principal="user:a", arrival_ms=0.0),
            PoolArrival(key=3, principal="user:b", arrival_ms=1.0),
        ]
        verdicts = pool.run(
            arrivals, lambda key, now: PoolOpaque(elapsed_ms=10.0)
        )
        order = sorted(range(4), key=lambda k: verdicts[k].admitted_ms)
        assert order == [0, 3, 1, 2]
        assert verdicts[3].queue_wait_ms == pytest.approx(9.0)

    def test_admission_gate_bounds_concurrency(self):
        pool = SlotPool(slots=8, max_concurrent_jobs=2)
        arrivals = [
            PoolArrival(key=i, principal=f"user:p{i}", arrival_ms=0.0)
            for i in range(4)
        ]
        verdicts = pool.run(
            arrivals, lambda key, now: PoolOpaque(elapsed_ms=10.0)
        )
        admitted = sorted(v.admitted_ms for v in verdicts.values())
        assert admitted == [0.0, 0.0, 10.0, 10.0]


class TestWeightedSharing:
    SHAPE = PoolExecution(
        prelude_ms=0.0,
        stages=[PoolStage("scan", [4.0] * 8, [1.0] * 8)],
        speculation=SpeculationConfig(enabled=False),
    )

    def run_pair(self, weights):
        pool = SlotPool(slots=2, max_concurrent_jobs=2, weights=weights)
        arrivals = [
            PoolArrival(key=0, principal="user:a", arrival_ms=0.0),
            PoolArrival(key=1, principal="user:b", arrival_ms=0.0),
        ]
        return pool.run(arrivals, lambda key, now: self.SHAPE)

    def test_reservation_weight_shifts_slot_share(self):
        fair = self.run_pair({})
        tilted = self.run_pair({"user:b": 4.0})
        # With 4x the reservation, b drains its stage strictly earlier
        # than under equal shares — at a's expense, not the pool's.
        assert tilted[1].end_ms < fair[1].end_ms
        assert tilted[0].end_ms >= fair[0].end_ms
        # Total work conserved: the batch ends at the same makespan.
        assert max(v.end_ms for v in tilted.values()) == pytest.approx(
            max(v.end_ms for v in fair.values())
        )


class TestInterStageOverlap:
    # Two scan stages: sequential gating runs s2 after s1's barrier;
    # overlap makes both stages' tasks runnable at prelude end.
    SHAPE = PoolExecution(
        prelude_ms=2.0,
        stages=[
            PoolStage("s1", [10.0, 10.0], [1.0, 1.0]),
            PoolStage("s2", [2.0, 2.0], [1.0, 1.0]),
        ],
        speculation=SpeculationConfig(enabled=False),
    )

    def test_stage_barrier_removed(self):
        verdict = run_solo(
            SlotPool(slots=8, inter_stage_overlap=True), self.SHAPE
        )
        s1_end = max(r.end_ms for r in verdict.runs if r.stage == "s1")
        s2_start = min(r.start_ms for r in verdict.runs if r.stage == "s2")
        assert s2_start < s1_end  # pipelined, not barriered
        # Idle slots absorb s2 entirely: elapsed = prelude + max makespan,
        # not prelude + sum of stage makespans.
        assert verdict.elapsed_ms == pytest.approx(2.0 + 10.0)

    def test_overlap_strictly_faster_than_sequential_here(self):
        sequential = run_solo(SlotPool(slots=8), self.SHAPE)
        overlapped = run_solo(
            SlotPool(slots=8, inter_stage_overlap=True), self.SHAPE
        )
        assert sequential.elapsed_ms == pytest.approx(2.0 + 10.0 + 2.0)
        assert overlapped.elapsed_ms < sequential.elapsed_ms

    def test_feederless_partitions_release_at_prelude(self):
        # 2 scan tasks feeding 4 compute partitions: partitions 2 and 3
        # have no feeders, release at prelude end, and must not deadlock.
        shape = PoolExecution(
            prelude_ms=1.0,
            stages=[PoolStage("scan", [3.0, 3.0], [1.0, 1.0])],
            compute_ms=16.0,
            compute_tasks=4,
            speculation=SpeculationConfig(enabled=False),
        )
        verdict = run_solo(SlotPool(slots=8, inter_stage_overlap=True), shape)
        assert verdict.state == "done"
        # p2/p3 run 1->5, scans 1->4, p0/p1 4->8: ends at 8, no deadlock.
        assert verdict.elapsed_ms == pytest.approx(8.0)


class TestCancellation:
    def test_cancel_queued_job_never_runs(self):
        pool = SlotPool(slots=2, max_concurrent_jobs=1)
        executed = []

        def execute(key, now):
            executed.append(key)
            if key == 0:
                pool.cancel(1)
            return PoolOpaque(elapsed_ms=10.0)

        verdicts = pool.run(
            [
                PoolArrival(key=0, principal="user:a", arrival_ms=0.0),
                PoolArrival(key=1, principal="user:b", arrival_ms=0.0),
            ],
            execute,
        )
        assert executed == [0]  # the cancelled job's work never ran
        assert verdicts[1].state == "cancelled"
        assert not verdicts[1].admitted

    def test_cancel_running_job_frees_slots(self):
        long_stage = PoolExecution(
            prelude_ms=0.0,
            stages=[PoolStage("scan", [100.0] * 4, [1.0] * 4)],
            speculation=SpeculationConfig(enabled=False),
        )
        short = PoolExecution(
            prelude_ms=0.0,
            stages=[PoolStage("scan", [5.0, 5.0], [1.0, 1.0])],
            speculation=SpeculationConfig(enabled=False),
        )
        pool = SlotPool(slots=2, max_concurrent_jobs=2)

        def execute(key, now):
            if key == 1:
                pool.cancel(0)  # job 0 is mid-flight by now
                return short
            return long_stage

        verdicts = pool.run(
            [
                PoolArrival(key=0, principal="user:a", arrival_ms=0.0),
                PoolArrival(key=1, principal="user:b", arrival_ms=1.0),
            ],
            execute,
        )
        assert verdicts[0].state == "cancelled"
        assert verdicts[0].admitted
        assert verdicts[0].end_ms == pytest.approx(1.0)  # torn down at cancel
        # Its in-flight attempts are truncated, not completed...
        attempts = verdicts[0].runs
        assert attempts and all(r.cancelled for r in attempts)
        assert all(r.end_ms <= 1.0 + 1e-9 for r in attempts)
        # ...and the freed slots let the second job run unimpeded.
        assert verdicts[1].state == "done"
        assert verdicts[1].elapsed_ms == pytest.approx(5.0)

    def test_cancel_after_verdict_is_refused(self):
        pool = SlotPool(slots=2)
        verdicts = pool.run(
            [PoolArrival(key=0, principal="user:a", arrival_ms=0.0)],
            lambda key, now: PoolOpaque(elapsed_ms=1.0),
        )
        assert verdicts[0].state == "done"
        assert pool.cancel(0) is False

    def test_failed_opaque_job_reports_failed(self):
        verdict = run_solo(
            SlotPool(slots=2), PoolOpaque(elapsed_ms=3.0, failed=True)
        )
        assert verdict.state == "failed"
        assert verdict.elapsed_ms == pytest.approx(3.0)
