"""Scheduler value types, shared by the engine and the serving layer.

What a scan stage hands the slot pool and what it gets back:
:class:`SpeculationConfig` (the backup-task policy), :class:`TaskRun` (one
attempt on one slot — the rows of ``INFORMATION_SCHEMA.JOBS_TIMELINE``),
:class:`StageTimeline` (one stage's makespan, skew ratio = max/mean winner
duration, speculation counts), :func:`normalize_costs` (estimates set the
shape, measurement the scale) and :func:`probe_slow_factors` (the
``task.slow`` straggler draw). Everything here is model time: no sim-clock
advance, no wall clock, and no randomness beyond the fault injector's
seeded stream.

The event loop that places tasks on slots is
:class:`repro.serving.pool.SlotPool`; :class:`SlotScheduler` is its
one-stage entry point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.faults import FaultInjector


@dataclass(frozen=True)
class SpeculationConfig:
    """Backup-task policy (mirrors Hadoop/Spark speculative execution)."""

    enabled: bool = True
    # A task is a straggler once it has run longer than this quantile of
    # completed-task durations, times the multiplier.
    quantile: float = 0.75
    threshold_multiplier: float = 1.5
    # Never speculate before this many tasks have completed (the quantile
    # would be noise).
    min_completed: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.quantile <= 1.0:
            raise ValueError(f"speculation quantile must be in [0, 1], got {self.quantile}")
        if self.threshold_multiplier < 1.0:
            raise ValueError("speculation threshold_multiplier must be >= 1")
        if self.min_completed < 1:
            raise ValueError("speculation min_completed must be >= 1")


@dataclass
class TaskRun:
    """One task attempt (primary or speculative backup) on one slot."""

    stage: str
    task: int
    slot: int
    start_ms: float
    end_ms: float
    cost_ms: float  # modeled runtime of this attempt (slow factor included)
    slow_factor: float = 1.0
    speculative: bool = False
    winner: bool = False
    cancelled: bool = False

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms

    def to_dict(self) -> dict:
        """JSON-friendly view (CLI determinism gate, bench reports)."""
        return {
            "stage": self.stage,
            "task": self.task,
            "slot": self.slot,
            "start_ms": round(self.start_ms, 6),
            "end_ms": round(self.end_ms, 6),
            "cost_ms": round(self.cost_ms, 6),
            "slow_factor": self.slow_factor,
            "speculative": self.speculative,
            "winner": self.winner,
            "cancelled": self.cancelled,
        }


@dataclass
class StageTimeline:
    """The scheduler's verdict for one scan stage."""

    stage: str
    slots: int
    task_count: int
    makespan_ms: float
    skew_ratio: float = 1.0
    speculative_launched: int = 0
    speculative_wins: int = 0
    runs: list[TaskRun] = field(default_factory=list)


def duration_quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of ``values`` (deterministic, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def probe_slow_factors(faults: "FaultInjector | None", stage: str, tasks: int) -> list[float]:
    """``task.slow`` factor per task (1.0 = healthy). One probe per task, in
    task-index order, so the fault stream depends on neither the slot
    count, the pool's state nor whether speculation is enabled."""
    if faults is None:
        return [1.0] * tasks
    return [faults.slowdown("task.slow", stage=stage, task=i) for i in range(tasks)]


class SlotScheduler:
    """One scan stage, alone on ``slots`` slots: a one-stage, one-job batch
    on the slot pool.

    ``faults`` supplies ``task.slow`` slowdown factors (None = healthy);
    ``speculation`` configures backup tasks (None = defaults, enabled).
    """

    def __init__(
        self,
        slots: int,
        faults: "FaultInjector | None" = None,
        speculation: SpeculationConfig | None = None,
    ) -> None:
        self.slots = max(1, slots)
        self.faults = faults
        self.speculation = speculation or SpeculationConfig()

    def run_stage(
        self, stage: str, costs: list[float], start_ms: float = 0.0
    ) -> StageTimeline:
        """Schedule one stage's tasks; ``costs`` are healthy per-task costs."""
        # Imported here: the pool builds on this module's value types.
        from repro.serving.pool import PoolExecution, PoolStage, run_solo

        n = len(costs)
        if n == 0:
            return StageTimeline(stage=stage, slots=self.slots, task_count=0, makespan_ms=0.0)
        slow = probe_slow_factors(self.faults, stage, n)
        verdict = run_solo(
            self.slots,
            PoolExecution(
                prelude_ms=start_ms, stages=[PoolStage(stage, costs, slow)],
                speculation=self.speculation,
            ),
        )
        return StageTimeline(
            stage=stage, slots=self.slots, task_count=n,
            makespan_ms=max(r.end_ms for r in verdict.runs) - start_ms,
            skew_ratio=verdict.task_skew,
            speculative_launched=verdict.speculative_launched,
            speculative_wins=verdict.speculative_wins, runs=verdict.runs,
        )


def normalize_costs(task_costs: list[float] | None, total_ms: float, tasks: int) -> list[float]:
    """Scale relative per-task estimates so they sum to the *measured*
    stage scan time — estimates set the shape, measurement sets the scale.
    Falls back to a uniform split when estimates are missing/degenerate."""
    n = max(1, tasks)
    if not task_costs or len(task_costs) != n or min(task_costs) < 0:
        return [total_ms / n] * n
    weight = sum(task_costs)
    if weight <= 0:
        return [total_ms / n] * n
    return [c * total_ms / weight for c in task_costs]
