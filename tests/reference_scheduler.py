"""Reference scheduler: what the slot pool's solo verdict is compared against.

:class:`ReferenceScheduler` is the single-stage event loop
``repro.engine.scheduler.SlotScheduler`` had before it became an entry
point onto :class:`repro.serving.pool.SlotPool` — kept verbatim (greedy
LPT, work stealing, stragglers, speculative backups), because a scheduler
that *is* the pool cannot be the pool's oracle. :func:`reference_job`
chains it over a whole job the way ``QueryStats.finalize`` then did: a
serial prelude, the stages back to back, the stage-less tail, and compute
partitions on slots ``0..K-1``.

Not collected by pytest (no ``test_`` prefix); imported by the
equivalence tests only.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING

from repro.engine.scheduler import (
    SpeculationConfig,
    StageTimeline,
    TaskRun,
    duration_quantile,
)

if TYPE_CHECKING:
    from repro.faults import FaultInjector


class ReferenceScheduler:
    """Deterministic greedy-LPT slot pool with stragglers and speculation.

    ``faults`` supplies ``task.slow`` slowdown factors (None = healthy);
    ``speculation`` configures backup tasks (None = defaults, enabled).
    The scheduler never draws randomness itself and never touches the sim
    clock — every number is model time derived from the task costs.
    """

    _FINISH = 0  # event kinds; FINISH sorts before CHECK at equal times
    _CHECK = 1

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
        n = len(costs)
        if n == 0:
            return StageTimeline(stage=stage, slots=self.slots, task_count=0, makespan_ms=0.0)

        # Straggler probes: once per task, in index order, independent of
        # slot count / speculation so the fault RNG stream is stable.
        slow = [1.0] * n
        if self.faults is not None:
            for i in range(n):
                slow[i] = self.faults.slowdown("task.slow", stage=stage, task=i)

        spec = self.speculation
        # LPT on the *estimated* (healthy) cost: the scheduler does not
        # know which tasks a fault slowed until they fail to come back.
        pending = deque(sorted(range(n), key=lambda i: (-costs[i], i)))
        free: list[int] = list(range(self.slots))
        heapq.heapify(free)
        events: list[tuple[float, int, int, object]] = []
        seq = 0
        runs: list[TaskRun] = []
        primary: dict[int, TaskRun] = {}
        backup: dict[int, TaskRun] = {}
        done: set[int] = set()
        completed: list[float] = []  # winner durations
        launched = 0
        wins = 0

        def push(at_ms: float, kind: int, payload: object) -> None:
            nonlocal seq
            seq += 1
            heapq.heappush(events, (at_ms, kind, seq, payload))

        def launch(task: int, now: float, speculative: bool) -> None:
            nonlocal launched
            slot = heapq.heappop(free)
            factor = 1.0 if speculative else slow[task]
            cost = costs[task] * factor
            run = TaskRun(
                stage=stage, task=task, slot=slot, start_ms=now,
                end_ms=now + cost, cost_ms=cost, slow_factor=factor,
                speculative=speculative,
            )
            runs.append(run)
            if speculative:
                backup[task] = run
                launched += 1
            else:
                primary[task] = run
            push(run.end_ms, self._FINISH, run)

        def assign(now: float) -> None:
            while pending and free:
                launch(pending.popleft(), now, speculative=False)

        def threshold_ms() -> float:
            return duration_quantile(completed, spec.quantile) * spec.threshold_multiplier

        def maybe_speculate(now: float) -> None:
            """Launch (or schedule checks for) backups of running stragglers."""
            if not spec.enabled or pending or len(completed) < spec.min_completed:
                return
            limit = threshold_ms()
            for task in sorted(primary):
                if not free:
                    return
                if task in done or task in backup:
                    continue
                trigger = primary[task].start_ms + limit
                if trigger <= now:
                    launch(task, now, speculative=True)
                else:
                    # Re-evaluated when it fires; duplicates are no-ops.
                    push(trigger, self._CHECK, task)

        assign(start_ms)
        while events:
            now, kind, _, payload = heapq.heappop(events)
            if kind == self._CHECK:
                task = payload  # type: ignore[assignment]
                if (
                    spec.enabled and not pending and free
                    and task not in done and task not in backup
                    and len(completed) >= spec.min_completed
                ):
                    trigger = primary[task].start_ms + threshold_ms()
                    if trigger <= now:
                        launch(task, now, speculative=True)
                    else:
                        push(trigger, self._CHECK, task)
                continue
            run = payload  # type: ignore[assignment]
            if run.cancelled or run.task in done:
                continue  # stale finish event of a cancelled loser
            done.add(run.task)
            run.winner = True
            completed.append(run.duration_ms)
            heapq.heappush(free, run.slot)
            if run.speculative:
                wins += 1
            twin = primary.get(run.task) if run.speculative else backup.get(run.task)
            if twin is not None and twin is not run and not twin.cancelled:
                twin.cancelled = True
                twin.end_ms = now
                twin.cost_ms = twin.duration_ms
                heapq.heappush(free, twin.slot)
            assign(now)
            maybe_speculate(now)

        makespan = max((r.end_ms for r in runs), default=start_ms) - start_ms
        skew = 1.0
        if completed:
            mean = sum(completed) / len(completed)
            skew = (max(completed) / mean) if mean > 0 else 1.0
        return StageTimeline(
            stage=stage, slots=self.slots, task_count=n, makespan_ms=makespan,
            skew_ratio=skew, speculative_launched=launched,
            speculative_wins=wins, runs=runs,
        )


def attempt_facts(run: TaskRun) -> tuple:
    """Every field of one attempt, for ``==`` between two timelines."""
    return (
        run.stage, run.task, run.slot, run.speculative, run.winner,
        run.cancelled, run.start_ms, run.end_ms, run.cost_ms, run.slow_factor,
    )


def reference_job(
    slots: int,
    prelude_ms: float,
    stages: list[tuple[str, list[float]]],
    tail_ms: float = 0.0,
    compute_ms: float = 0.0,
    compute_tasks: int = 1,
    faults: "FaultInjector | None" = None,
    speculation: SpeculationConfig | None = None,
) -> dict:
    """A whole job's verdict by the pre-pool arithmetic: each stage starts
    at ``offset``, ``offset += makespan``; skew is max/mean over every
    winner in timeline order; compute partition ``p`` runs on slot ``p``
    from scan end."""
    scheduler = ReferenceScheduler(slots, faults=faults, speculation=speculation)
    runs: list[TaskRun] = []
    launched = wins = 0
    scan_elapsed = 0.0
    offset = prelude_ms
    winner_durations: list[float] = []
    for name, costs in stages:
        timeline = scheduler.run_stage(name, costs, start_ms=offset)
        offset += timeline.makespan_ms
        scan_elapsed += timeline.makespan_ms
        launched += timeline.speculative_launched
        wins += timeline.speculative_wins
        runs.extend(timeline.runs)
        winner_durations.extend(r.duration_ms for r in timeline.runs if r.winner)
    skew = 1.0
    if winner_durations:
        mean = sum(winner_durations) / len(winner_durations)
        if mean > 0:
            skew = max(winner_durations) / mean
    scan_elapsed += tail_ms
    if compute_ms > 0:
        start = prelude_ms + scan_elapsed
        per_partition = compute_ms / compute_tasks
        for p in range(compute_tasks):
            runs.append(
                TaskRun(
                    stage="compute", task=p, slot=p, start_ms=start,
                    end_ms=start + per_partition, cost_ms=per_partition,
                    winner=True,
                )
            )
    return {
        "elapsed_ms": prelude_ms + scan_elapsed + compute_ms / compute_tasks,
        "runs": runs,
        "task_skew": skew,
        "speculative_launched": launched,
        "speculative_wins": wins,
    }
