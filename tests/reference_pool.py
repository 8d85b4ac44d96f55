"""The slot pool as it was before it kept one pending speculation check per
(instant, job, stage, task): after every finish, ``_maybe_speculate`` pushes
a ``_CHECK`` event for every in-flight task, duplicates included. The class
is kept verbatim.

Not collected by pytest (no ``test_`` prefix); the oracle of
tests/test_serving_pool_checks.py.
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.engine.scheduler import TaskRun, duration_quantile
from repro.serving.pool import (
    _ARRIVAL,
    _CHECK,
    _FINISH,
    _JOB_END,
    _PHASE,
    _SETTLE,
    JobVerdict,
    PoolArrival,
    PoolExecution,
    PoolOpaque,
    _JobState,
    _StageState,
)


class SlotPool:
    """Deterministic multi-job slot pool with admission control.

    ``run()`` is single-shot: build a pool, feed it one batch of arrivals,
    read the verdicts. The ``execute`` callback performs the *real* work of
    a job at admission time (in admission order — which keeps cache state
    and fault-RNG consumption a pure function of the seed) and returns the
    schedulable shape; the pool then interleaves every admitted job's model
    time over the shared slots.
    """

    def __init__(
        self,
        slots: int,
        max_concurrent_jobs: int = 8,
        inter_stage_overlap: bool = False,
        weights: dict[str, float] | None = None,
    ) -> None:
        self.slots = max(1, slots)
        self.max_concurrent_jobs = max(1, max_concurrent_jobs)
        self.inter_stage_overlap = inter_stage_overlap
        self.weights = dict(weights or {})
        self._events: list[tuple[float, int, int, object]] = []
        self._seq = 0
        self._now = 0.0
        self._free: list[int] = []
        self._queued: dict[str, deque[PoolArrival]] = {}
        self._jobs: dict[int, _JobState] = {}  # admitted, not yet settled
        self._admit_seq: dict[int, int] = {}
        self._admitted_count: dict[str, int] = {}
        self._used_slot_ms: dict[str, float] = {}
        self._cancelled_keys: set[int] = set()
        self._verdicts: dict[int, JobVerdict] = {}
        self._execute = None
        self._on_admit = None

    # -- public API ---------------------------------------------------------

    def cancel(self, key: int) -> bool:
        """Cancel a job by key: drops it from the admission queue, or — if
        already running — deschedules its pending tasks, truncates its
        in-flight attempts at current model time, and frees their slots.
        Returns False once the job already reached a verdict."""
        verdict = self._verdicts.get(key)
        if verdict is not None and verdict.state != "running":
            return False
        self._cancelled_keys.add(key)
        job = self._jobs.get(key)
        if job is not None and not job.cancelled:
            job.cancelled = True
            if not job.opaque:
                self._push(self._now, _SETTLE, job)
        return True

    def run(self, arrivals, execute, on_admit=None) -> dict[int, JobVerdict]:
        """Simulate one batch. ``execute(key, admitted_ms)`` returns a
        :class:`PoolExecution` or :class:`PoolOpaque`; ``on_admit(key,
        admitted_ms)`` (optional) fires right before execution — the
        deterministic seam tests use to cancel a queued or running job."""
        self._execute = execute
        self._on_admit = on_admit
        self._free = list(range(self.slots))
        heapq.heapify(self._free)
        for arrival in arrivals:
            self._push(arrival.arrival_ms, _ARRIVAL, arrival)
        while self._events:
            now, kind, _, payload = heapq.heappop(self._events)
            self._now = now
            if kind == _ARRIVAL:
                self._arrive(payload, now)
            elif kind == _FINISH:
                self._finish(payload, now)
            elif kind == _SETTLE:
                self._settle_cancelled(payload, now)
            elif kind == _CHECK:
                self._speculation_check(payload, now)
            elif kind == _PHASE:
                self._phase(payload, now)
            elif kind == _JOB_END:
                self._opaque_end(payload, now)
        return self._verdicts

    # -- event plumbing -----------------------------------------------------

    def _push(self, at_ms: float, kind: int, payload: object) -> None:
        self._seq += 1
        heapq.heappush(self._events, (at_ms, kind, self._seq, payload))

    def _arrive(self, arrival: PoolArrival, now: float) -> None:
        self._queued.setdefault(arrival.principal, deque()).append(arrival)
        self._try_admit(now)

    # -- admission ----------------------------------------------------------

    def _running_of(self, principal: str) -> int:
        return sum(1 for j in self._jobs.values() if j.principal == principal)

    def _try_admit(self, now: float) -> None:
        while len(self._jobs) < self.max_concurrent_jobs:
            ready = sorted(
                (p for p, q in self._queued.items() if q),
                key=lambda p: (
                    self._running_of(p),
                    self._admitted_count.get(p, 0),
                    p,
                ),
            )
            if not ready:
                return
            arrival = self._queued[ready[0]].popleft()
            if arrival.key in self._cancelled_keys:
                self._verdicts[arrival.key] = JobVerdict(
                    key=arrival.key, principal=arrival.principal,
                    state="cancelled", arrival_ms=arrival.arrival_ms,
                    end_ms=now,
                )
                continue
            self._admit(arrival, now)

    def _admit(self, arrival: PoolArrival, now: float) -> None:
        self._admitted_count[arrival.principal] = (
            self._admitted_count.get(arrival.principal, 0) + 1
        )
        self._admit_seq[arrival.key] = len(self._admit_seq)
        if self._on_admit is not None:
            self._on_admit(arrival.key, now)
        if arrival.key in self._cancelled_keys:
            self._verdicts[arrival.key] = JobVerdict(
                key=arrival.key, principal=arrival.principal,
                state="cancelled", arrival_ms=arrival.arrival_ms,
                admitted_ms=now, end_ms=now, admitted=True,
            )
            return
        work = self._execute(arrival.key, now)
        if isinstance(work, PoolOpaque):
            # Failed statements and DML shells: a seat, not slots. Their
            # verdict is the real-work clock delta, same as the serial path.
            holder = _JobState(
                arrival.key, arrival.principal, PoolExecution(prelude_ms=0.0), now
            )
            holder.opaque = True
            holder.opaque_failed = work.failed
            holder.tail_done = True
            self._jobs[arrival.key] = holder
            self._verdicts[arrival.key] = JobVerdict(
                key=arrival.key, principal=arrival.principal, state="running",
                arrival_ms=arrival.arrival_ms, admitted_ms=now, admitted=True,
            )
            self._push(now + work.elapsed_ms, _JOB_END, holder)
            return
        job = _JobState(arrival.key, arrival.principal, work, now)
        self._jobs[arrival.key] = job
        self._verdicts[arrival.key] = JobVerdict(
            key=arrival.key, principal=arrival.principal, state="running",
            arrival_ms=arrival.arrival_ms, admitted_ms=now, admitted=True,
        )
        if self.inter_stage_overlap and job.tail_ms <= 0 and job.compute_ms > 0:
            # Partition p waits on scan tasks t ≡ p (mod K) of every stage.
            job.overlap_deps = [0] * job.compute_tasks
            for stage in job.stages:
                for t in range(stage.n):
                    job.overlap_deps[t % job.compute_tasks] += 1
        # The prelude is serial model time; stage/compute readiness lands
        # at its end.
        self._push(job.prelude_end, _PHASE, ("prelude", job))

    # -- job-phase transitions ----------------------------------------------

    def _phase(self, payload, now: float) -> None:
        phase, job = payload
        if job.key not in self._jobs or job.cancelled:
            return
        if phase == "prelude":
            self._on_prelude_done(job, now)
        else:  # "tail"
            job.tail_done = True
            self._open_compute(job, now)

    def _on_prelude_done(self, job: _JobState, now: float) -> None:
        if job.overlap_deps:
            # Overlap mode implies tail_ms == 0: compute partitions with no
            # scan feeders are runnable immediately.
            job.tail_done = True
            for p in range(job.compute_tasks):
                if job.overlap_deps[p] == 0:
                    job.compute_pending.append(p)
        if self.inter_stage_overlap:
            for stage in job.stages:
                stage.ready = True
        elif job.stages:
            job.stages[0].ready = True
        if not job.stages and not job.overlap_deps:
            self._after_scans(job, now)
            return
        self._assign(now)
        self._maybe_speculate(now)

    def _after_scans(self, job: _JobState, now: float) -> None:
        """All scan stages drained (sequential gating): run the tail, then
        (or directly) open the compute phase."""
        if job.tail_ms > 0:
            self._push(now + job.tail_ms, _PHASE, ("tail", job))
            return
        self._open_compute(job, now)

    def _open_compute(self, job: _JobState, now: float) -> None:
        job.tail_done = True
        if job.compute_ms <= 0 and job.compute_done == 0:
            self._complete(job, now)
            return
        job.compute_pending.extend(range(job.compute_tasks))
        self._assign(now)
        self._maybe_speculate(now)

    def _compute_finished(self, job: _JobState) -> bool:
        return (
            job.compute_done == job.compute_tasks
            and not job.compute_pending
            and not job.compute_inflight
        )

    def _complete(self, job: _JobState, now: float) -> None:
        verdict = self._verdicts[job.key]
        verdict.state = "done"
        verdict.end_ms = now
        self._finalize_verdict(job, verdict)
        del self._jobs[job.key]
        self._try_admit(now)

    def _settle_cancelled(self, job: _JobState, now: float) -> None:
        """Tear a cancelled running job down: cancel in-flight attempts at
        current model time, drop pending work, free the seat."""
        if job.key not in self._jobs:
            return
        for stage in job.stages:
            stage.pending.clear()
            for run in list(stage.primary.values()) + list(stage.backup.values()):
                if run.task not in stage.done and not run.cancelled:
                    run.cancelled = True
                    run.end_ms = max(run.start_ms, now)
                    run.cost_ms = run.duration_ms
                    heapq.heappush(self._free, run.slot)
        job.compute_pending.clear()
        for run in job.compute_inflight:
            run.cancelled = True
            run.end_ms = max(run.start_ms, now)
            run.cost_ms = run.duration_ms
            heapq.heappush(self._free, run.slot)
        job.compute_inflight = []
        verdict = self._verdicts[job.key]
        verdict.state = "cancelled"
        verdict.end_ms = now
        self._finalize_verdict(job, verdict)
        del self._jobs[job.key]
        self._try_admit(now)
        self._assign(now)
        self._maybe_speculate(now)

    def _finalize_verdict(self, job: _JobState, verdict: JobVerdict) -> None:
        base = job.admitted_ms
        verdict.runs = [
            TaskRun(
                stage=r.stage, task=r.task, slot=r.slot,
                start_ms=r.start_ms - base, end_ms=r.end_ms - base,
                cost_ms=r.cost_ms, slow_factor=r.slow_factor,
                speculative=r.speculative, winner=r.winner,
                cancelled=r.cancelled,
            )
            for r in job.runs
        ]
        verdict.speculative_launched = job.spec_launched
        verdict.speculative_wins = job.spec_wins
        winners = [d for s in job.stages for d in s.completed]
        if winners:
            mean = sum(winners) / len(winners)
            if mean > 0:
                verdict.task_skew = max(winners) / mean

    def _opaque_end(self, job: _JobState, now: float) -> None:
        if job.key not in self._jobs:
            return
        verdict = self._verdicts[job.key]
        if job.cancelled:
            verdict.state = "cancelled"
        else:
            verdict.state = "failed" if job.opaque_failed else "done"
        verdict.end_ms = now
        del self._jobs[job.key]
        self._try_admit(now)

    # -- task scheduling ----------------------------------------------------

    def _runnable_jobs(self) -> list[_JobState]:
        return [
            job
            for job in self._jobs.values()
            if not job.cancelled
            and (
                any(s.ready and s.pending for s in job.stages)
                or (job.tail_done and job.compute_pending)
            )
        ]

    def _weight(self, principal: str) -> float:
        w = self.weights.get(principal, 1.0)
        return w if w > 0 else 1.0

    def _pick_job(self, candidates: list[_JobState]) -> _JobState:
        return min(
            candidates,
            key=lambda j: (
                self._used_slot_ms.get(j.principal, 0.0) / self._weight(j.principal),
                j.principal,
                self._admit_seq[j.key],
            ),
        )

    def _assign(self, now: float) -> None:
        while self._free:
            candidates = self._runnable_jobs()
            if not candidates:
                return
            job = self._pick_job(candidates)
            for stage in job.stages:
                if stage.ready and stage.pending:
                    self._launch_scan(job, stage, stage.pending.popleft(), now, False)
                    break
            else:
                self._launch_compute(job, job.compute_pending.popleft(), now)

    def _launch_scan(
        self, job: _JobState, stage: _StageState, task: int, now: float,
        speculative: bool,
    ) -> None:
        slot = heapq.heappop(self._free)
        factor = 1.0 if speculative else stage.slow[task]
        cost = stage.costs[task] * factor
        run = TaskRun(
            stage=stage.name, task=task, slot=slot, start_ms=now,
            end_ms=now + cost, cost_ms=cost, slow_factor=factor,
            speculative=speculative,
        )
        job.runs.append(run)
        if speculative:
            stage.backup[task] = run
            job.spec_launched += 1
        else:
            stage.primary[task] = run
        self._used_slot_ms[job.principal] = (
            self._used_slot_ms.get(job.principal, 0.0) + cost
        )
        self._push(run.end_ms, _FINISH, (job, stage, run))

    def _launch_compute(self, job: _JobState, partition: int, now: float) -> None:
        slot = heapq.heappop(self._free)
        cost = job.compute_ms / job.compute_tasks
        run = TaskRun(
            stage="compute", task=partition, slot=slot, start_ms=now,
            end_ms=now + cost, cost_ms=cost,
        )
        job.compute_inflight.append(run)
        # Compute partitions occupy slots like scan tasks do, so they
        # belong in the attempt timeline: RESERVATION_TIMELINE slot-ms is
        # derived from these runs and must tie out against JOBS_TIMELINE.
        job.runs.append(run)
        self._used_slot_ms[job.principal] = (
            self._used_slot_ms.get(job.principal, 0.0) + cost
        )
        self._push(run.end_ms, _FINISH, (job, None, run))

    def _finish(self, payload, now: float) -> None:
        job, stage, run = payload
        if run.cancelled or job.key not in self._jobs or job.cancelled:
            return
        if stage is None:
            # Compute partition landed.
            job.compute_inflight.remove(run)
            job.compute_done += 1
            run.winner = True
            heapq.heappush(self._free, run.slot)
            if self._compute_finished(job):
                self._complete(job, now)
            self._assign(now)
            self._maybe_speculate(now)
            return
        if run.task in stage.done:
            return  # stale finish of a raced twin
        stage.done.add(run.task)
        run.winner = True
        stage.completed.append(run.duration_ms)
        heapq.heappush(self._free, run.slot)
        if run.speculative:
            job.spec_wins += 1
        twin = (
            stage.primary.get(run.task) if run.speculative
            else stage.backup.get(run.task)
        )
        if twin is not None and twin is not run and not twin.cancelled:
            twin.cancelled = True
            twin.end_ms = now
            twin.cost_ms = twin.duration_ms
            heapq.heappush(self._free, twin.slot)
        self._on_scan_done(job, stage, run.task, now)
        self._assign(now)
        self._maybe_speculate(now)

    def _on_scan_done(
        self, job: _JobState, stage: _StageState, task: int, now: float
    ) -> None:
        if job.overlap_deps:
            p = task % job.compute_tasks
            job.overlap_deps[p] -= 1
            if job.overlap_deps[p] == 0:
                job.compute_pending.append(p)
        if not stage.complete:
            return
        if not self.inter_stage_overlap:
            idx = job.stages.index(stage)
            if idx + 1 < len(job.stages):
                job.stages[idx + 1].ready = True
                return
        if all(s.complete for s in job.stages):
            if job.overlap_deps:
                return  # compute completion closes the job
            self._after_scans(job, now)

    # -- speculation --------------------------------------------------------

    def _maybe_speculate(self, now: float) -> None:
        if self._runnable_jobs():
            return
        for key in sorted(self._jobs, key=lambda k: self._admit_seq[k]):
            job = self._jobs[key]
            spec = job.speculation
            if job.cancelled or not spec.enabled:
                continue
            for stage in job.stages:
                if not stage.ready or stage.complete:
                    continue
                if len(stage.completed) < spec.min_completed:
                    continue
                limit = (
                    duration_quantile(stage.completed, spec.quantile)
                    * spec.threshold_multiplier
                )
                for task in sorted(stage.primary):
                    if not self._free:
                        return
                    if task in stage.done or task in stage.backup:
                        continue
                    trigger = stage.primary[task].start_ms + limit
                    if trigger <= now:
                        self._launch_scan(job, stage, task, now, True)
                    else:
                        # Re-evaluated when it fires; duplicates are no-ops.
                        self._push(trigger, _CHECK, (job, stage, task))

    def _speculation_check(self, payload, now: float) -> None:
        job, stage, task = payload
        spec = job.speculation
        if (
            job.key not in self._jobs
            or job.cancelled
            or not spec.enabled
            or self._runnable_jobs()
            or not self._free
            or task in stage.done
            or task in stage.backup
            or len(stage.completed) < spec.min_completed
        ):
            return
        limit = (
            duration_quantile(stage.completed, spec.quantile)
            * spec.threshold_multiplier
        )
        trigger = stage.primary[task].start_ms + limit
        if trigger <= now:
            self._launch_scan(job, stage, task, now, True)
        else:
            self._push(trigger, _CHECK, (job, stage, task))
