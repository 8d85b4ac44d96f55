"""Concurrent multi-query serving: the slot pool + the async jobs API.

:mod:`repro.serving.pool` is the scheduler — one deterministic
discrete-event :class:`SlotPool` that every query's tasks are placed on:
LPT placement with work stealing, stragglers and speculative backups, and,
when N jobs share it, admission control, fair-share (or weighted
reservation) allocation across principals and optional inter-stage
overlap. :mod:`repro.serving.jobs` is the BigQuery-shaped surface over
it: ``submit() -> QueryJob`` with ``state``/``wait()``/``cancel()``, a
``jobs.*`` REST facade, and the PENDING → RUNNING → terminal lifecycle
recorded into ``INFORMATION_SCHEMA.JOBS``. :mod:`repro.serving.workload`
drives the mixed multi-principal workload behind ``python -m repro serve``.
"""

from repro.serving.jobs import JobQueue, JobsApi, QueryJob, ServingConfig
from repro.serving.pool import (
    JobVerdict,
    PoolArrival,
    PoolExecution,
    PoolOpaque,
    PoolStage,
    SlotPool,
)

__all__ = [
    "JobQueue",
    "JobsApi",
    "JobVerdict",
    "PoolArrival",
    "PoolExecution",
    "PoolOpaque",
    "PoolStage",
    "QueryJob",
    "ServingConfig",
    "SlotPool",
]
