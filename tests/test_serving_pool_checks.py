"""The slot pool keeps one pending speculation check per (instant, job,
stage, task), and that changes no verdict.

``tests/reference_pool.py`` is the pool as it was when every finish pushed
a check for every in-flight task, duplicates included. Hypothesis drives
both with the same multi-job batches — stragglers, speculation, a stage
name shared by two stages of one job (a self-join), cancellations fired
from the admission seam, and inter-stage overlap — and requires the same
verdicts, field for field, from no more events.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.engine.scheduler import SpeculationConfig
from repro.serving.pool import (
    PoolArrival,
    PoolExecution,
    PoolOpaque,
    PoolStage,
    SlotPool,
)

from tests.reference_pool import SlotPool as ReferencePool

# Quarter-millisecond grid (zero included): sums and differences are exact.
quarters = st.integers(0, 80).map(lambda q: q / 4)


@st.composite
def executions(draw):
    if draw(st.integers(0, 5)) == 0:
        return PoolOpaque(elapsed_ms=draw(quarters), failed=draw(st.booleans()))
    stages = []
    for _ in range(draw(st.integers(0, 3))):
        costs = draw(st.lists(quarters, min_size=1, max_size=8))
        slow = draw(
            st.lists(
                st.sampled_from([1.0, 1.0, 2.0, 6.0]),
                min_size=len(costs), max_size=len(costs),
            )
        )
        # Two names for up to three stages: a job may hold two stages of
        # one name, as a self-join does.
        stages.append(PoolStage(draw(st.sampled_from(["s0", "s1"])), costs, slow))
    return PoolExecution(
        prelude_ms=draw(quarters),
        stages=stages,
        tail_ms=draw(st.one_of(st.just(0.0), quarters)),
        compute_ms=draw(st.one_of(st.just(0.0), quarters)),
        compute_tasks=draw(st.integers(1, 4)),
        speculation=SpeculationConfig(
            enabled=draw(st.booleans()),
            quantile=draw(st.sampled_from([0.0, 0.5, 0.75, 1.0])),
            threshold_multiplier=draw(st.sampled_from([1.0, 1.5, 2.0])),
            min_completed=draw(st.integers(1, 3)),
        ),
    )


@st.composite
def batches(draw):
    n = draw(st.integers(1, 6))
    arrivals = [
        PoolArrival(key, draw(st.sampled_from("abc")), draw(quarters))
        for key in range(n)
    ]
    works = [draw(executions()) for _ in range(n)]
    # At the admission of job ``at``, cancel job ``victim``.
    cancels = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2)
    )
    return dict(
        slots=draw(st.integers(1, 6)),
        max_concurrent_jobs=draw(st.integers(1, 4)),
        inter_stage_overlap=draw(st.booleans()),
        weights=draw(
            st.dictionaries(st.sampled_from("abc"), st.sampled_from([0.5, 1.0, 2.0]))
        ),
        arrivals=arrivals,
        works=works,
        cancels=cancels,
    )


def _run(cls, batch):
    pool = cls(
        batch["slots"],
        max_concurrent_jobs=batch["max_concurrent_jobs"],
        inter_stage_overlap=batch["inter_stage_overlap"],
        weights=batch["weights"],
    )

    def on_admit(key, admitted_ms):
        for at, victim in batch["cancels"]:
            if at == key:
                pool.cancel(victim)

    verdicts = pool.run(
        batch["arrivals"],
        lambda key, admitted_ms: batch["works"][key],
        on_admit=on_admit,
    )
    return verdicts, pool._seq


@settings(deadline=None)
@given(batch=batches())
def test_verdicts_equal_the_reference_from_no_more_events(batch):
    verdicts, events = _run(SlotPool, batch)
    expected, reference_events = _run(ReferencePool, batch)
    assert verdicts == expected
    assert events <= reference_events


def test_a_straggler_batch_pushes_fewer_checks():
    """Many short tasks finishing around two slow ones: the reference
    re-pushes a check for both slow tasks after every finish."""
    spec = SpeculationConfig(quantile=0.75, threshold_multiplier=2.0, min_completed=1)
    work = PoolExecution(
        prelude_ms=0.0,
        stages=[
            PoolStage("scan", [1.0] * 12, [6.0, 6.0] + [1.0] * 10),
            PoolStage("scan", [1.0] * 12, [1.0] * 11 + [6.0]),
        ],
        speculation=spec,
    )
    batch = dict(
        slots=4, max_concurrent_jobs=2, inter_stage_overlap=True, weights={},
        arrivals=[PoolArrival(0, "a", 0.0), PoolArrival(1, "b", 0.5)],
        works=[work, work], cancels=[],
    )
    verdicts, events = _run(SlotPool, batch)
    expected, reference_events = _run(ReferencePool, batch)
    assert verdicts == expected
    assert any(v.speculative_launched for v in verdicts.values())
    assert events < reference_events


def test_a_self_join_keeps_one_check_per_stage():
    """Two stages of one name, with the same straggler at the same instant:
    their checks share (instant, job, stage name, task) but not the stage,
    and each must launch its own backup on time."""
    spec = SpeculationConfig(quantile=0.75, threshold_multiplier=1.5, min_completed=1)
    work = PoolExecution(
        prelude_ms=0.0,
        stages=[
            PoolStage("lineitem", [1.0] * 4, [6.0, 1.0, 1.0, 1.0]),
            PoolStage("lineitem", [1.0] * 4, [6.0, 1.0, 1.0, 1.0]),
        ],
        speculation=spec,
    )
    batch = dict(
        slots=8, max_concurrent_jobs=1, inter_stage_overlap=True, weights={},
        arrivals=[PoolArrival(0, "a", 0.0)], works=[work], cancels=[],
    )
    verdicts, _ = _run(SlotPool, batch)
    expected, _ = _run(ReferencePool, batch)
    assert verdicts == expected
    backups = [r.start_ms for r in verdicts[0].runs if r.speculative]
    assert backups == [1.5, 1.5]
