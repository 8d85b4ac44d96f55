"""Crash-safe recovery: kill the writer at every publish step, then prove
the recovery sweep restores a consistent world — intent-only transactions
roll back, marker-landed ones roll forward, and no reader ever sees a torn
multi-table state in between."""

import pytest

from repro.data import DataType, Schema
from repro.errors import WriterCrashError
from repro.faults import FaultSpec
from repro.tableformats import DataFileInfo, IcebergTable
from repro.txn import ABORTED, COMMITTED
from repro.txn.workload import build_txn_platform, check_invariant

ORDERS = "repro-project.txn.orders"
LINEITEMS = "repro-project.txn.lineitems"

#: Every step of the publish protocol, in order. (BLMT tables publish in
#: sorted table-id order, so lineitems lands before orders.)
ALL_STEPS = [
    "prepare",
    "intent",
    f"table:{LINEITEMS}",
    f"table:{ORDERS}",
    "marker",
    "finalize",
]

#: Steps where the marker has not landed: recovery must roll BACK.
ROLLBACK_STEPS = ALL_STEPS[:-1]


def crash_at(platform, step):
    platform.ctx.faults.add(
        FaultSpec(
            op="txn.crash", error="WriterCrashError", count=1,
            match=(("step", step),),
        )
    )


def run_doomed_txn(platform, admin, step):
    """One co-mutation transaction killed at ``step``; returns its id."""
    txn = platform.begin(admin)
    txn.execute(
        "INSERT INTO txn.lineitems (order_id, item_id, amount) VALUES (1, 901, 5.0)"
    )
    txn.execute("UPDATE txn.orders SET total = total + 5.0 WHERE order_id = 1")
    crash_at(platform, step)
    with pytest.raises(WriterCrashError):
        txn.commit()
    return txn.txn_id


def world_state(platform, admin):
    totals = dict(
        platform.home_engine.execute(
            "SELECT order_id, total FROM txn.orders", admin
        ).rows()
    )
    items = platform.home_engine.execute(
        "SELECT COUNT(*) AS n FROM txn.lineitems WHERE item_id = 901", admin
    ).rows()[0][0]
    return totals[1], items


class TestCrashAtEveryStep:
    @pytest.mark.parametrize("step", ROLLBACK_STEPS)
    def test_rollback_steps_never_partially_visible(self, step):
        platform, admin = build_txn_platform(orders=2)
        txn_id = run_doomed_txn(platform, admin, step)

        # Mid-crash (before any recovery): nothing of the transaction is
        # visible, in particular never one table without the other.
        assert world_state(platform, admin) == (3.0, 0)
        assert check_invariant(platform, admin, label=f"pre-recovery@{step}") == []

        report = platform.txn.recover()
        if step == "prepare":
            # Killed before the intent landed: there is nothing to recover.
            assert report.total == 0
        else:
            assert report.rolled_back == [txn_id]
            state, _ = platform.txn.status(txn_id)
            assert state == ABORTED
        assert world_state(platform, admin) == (3.0, 0)
        assert check_invariant(platform, admin, label=f"post-recovery@{step}") == []
        assert platform.txn.log.dangling_intents() == []

    def test_crash_after_marker_rolls_forward(self):
        platform, admin = build_txn_platform(orders=2)
        txn_id = run_doomed_txn(platform, admin, "finalize")

        # The marker landed, so the transaction IS committed — both tables
        # are already visible even before the sweep runs.
        assert world_state(platform, admin) == (8.0, 1)
        assert check_invariant(platform, admin, label="pre-recovery@finalize") == []

        report = platform.txn.recover()
        assert report.rolled_forward == [txn_id]
        state, commit_ms = platform.txn.status(txn_id)
        assert state == COMMITTED and commit_ms > 0
        record, _ = platform.txn.log.read(txn_id)
        assert record.finalized is True
        assert world_state(platform, admin) == (8.0, 1)
        assert check_invariant(platform, admin, label="post-recovery@finalize") == []

    def test_recovery_is_idempotent(self):
        platform, admin = build_txn_platform(orders=2)
        run_doomed_txn(platform, admin, "marker")
        first = platform.txn.recover()
        second = platform.txn.recover()
        assert first.total == 1 and second.total == 0
        assert check_invariant(platform, admin) == []

    def test_restart_coordinator_recovers_on_construction(self):
        """A fresh coordinator (the 'platform restart' path) finishes a
        dead writer's business as part of its own startup."""
        platform, admin = build_txn_platform(orders=2)
        txn_id = run_doomed_txn(platform, admin, "marker")
        assert platform.txn.log.dangling_intents() != []

        platform._txn = None  # drop the coordinator; the log survives
        restarted = platform.txn
        assert restarted.log.dangling_intents() == []
        state, _ = restarted.status(txn_id)
        assert state == ABORTED
        assert check_invariant(platform, admin) == []

    def test_new_writers_proceed_after_crash_recovery(self):
        platform, admin = build_txn_platform(orders=2)
        run_doomed_txn(platform, admin, "marker")
        platform.txn.recover()
        txn = platform.begin(admin)
        txn.execute(
            "INSERT INTO txn.lineitems (order_id, item_id, amount) VALUES (2, 902, 4.0)"
        )
        txn.execute("UPDATE txn.orders SET total = total + 4.0 WHERE order_id = 2")
        txn.commit()
        assert check_invariant(platform, admin) == []


class TestIcebergRollback:
    def test_aborted_iceberg_snapshot_physically_removed(self):
        platform, admin = build_txn_platform(orders=2)
        store = platform.stores.store_for(platform.config.home_region.location)
        store.create_bucket("ice")
        ice = IcebergTable.create(
            store, "ice", "warehouse/t", Schema.of(("x", DataType.INT64)), []
        )
        base = ice.commit_append([
            DataFileInfo(
                path="ice/warehouse/t/data/base.pqs", file_size=10,
                record_count=1, partition=(), bounds=(("x", (0, 9, 0)),),
            )
        ])
        txn = platform.begin(admin)
        txn.stage_iceberg(ice, added=[
            DataFileInfo(
                path="ice/warehouse/t/data/doomed.pqs", file_size=10,
                record_count=1, partition=(), bounds=(("x", (0, 9, 0)),),
            )
        ])
        crash_at(platform, "marker")
        with pytest.raises(WriterCrashError):
            txn.commit()
        # The tagged snapshot exists but resolves invisible.
        assert [f.path for f in ice.scan()] == ["ice/warehouse/t/data/base.pqs"]

        platform.txn.recover()
        # Rolled back: the pointer is restored and the doomed snapshot is
        # gone from the table's history entirely.
        assert ice.current_snapshot().snapshot_id == base.snapshot_id
        assert [f.path for f in ice.scan()] == ["ice/warehouse/t/data/base.pqs"]
        assert all(s.txn_id != txn.txn_id for s in ice.snapshots())
