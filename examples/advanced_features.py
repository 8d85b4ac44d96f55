"""Advanced features: time travel, subquery joins, and the §3.4 roadmap.

Demonstrates the capabilities layered on top of the paper's shipped
system:

  1. ACID time travel over a BLMT with ``FOR SYSTEM_TIME AS OF`` (backed
     by Big Metadata snapshot reads and GC retention);
  2. ``IN (SELECT ...)`` semi/anti joins;
  3. aggregate pushdown — partial aggregates computed inside the Read API;
  4. ReadRows dictionary/RLE wire encoding;
  5. read-session reuse;
  6. crash-safety: an injected storage fault mid-UPDATE, then garbage
     collection of the orphaned write.

Run:  python examples/advanced_features.py
"""

from repro import DataType, LakehousePlatform, Role, Schema, batch_from_pydict
from repro.errors import StorageError
from repro.faults import FaultSpec
from repro.sql.dates import micros_to_timestamp_string


def main() -> None:
    platform = LakehousePlatform()
    admin = platform.admin_user()
    store = platform.stores.store_for("gcp/us-central1")
    store.create_bucket("cust")
    connection = platform.connections.create_connection("us.cust")
    platform.connections.grant_lake_access(connection, "cust", writable=True)
    platform.iam.grant("connections/us.cust", Role.CONNECTION_USER, admin)
    platform.catalog.create_dataset("ops")

    schema = Schema.of(
        ("ticket", DataType.INT64),
        ("assignee", DataType.STRING),
        ("hours", DataType.FLOAT64),
    )
    tickets = platform.tables.create_blmt(
        admin, "ops", "tickets", schema, "cust", "tickets", "us.cust"
    )
    platform.tables.blmt.insert(tickets, [batch_from_pydict(schema, {
        "ticket": [1, 2, 3, 4],
        "assignee": ["ana", "bo", "ana", "cy"],
        "hours": [2.0, 5.0, 1.0, 8.0],
    })])

    # -- 1. Time travel -------------------------------------------------------
    snapshot_micros = int(platform.ctx.clock.now_ms * 1000) + 1000
    platform.ctx.clock.advance(60_000.0)
    platform.home_engine.execute("DELETE FROM ops.tickets WHERE ticket = 4", admin)
    now = platform.home_engine.execute("SELECT COUNT(*) FROM ops.tickets", admin)
    then = platform.home_engine.execute(
        "SELECT COUNT(*) FROM ops.tickets FOR SYSTEM_TIME AS OF "
        f"TIMESTAMP '{micros_to_timestamp_string(snapshot_micros)}'",
        admin,
    )
    print(f"time travel: {now.single_value()} tickets now, "
          f"{then.single_value()} before the delete")

    # -- 2. IN (SELECT ...) ------------------------------------------------------
    oncall = platform.tables.create_managed_table(
        "ops", "oncall", Schema.of(("person", DataType.STRING))
    )
    platform.managed.append(
        oncall.table_id, batch_from_pydict(oncall.schema, {"person": ["ana"]})
    )
    mine = platform.home_engine.execute(
        "SELECT ticket FROM ops.tickets WHERE assignee IN "
        "(SELECT person FROM ops.oncall) ORDER BY ticket",
        admin,
    )
    others = platform.home_engine.execute(
        "SELECT ticket FROM ops.tickets WHERE assignee NOT IN "
        "(SELECT person FROM ops.oncall) ORDER BY ticket",
        admin,
    )
    print(f"semi join: on-call tickets {mine.column('ticket')}, "
          f"others {others.column('ticket')}")

    # -- 3. Aggregate pushdown ------------------------------------------------------
    result = platform.home_engine.execute(
        "SELECT COUNT(*), SUM(hours), MAX(hours) FROM ops.tickets", admin
    )
    print(
        f"aggregate pushdown: answer {result.rows()[0]} computed from "
        f"{result.stats.rows_scanned} scanned rows but only partial rows "
        "crossed the Read API"
    )

    # -- 4 & 5. Wire encoding + session reuse -----------------------------------------
    # Wire encoding pays off on real tables (see bench_fw_read_api_extensions:
    # ~59% reduction); build one large enough that the payload dwarfs the
    # header.
    wide = platform.tables.create_blmt(
        admin, "ops", "events", Schema.of(
            ("seq", DataType.INT64), ("status", DataType.STRING)
        ), "cust", "events", "us.cust",
    )
    platform.tables.blmt.insert(wide, [batch_from_pydict(wide.schema, {
        "seq": list(range(5000)),
        "status": [("open", "closed", "wontfix")[i % 3] for i in range(5000)],
    })])
    session = platform.read_api.create_read_session(
        admin, wide, wire_format="encoded", reuse=True
    )
    for i in range(len(session.streams)):
        for _ in platform.read_api.read_rows(session, i):
            pass
    reused = platform.read_api.create_read_session(
        admin, wide, wire_format="encoded", reuse=True
    )
    reduction = 1 - session.stats.wire_bytes_encoded / session.stats.wire_bytes_plain
    print(
        f"wire encoding: {session.stats.wire_bytes_encoded:,} bytes shipped vs "
        f"{session.stats.wire_bytes_plain:,} plain ({reduction:.0%} saved); "
        f"session reuse served from cache: {reused.stats.served_from_session_cache}"
    )

    # -- 6. Crash safety ------------------------------------------------------------------
    platform.ctx.faults.add(FaultSpec(
        op="objectstore.put", error="StorageError", count=1,
        match=(("store", store.name),),
    ))
    try:
        platform.home_engine.execute("UPDATE ops.tickets SET hours = 0.0", admin)
    except StorageError as exc:
        print(f"injected crash mid-UPDATE: {exc}")
    untouched = platform.home_engine.execute("SELECT SUM(hours) FROM ops.tickets", admin)
    # A writer that crashed after its data write but before the commit
    # leaves an orphaned object; background GC reclaims it.
    store.put_object("cust", "tickets/data/part-99999999.pqs", b"half-written")
    collected = platform.tables.blmt.garbage_collect(tickets)
    print(
        f"after the crash the table still sums to {untouched.single_value()} "
        f"(nothing committed); GC reclaimed {collected} orphaned object(s)"
    )


if __name__ == "__main__":
    main()
