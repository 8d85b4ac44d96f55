"""The four workloads of the perf ledger.

Each workload builds its lake through the public builders of ``repro``,
derives every generated input (substitution parameters, arrival gaps, restriction
literals, writer interleaving, order ids, amounts) from ``--seed``, times
only the calls into the system, and checks every answer: statement and
warm-up drain results against ``golden.json``, measured drains against row
counts recomputed with numpy over the generated ``lineitem`` columns, and
the transactional workload against totals the benchmark tracks itself plus
the cross-table invariant.

A workload exposes ``setup()`` (build a ready state — timed as set-up),
``run_pass(meter)`` (one fixed batch of ops, checked op by op) and the
counters the traced run needs. The README gives the one-sentence why of each.
"""

from __future__ import annotations

import datetime
import json
import random
import zlib
from pathlib import Path

import numpy as np

from perf_harness import Meter
from repro.bench import build_tpcds_platform, build_tpch_platform
from repro.errors import ReproError, TransactionConflictError
from repro.security.iam import Role
from repro.security.policies import DataMaskingRule, MaskingKind, RowAccessPolicy
from repro.serving.workload import build_serving_platform, mixed_queries
from repro.sql.dates import parse_date_to_days
from repro.storageapi import streams
from repro.txn.workload import build_txn_platform, check_invariant
from repro.workloads import tpcds_lite, tpch_lite

GOLDEN_PATH = Path(__file__).with_name("golden.json")

FULL_SCALE = 1.0
SMOKE_SCALE = 0.2


def rows_crc(rows: list[tuple]) -> int:
    """Order-insensitive CRC of result rows, floats at 6 significant digits
    (a scan that sums floats in another order must not change it)."""
    lines = sorted(
        repr(tuple(float(f"{v:.6g}") if isinstance(v, float) else v for v in row))
        for row in rows
    )
    digest = 0
    for line in lines:
        digest = zlib.crc32(line.encode("utf-8"), digest)
    return digest


def _digest(rows: list[tuple]) -> list[int]:
    return [len(rows), rows_crc(rows)]


def _check_rows(golden: dict, key: str, rows: list[tuple]) -> str | None:
    want = golden.get(key)
    got = _digest(rows)
    if want != got:
        return f"{key}: rows/crc {got} != golden {want}"
    return None


def _lake_bytes(platform, bucket: str) -> int:
    store = platform.stores.store_for(platform.config.home_region.location)
    return sum(meta.size for meta in store.list_objects(bucket))


def _cache_counters(platforms) -> dict[str, float]:
    out = dict.fromkeys(
        ("plan_hits", "plan_misses", "result_hits", "result_misses", "chunk_hits",
         "chunk_misses", "footer_hits", "footer_misses", "data_evictions"), 0.0)
    for platform in platforms:
        query = platform.query_cache.snapshot()
        data = platform.data_cache.snapshot()
        for tier, source in (("plan", query), ("result", query),
                             ("chunk", data), ("footer", data)):
            out[f"{tier}_hits"] += source[tier]["hits"]
            out[f"{tier}_misses"] += source[tier]["misses"]
        out["data_evictions"] += sum(t["evictions"] for t in data.values())
    return out


def _cache_capacities(platform) -> dict[str, int]:
    return {
        "result_cache_bytes": platform.config.query_cache.result_capacity_bytes,
        "chunk_cache_bytes": platform.config.data_cache.chunk_capacity_bytes,
        "footer_cache_bytes": platform.config.data_cache.footer_capacity_bytes,
    }


class Workload:
    """Shared plumbing; see the module docstring for the interface."""

    name = ""
    rebuild_every_pass = False
    warmup_passes = 0
    min_passes = 2
    smoke_passes = 4
    compacted_tables: tuple = ()

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.scale = SMOKE_SCALE if smoke else FULL_SCALE
        self.rng = random.Random(f"{self.name}:{seed}")
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        self.golden = golden.get(f"{self.name}@{self.scale}", {})
        self.user_bytes_committed = 0
        self.setup_errors: list[str] = []

    def platforms(self) -> list:
        raise NotImplementedError

    def counters(self) -> dict[str, float]:
        return _cache_counters(self.platforms())

    def live_files(self) -> int:
        return 0

    def end_errors(self) -> list[str]:
        """Errors not tied to one op: what the set-ups found."""
        return list(self.setup_errors)


# ---------------------------------------------------------------------------
# adhoc_cold
# ---------------------------------------------------------------------------


#: Substitution parameters, TPC style: the seed picks one variant of each of
#: the two narrow fact scans. They are the cheapest statements of the run, so
#: the seed moves the sim clock a little and the wall clock not at all; every
#: other statement, and the order, is fixed — the plans of q05 and q12 depend
#: on which statements ran before them, by several hundred ms.
_Q06_WINDOW = "l_shipdate >= DATE '1995-06-01'\n              AND l_shipdate < DATE '1995-09-01'"
_Q06_WINDOWS = tuple(
    (f"{1995 + month // 12}-{month % 12 + 1:02d}-01",
     f"{1995 + (month + 3) // 12}-{(month + 3) % 12 + 1:02d}-01")
    for month in range(2, 24, 3)
)
_Q_RANGE_WINDOW = "BETWEEN 640 AND 670"
_Q_RANGE_STARTS = tuple(range(40, 700, 85))
SUBSTITUTION_VARIANTS = 8


def substituted_queries(q06_variant: int, q_range_variant: int):
    """(name, suite, sql) for the 17 statements in power-run order."""
    tpch = dict(tpch_lite.queries())
    tpcds = dict(tpcds_lite.queries())
    first, last = _Q06_WINDOWS[q06_variant]
    start = _Q_RANGE_STARTS[q_range_variant]
    for queries, name, old, new in (
        (tpch, "q06", _Q06_WINDOW,
         f"l_shipdate >= DATE '{first}'\n              AND l_shipdate < DATE '{last}'"),
        (tpcds, "q_range", _Q_RANGE_WINDOW, f"BETWEEN {start} AND {start + 30}"),
    ):
        if old not in queries[name]:
            raise RuntimeError(f"{name} no longer contains {old!r}; update the substitution")
        queries[name] = queries[name].replace(old, new)
    tpch[f"q06#{q06_variant}"] = tpch.pop("q06")
    tpcds[f"q_range#{q_range_variant}"] = tpcds.pop("q_range")
    return (
        [(f"tpch.{name}", "tpch", sql) for name, sql in sorted(tpch.items())]
        + [(f"tpcds.{name}", "tpcds", sql) for name, sql in sorted(tpcds.items())]
    )


class AdhocCold(Workload):
    """The 17-statement TPC-H-lite + TPC-DS-lite power run, every pass on
    freshly built platforms so every cache misses. Op = one statement."""

    name = "adhoc_cold"
    rebuild_every_pass = True
    warmup_passes = 1  # interpreter warm-up: lazy imports, numpy first calls
    min_passes = 12  # 17 x 12 = 204 ops
    smoke_passes = 2

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.queries = substituted_queries(
            self.rng.randrange(SUBSTITUTION_VARIANTS), self.rng.randrange(SUBSTITUTION_VARIANTS))

    def setup(self) -> None:
        self.tpch, tpch_admin, tpch_engine, _ = build_tpch_platform(scale=self.scale)
        self.tpcds, tpcds_admin, tpcds_engine, _ = build_tpcds_platform(scale=self.scale)
        targets = {"tpch": (tpch_engine, tpch_admin), "tpcds": (tpcds_engine, tpcds_admin)}
        self.statements = [(name, *targets[suite], sql) for name, suite, sql in self.queries]

    def platforms(self) -> list:
        return [self.tpch, self.tpcds]

    def sizes(self) -> dict:
        tpch, tpcds = self.platforms()
        return {
            "scale": self.scale,
            "ops_per_pass": len(self.statements),
            "lake_bytes": _lake_bytes(tpch, "tpch-lake") + _lake_bytes(tpcds, "tpcds-lake"),
            **_cache_capacities(tpch),
        }

    def run_pass(self, meter) -> None:
        for name, engine, admin, sql in self.statements:
            error = None
            rows: list[tuple] = []
            sim_ms = 0.0
            with meter.timed(meter.new_op_id(), engine.ctx.tracer):
                try:
                    result = engine.execute(sql, admin)
                    rows = result.rows()
                    sim_ms = result.stats.elapsed_ms
                except ReproError as exc:
                    error = f"{name}: {type(exc).__name__}: {exc}"
            meter.finish_op(meter.last_ns, sim_ms, error or _check_rows(self.golden, name, rows))


# ---------------------------------------------------------------------------
# dashboard_hot
# ---------------------------------------------------------------------------

#: Mean stagger between the 17 submissions of one refresh, simulated ms.
_ARRIVAL_GAP_MS = 1.0


def add_dashboard_policies(platform, users) -> None:
    """Row policy + mask on both fact tables for every analyst. HASH turns a
    column into STRING, which only ``l_returnflag`` (grouped, never computed
    on) tolerates; every ``store_sales`` column is summed or joined on in the
    17 statements, so that table gets the dtype-preserving DEFAULT_VALUE."""
    grantees = frozenset(users)
    lineitem = platform.catalog.get_table("tpch", "lineitem")
    lineitem.policies.add_row_policy(
        RowAccessPolicy("analysts", "l_quantity < 40", grantees))
    lineitem.policies.add_masking_rule(
        DataMaskingRule("l_returnflag", MaskingKind.HASH, grantees))
    sales = platform.catalog.get_table("tpcds", "store_sales")
    sales.policies.add_row_policy(
        RowAccessPolicy("analysts", "ss_quantity < 90", grantees))
    sales.policies.add_masking_rule(
        DataMaskingRule("ss_net_profit", MaskingKind.DEFAULT_VALUE, grantees))


class DashboardHot(Workload):
    """One long-lived governed platform; op = one dashboard refresh (17
    statements submitted, drained, read) served from the result cache."""

    name = "dashboard_hot"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.refreshes_per_pass = 10 if smoke else 40

    def setup(self) -> None:
        self.platform, self.admin, self.users = build_serving_platform(
            scale=self.scale, analysts=4, monitor=True)
        add_dashboard_policies(self.platform, self.users)
        self.queries = mixed_queries()
        self.turn = 0
        # Two fill passes per analyst: the first computes and stores, the
        # second proves the working set is resident.
        for _ in range(2):
            for user in self.users:
                rows_by_query, _ = self._refresh(user, [0.0] * len(self.queries))
                self.setup_errors += self._check(rows_by_query)

    def platforms(self) -> list:
        return [self.platform]

    def sizes(self) -> dict:
        result_tier = self.platform.query_cache.snapshot()["result"]
        return {
            "scale": self.scale,
            "ops_per_pass": self.refreshes_per_pass,
            "jobs_per_op": len(self.queries),
            "analysts": len(self.users),
            "lake_bytes": _lake_bytes(self.platform, "tpch-lake")
            + _lake_bytes(self.platform, "tpcds-lake"),
            "result_entries": result_tier["entries"],
            "result_resident_bytes": result_tier["resident_bytes"],
            **_cache_capacities(self.platform),
        }

    def _refresh(self, user, gaps):
        platform = self.platform
        clock = platform.ctx.clock
        handles = []
        for (_, sql), gap in zip(self.queries, gaps):
            clock.advance(gap)
            handles.append(platform.submit(sql, user, use_query_cache=True))
        platform.drain()
        rows_by_query = [handle.result().rows() for handle in handles]
        makespan = max(h.end_ms for h in handles) - min(h.creation_ms for h in handles)
        return rows_by_query, makespan

    def _check(self, rows_by_query) -> list[str]:
        errors = []
        for (name, _), rows in zip(self.queries, rows_by_query):
            error = _check_rows(self.golden, name, rows)
            if error:
                errors.append(error)
        return errors

    def run_pass(self, meter) -> None:
        tracer = self.platform.ctx.tracer
        for _ in range(self.refreshes_per_pass):
            user = self.users[self.turn % len(self.users)]
            self.turn += 1
            gaps = [self.rng.random() * 2.0 * _ARRIVAL_GAP_MS for _ in self.queries]
            error = None
            rows_by_query: list = []
            makespan = 0.0
            with meter.timed(meter.new_op_id(), tracer):
                try:
                    rows_by_query, makespan = self._refresh(user, gaps)
                except ReproError as exc:
                    error = f"refresh: {type(exc).__name__}: {exc}"
            if error is None:
                error = next(iter(self._check(rows_by_query)), None)
            meter.finish_op(meter.last_ns, makespan, error)


# ---------------------------------------------------------------------------
# readsession_drain
# ---------------------------------------------------------------------------

_ROW_POLICY_MAX_QUANTITY = 40
_FIRST_SHIP_DAY = datetime.date(1995, 1, 1)
#: Fixed warm-up drains (golden-checked): they also warm the data cache.
_WARMUP_RESTRICTIONS = (
    "l_shipdate >= DATE '1995-03-01' AND l_shipdate < DATE '1996-03-01' "
    "AND l_discount BETWEEN 0.02 AND 0.06",
    "l_shipdate >= DATE '1996-01-01' AND l_shipdate < DATE '1997-01-01' "
    "AND l_discount BETWEEN 0.00 AND 0.04",
    "l_shipdate >= DATE '1995-01-01' AND l_shipdate < DATE '1997-06-01' "
    "AND l_discount BETWEEN 0.05 AND 0.09",
)
#: (date-span days, discount width in cents): every pass draws each cell
#: the same number of times, so the seed moves the literals, not the mix.
_DRAIN_GRID = tuple(
    (days, cents) for days in (120, 200, 280, 360, 440) for cents in (2, 4)
)


class ReadSessionDrain(Workload):
    """The external-engine path: a governed analyst creates a read session,
    serializes it, and eight consumers drain it through the handle."""

    name = "readsession_drain"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.cycles_per_pass = 1 if smoke else 4  # times the 10-cell grid

    def setup(self) -> None:
        self.platform, _, _, _ = build_tpch_platform(scale=self.scale, lineitem_files=32)
        platform = self.platform
        self.analyst = platform.create_user("analyst", [Role.DATA_VIEWER, Role.JOB_USER])
        platform.iam.grant("connections/tpch.lake", Role.CONNECTION_USER, self.analyst)
        self.table = platform.catalog.get_table("tpch", "lineitem")
        grantees = frozenset([self.analyst])
        self.table.policies.add_row_policy(RowAccessPolicy(
            "analyst", f"l_quantity < {_ROW_POLICY_MAX_QUANTITY}", grantees))
        self.table.policies.add_masking_rule(
            DataMaskingRule("l_extendedprice", MaskingKind.HASH, grantees))
        # The oracle's columns come from the generator, not from the lake.
        lineitem = tpch_lite.generate(scale=self.scale)["lineitem"]
        self.quantity = np.asarray(lineitem.column("l_quantity").values)
        self.shipdate = np.asarray(lineitem.column("l_shipdate").values)
        self.discount = np.asarray(lineitem.column("l_discount").values)
        for index, restriction in enumerate(_WARMUP_RESTRICTIONS):
            report = self._drain(restriction)
            want = self.golden.get(f"warmup{index}")
            if want != [report.rows, report.crc]:
                self.setup_errors.append(
                    f"warmup{index}: rows/crc {[report.rows, report.crc]} != golden {want}")

    def platforms(self) -> list:
        return [self.platform]

    def sizes(self) -> dict:
        return {
            "scale": self.scale,
            "ops_per_pass": self.cycles_per_pass * len(_DRAIN_GRID),
            "lineitem_rows": int(len(self.quantity)),
            "lineitem_files": 32,
            "lake_bytes": _lake_bytes(self.platform, "tpch-lake"),
            **_cache_capacities(self.platform),
        }

    def _drain(self, restriction: str):
        read_api = self.platform.read_api
        session = read_api.create_read_session(
            self.analyst, self.table, max_streams=8, row_restriction=restriction)
        blob = session.serialize()
        return streams.drain_session(read_api, blob, rebalance=True)

    def _next_input(self, days: int, cents: int) -> tuple[str, int]:
        """One seeded restriction and the row count numpy says it admits."""
        first = _FIRST_SHIP_DAY + datetime.timedelta(days=self.rng.randrange(0, 365))
        last = first + datetime.timedelta(days=days)
        low = self.rng.randrange(0, 11 - cents) / 100.0
        high = low + cents / 100.0
        restriction = (
            f"l_shipdate >= DATE '{first}' AND l_shipdate < DATE '{last}' "
            f"AND l_discount BETWEEN {low:.2f} AND {high:.2f}"
        )
        admitted = (
            (self.quantity < _ROW_POLICY_MAX_QUANTITY)
            & (self.shipdate >= parse_date_to_days(str(first)))
            & (self.shipdate < parse_date_to_days(str(last)))
            & (self.discount >= float(f"{low:.2f}"))
            & (self.discount <= float(f"{high:.2f}"))
        )
        return restriction, int(admitted.sum())

    def run_pass(self, meter) -> None:
        tracer = self.platform.ctx.tracer
        cells = list(_DRAIN_GRID) * self.cycles_per_pass
        self.rng.shuffle(cells)
        for days, cents in cells:
            restriction, expected = self._next_input(days, cents)
            error = None
            sim_ms = 0.0
            with meter.timed(meter.new_op_id(), tracer):
                try:
                    report = self._drain(restriction)
                    sim_ms = report.makespan_ms
                except ReproError as exc:
                    error = f"drain: {type(exc).__name__}: {exc}"
            if error is None and report.rows != expected:
                error = f"drain returned {report.rows} rows, numpy says {expected}: {restriction}"
            meter.finish_op(meter.last_ns, sim_ms, error)


# ---------------------------------------------------------------------------
# txn_ingest
# ---------------------------------------------------------------------------

_ORDERS = 64
_WRITERS = 4
_ROWS_PER_INSERT = 4
_MAX_ATTEMPTS = 40
#: Attempts that yield between statements (so other writers interleave);
#: later attempts run straight through, which bounds retry storms.
_INTERLEAVED_ATTEMPTS = 8
_SNAPSHOT_READ_EVERY_STEPS = 40
#: 8 bytes per value: four (order_id, item_id, amount) rows plus the
#: (order_id, total) row the UPDATE rewrites.
_USER_BYTES_PER_TXN = 8 * (3 * _ROWS_PER_INSERT + 2)


class TxnIngest(Workload):
    """Four interleaved writers each insert four lineitems and bump the
    order's total in one transaction, retrying on conflict; snapshot reads
    and compaction cycles run beside them. Op = one logical transaction.

    Snapshot reads and commits get slower as the tables and their history
    grow, so every pass starts from a fresh lake and walks the same range of
    table sizes: passes are comparable, and their number does not change
    what one pass measures."""

    name = "txn_ingest"
    rebuild_every_pass = True
    smoke_passes = 2
    warmup_txns_per_writer = 5  # discarded; part of set-up

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        # A pass is `rounds` x (every writer commits `txns_per_writer`
        # transactions, then one compaction cycle over both tables).
        self.rounds, self.txns_per_writer = (2, 3) if smoke else (2, 15)

    def setup(self) -> None:
        self.platform, self.admin = build_txn_platform(orders=_ORDERS)
        platform = self.platform
        self.writers = [
            platform.create_user(
                f"writer{i}", [Role.DATA_EDITOR, Role.JOB_USER, Role.CONNECTION_USER])
            for i in range(_WRITERS)
        ]
        platform.txn  # create the coordinator (and run its recovery sweep)
        self.compacted_tables = (
            platform.catalog.get_table("txn", "orders"),
            platform.catalog.get_table("txn", "lineitems"),
        )
        self.expected_totals = {order: 3.0 * order for order in range(1, _ORDERS + 1)}
        self.expected_items = 2 * _ORDERS
        self.next_item = [(i + 1) * 1_000_000_000 for i in range(_WRITERS)]
        warmup = Meter(None, 0)
        self._run_writers(warmup, self.warmup_txns_per_writer)
        self.setup_errors += warmup.errors

    def platforms(self) -> list:
        return [self.platform]

    def sizes(self) -> dict:
        return {
            "orders": _ORDERS,
            "writers": _WRITERS,
            "ops_per_pass": self.rounds * _WRITERS * self.txns_per_writer,
            "compaction_cycles_per_pass": self.rounds,
            "rows_per_txn": _ROWS_PER_INSERT + 1,
            "lake_bytes_end_of_pass": _lake_bytes(self.platform, "txn-lake"),
            **_cache_capacities(self.platform),
        }

    def live_files(self) -> int:
        return sum(
            len(self.platform.bigmeta.table(t.table_id).live_entries())
            for t in self.compacted_tables
        )

    def _writer(self, index: int, txns: int, done: list):
        """One writer as a generator: it yields wherever another writer may
        run, and appends the outcome (None or an error) to ``done`` per
        transaction."""
        platform = self.platform
        rng = self.rng
        for _ in range(txns):
            order = rng.randrange(1, _ORDERS + 1)
            amounts = [round(rng.uniform(1.0, 100.0), 2) for _ in range(_ROWS_PER_INSERT)]
            bump = round(sum(amounts), 2)
            error = f"writer{index}: gave up after {_MAX_ATTEMPTS} attempts"
            for attempt in range(1, _MAX_ATTEMPTS + 1):
                interleave = attempt <= _INTERLEAVED_ATTEMPTS
                values = []
                for amount in amounts:
                    self.next_item[index] += 1
                    values.append(f"({order}, {self.next_item[index]}, {amount})")
                txn = platform.begin(self.writers[index])
                try:
                    if interleave:
                        yield
                    txn.execute(
                        "INSERT INTO txn.lineitems (order_id, item_id, amount) "
                        f"VALUES {', '.join(values)}")
                    if interleave:
                        yield
                    txn.execute(
                        f"UPDATE txn.orders SET total = total + {bump} "
                        f"WHERE order_id = {order}")
                    if interleave:
                        yield
                    txn.commit()
                except TransactionConflictError:
                    continue
                except ReproError as exc:
                    error = f"writer{index}: {type(exc).__name__}: {exc}"
                    break
                self.expected_totals[order] += bump
                self.expected_items += _ROWS_PER_INSERT
                error = None
                break
            done.append(error)
            yield

    def _run_writers(self, meter, txns_per_writer: int) -> None:
        """Drive the writers to completion in a seeded interleaving. An op's
        latency is the wall time inside its own writer's steps, retries
        included; other writers' steps and the snapshot reads are not."""
        platform = self.platform
        tracer = platform.ctx.tracer
        rng = self.rng
        done: list = []
        writers = [self._writer(i, txns_per_writer, done) for i in range(_WRITERS)]
        op_ids = [meter.new_op_id() for _ in writers]
        op_ns = [0] * _WRITERS
        live = list(range(_WRITERS))
        steps = 0
        while live:
            index = rng.choice(live)
            finished = len(done)
            with meter.timed(op_ids[index], tracer):
                try:
                    next(writers[index])
                except StopIteration:
                    live.remove(index)
            op_ns[index] += meter.last_ns
            if len(done) > finished:
                error = done[-1]
                meter.finish_op(op_ns[index], 0.0, error)
                if error is None and meter.recorder is not None:
                    self.user_bytes_committed += _USER_BYTES_PER_TXN
                op_ns[index] = 0
                op_ids[index] = meter.new_op_id()
            steps += 1
            if steps % _SNAPSHOT_READ_EVERY_STEPS == 0:
                with meter.timed(-1, tracer):
                    violations = check_invariant(platform, self.admin, label=f"step{steps}")
                self._report(meter, violations)

    @staticmethod
    def _report(meter, errors: list[str]) -> None:
        if errors:
            meter.failed_ops += 1
            meter.errors += errors[:5]

    def run_pass(self, meter) -> None:
        platform = self.platform
        clock = platform.ctx.clock
        before_ms = clock.now_ms
        for _ in range(self.rounds):
            self._run_writers(meter, self.txns_per_writer)
            with meter.timed(-1, platform.ctx.tracer):
                for table in self.compacted_tables:
                    platform.tables.blmt.optimize_storage(table)
        meter.sim_ms += clock.now_ms - before_ms
        self._report(meter, self._end_state_errors())

    def _end_state_errors(self) -> list[str]:
        """The lake of this pass must be whole: invariant holds, no intent
        dangles, and totals and row counts equal what the benchmark tracked."""
        platform, admin = self.platform, self.admin
        errors = check_invariant(platform, admin, label="end of pass")
        dangling = platform.txn.log.dangling_intents()
        if dangling:
            errors.append(f"{len(dangling)} dangling intents at the end of the pass")
        totals = dict(platform.home_engine.execute(
            "SELECT order_id, total FROM txn.orders", admin).rows())
        for order, want in self.expected_totals.items():
            got = totals.get(order)
            if got is None or abs(got - want) > 1e-6 * max(1.0, abs(want)):
                errors.append(f"order {order}: total {got} != tracked {want}")
                break
        items = platform.home_engine.execute(
            "SELECT COUNT(*) AS n FROM txn.lineitems", admin).single_value()
        if items != self.expected_items:
            errors.append(f"{items} lineitems, tracked {self.expected_items}")
        return errors


WORKLOADS = {
    cls.name: cls for cls in (AdhocCold, DashboardHot, ReadSessionDrain, TxnIngest)
}


def compute_golden() -> dict:
    """The contents of ``golden.json``: per statement (every substitution
    variant) and warm-up drain, the row count and CRC at both scales, taken
    from the current tree."""
    golden: dict[str, dict] = {}
    for smoke in (False, True):
        entries = {}
        for variant in range(SUBSTITUTION_VARIANTS):
            adhoc = AdhocCold(0, smoke)
            adhoc.queries = substituted_queries(variant, variant)
            adhoc.setup()
            for name, engine, admin, sql in adhoc.statements:
                if name not in entries:
                    entries[name] = _digest(engine.execute(sql, admin).rows())
        golden[f"{adhoc.name}@{adhoc.scale}"] = entries
        dashboard = DashboardHot(0, smoke)
        dashboard.setup()
        rows_by_query, _ = dashboard._refresh(dashboard.users[0], [0.0] * len(dashboard.queries))
        golden[f"{dashboard.name}@{dashboard.scale}"] = {
            name: _digest(rows) for (name, _), rows in zip(dashboard.queries, rows_by_query)
        }
        drains = ReadSessionDrain(0, smoke)
        drains.setup()
        reports = [drains._drain(restriction) for restriction in _WARMUP_RESTRICTIONS]
        golden[f"{drains.name}@{drains.scale}"] = {
            f"warmup{index}": [report.rows, report.crc] for index, report in enumerate(reports)
        }
    return golden
