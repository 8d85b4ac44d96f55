"""Focused operator-level tests: sorting, limits, unions, casts, dates."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import DataType, Schema, batch_from_pydict
from repro.sql import dates

from tests.helpers import make_platform


@pytest.fixture(scope="module")
def env():
    platform, admin = make_platform()
    platform.catalog.create_dataset("ds")
    schema = Schema.of(
        ("i", DataType.INT64),
        ("f", DataType.FLOAT64),
        ("s", DataType.STRING),
        ("b", DataType.BOOL),
        ("d", DataType.DATE),
    )
    t = platform.tables.create_managed_table("ds", "t", schema)
    platform.managed.append(
        t.table_id,
        batch_from_pydict(
            schema,
            {
                "i": [3, 1, None, 2],
                "f": [1.5, None, 2.5, -1.0],
                "s": ["b", None, "a", "c"],
                "b": [True, False, None, True],
                "d": [
                    dates.parse_date_to_days("2023-05-01"),
                    dates.parse_date_to_days("2022-01-15"),
                    None,
                    dates.parse_date_to_days("2023-05-01"),
                ],
            },
        ),
    )
    return platform, admin


def q(env, sql):
    platform, admin = env
    return platform.home_engine.execute(sql, admin)


class TestSorting:
    def test_multi_key_sort(self, env):
        r = q(env, "SELECT d, i FROM ds.t ORDER BY d DESC, i ASC")
        rows = r.rows()
        assert rows[0][0] == dates.parse_date_to_days("2023-05-01")
        assert rows[-1][0] is None  # NULLs last when leading key is DESC

    def test_sort_by_expression(self, env):
        r = q(env, "SELECT i FROM ds.t WHERE i IS NOT NULL ORDER BY i * -1")
        assert r.column("i") == [3, 2, 1]

    def test_sort_strings_with_nulls(self, env):
        r = q(env, "SELECT s FROM ds.t ORDER BY s")
        assert r.column("s") == [None, "a", "b", "c"]

    def test_order_by_position(self, env):
        r = q(env, "SELECT s, i FROM ds.t ORDER BY 2 DESC")
        assert r.column("i")[0] == 3


class TestCasts:
    @pytest.mark.parametrize(
        "expr,expected",
        [
            ("CAST(i AS FLOAT64)", [3.0, 1.0, None, 2.0]),
            ("CAST(f AS INT64)", [1, None, 2, -1]),
            ("CAST(i AS STRING)", ["3", "1", None, "2"]),
            ("CAST(b AS INT64)", [1, 0, None, 1]),
            ("CAST(i AS BOOL)", [True, True, None, True]),
        ],
    )
    def test_cast_matrix(self, env, expr, expected):
        r = q(env, f"SELECT {expr} AS out FROM ds.t")
        assert r.column("out") == expected

    def test_cast_string_to_int(self, env):
        r = q(env, "SELECT CAST('42' AS INT64) AS v")
        assert r.single_value() == 42

    def test_cast_date_to_timestamp_round_trip(self, env):
        r = q(env, "SELECT CAST(CAST(d AS TIMESTAMP) AS DATE) AS rt FROM ds.t WHERE d IS NOT NULL")
        original = q(env, "SELECT d FROM ds.t WHERE d IS NOT NULL")
        assert r.column("rt") == original.column("d")


class TestTemporalFunctions:
    def test_year_month_day_on_date(self, env):
        r = q(env, "SELECT YEAR(d), MONTH(d), DAY(d) FROM ds.t WHERE i = 1")
        assert r.rows() == [(2022, 1, 15)]

    def test_date_comparison(self, env):
        r = q(env, "SELECT COUNT(*) FROM ds.t WHERE d >= DATE '2023-01-01'")
        assert r.single_value() == 2


class TestLimitsAndUnions:
    def test_limit_zero(self, env):
        assert q(env, "SELECT i FROM ds.t LIMIT 0").num_rows == 0

    def test_limit_larger_than_input(self, env):
        assert q(env, "SELECT i FROM ds.t LIMIT 99").num_rows == 4

    def test_union_all_renames_to_first_arm(self, env):
        r = q(env, "SELECT i AS left_name FROM ds.t UNION ALL SELECT i FROM ds.t")
        assert r.schema.names() == ["left_name"]
        assert r.num_rows == 8

    def test_union_all_three_arms(self, env):
        r = q(env, "SELECT 1 AS x UNION ALL SELECT 2 UNION ALL SELECT 3")
        assert sorted(r.column("x")) == [1, 2, 3]


class TestDateHelpers:
    def test_round_trips(self):
        days = dates.parse_date_to_days("2024-02-29")
        assert dates.days_to_date_string(days) == "2024-02-29"

    def test_timestamp_string_rendering(self):
        micros = dates.parse_timestamp_to_micros("2023-06-15 12:30:45.5")
        assert dates.micros_to_timestamp_string(micros).startswith("2023-06-15 12:30:45.5")

    def test_two_digit_year(self):
        assert dates.parse_date_to_days("23-11-1") == dates.parse_date_to_days("2023-11-01")

    def test_invalid_date_raises(self):
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError):
            dates.parse_date_to_days("not-a-date")
        with pytest.raises(AnalysisError):
            dates.parse_date_to_days("2023-13-01")

    @given(st.integers(0, 40000))
    @settings(max_examples=100, deadline=None)
    def test_days_round_trip_property(self, days):
        assert dates.parse_date_to_days(dates.days_to_date_string(days)) == days


class TestLeftJoinNullKeys:
    """Bugfix regression: the unmatched-probe scan is now a boolean mask;
    NULL keys on both sides must still NULL-extend, never match."""

    @pytest.fixture(scope="class")
    def jenv(self):
        platform, admin = make_platform()
        platform.catalog.create_dataset("lj")
        left_schema = Schema.of(("k", DataType.INT64), ("lv", DataType.STRING))
        right_schema = Schema.of(("k", DataType.INT64), ("rv", DataType.STRING))
        lt = platform.tables.create_managed_table("lj", "l", left_schema)
        rt = platform.tables.create_managed_table("lj", "r", right_schema)
        platform.managed.append(
            lt.table_id,
            batch_from_pydict(
                left_schema, {"k": [1, None, 2, None, 3], "lv": ["a", "b", "c", "d", "e"]}
            ),
        )
        platform.managed.append(
            rt.table_id,
            batch_from_pydict(right_schema, {"k": [1, None, 1, 4], "rv": ["x", "y", "z", "w"]}),
        )
        return platform, admin

    def test_null_keys_null_extend(self, jenv):
        platform, admin = jenv
        r = platform.home_engine.execute(
            "SELECT l.k, l.lv, r.rv FROM lj.l AS l LEFT JOIN lj.r AS r ON l.k = r.k "
            "ORDER BY l.lv, r.rv",
            admin,
        )
        assert r.rows() == [
            (1, "a", "x"),
            (1, "a", "z"),
            (None, "b", None),  # NULL never matches the right-side NULL
            (2, "c", None),
            (None, "d", None),
            (3, "e", None),
        ]

    def test_all_rows_unmatched(self, jenv):
        platform, admin = jenv
        r = platform.home_engine.execute(
            "SELECT l.lv, r.rv FROM lj.l AS l LEFT JOIN lj.r AS r "
            "ON l.k = r.k AND r.k > 100 ORDER BY l.lv",
            admin,
        )
        assert [row[1] for row in r.rows()] == [None] * 5

    def test_semi_anti_with_nulls(self, jenv):
        platform, admin = jenv
        rows = platform.home_engine.execute(
            "SELECT lv FROM lj.l WHERE k IN (SELECT k FROM lj.r WHERE k IS NOT NULL) "
            "ORDER BY lv",
            admin,
        ).rows()
        assert rows == [("a",)]
        rows = platform.home_engine.execute(
            "SELECT lv FROM lj.l WHERE k NOT IN (SELECT k FROM lj.r WHERE k IS NOT NULL) "
            "ORDER BY lv",
            admin,
        ).rows()
        assert rows == [("c",), ("e",)]  # NULL probe keys never qualify


# Key values per dtype for the matrix: few enough to collide often, and
# chosen so keys of *different* dtypes collide too wherever python says they
# are equal (1 == 1.0 == True, DATE and INT64 are both ints) and only there
# ('1' != 1, 'a' != b'a').
KEY_VALUES = {
    DataType.INT64: [0, 1, 2, -1],
    DataType.FLOAT64: [0.0, 1.0, 2.0, 0.5, -0.0, float("nan")],
    DataType.BOOL: [True, False],
    DataType.STRING: ["a", "1", ""],
    DataType.BYTES: [b"a", b"1", b""],
    DataType.DATE: [0, 1, 2, 19000],
}
KEY_DTYPES = list(KEY_VALUES)


def key_lists(dtype, **kwargs):
    return st.lists(st.one_of(st.none(), st.sampled_from(KEY_VALUES[dtype])), **kwargs)


def pair_of_columns(draw, dtype, rows):
    """A two-column key: one column of ``dtype``, one INT64."""
    from repro.data import Column

    n = len(rows)
    ints = draw(key_lists(DataType.INT64, min_size=n, max_size=n))
    return [Column.from_pylist(dtype, rows), Column.from_pylist(DataType.INT64, ints)]


def same(a, b) -> bool:
    """Row-list equality where NaN equals NaN (results carry NaN keys)."""
    return repr(a) == repr(b)


class TestVectorizedVsNaive:
    """Property tests: the factorized join / semi-join / DISTINCT / GROUP BY
    kernels agree with the row-at-a-time oracles in
    ``tests/reference_operators.py`` for every pair of key dtypes, with
    NULLs and NaNs on both sides. There is no fallback path: every key goes
    through ``_column_codes``."""

    @staticmethod
    def _cols(int_items, str_items):
        from repro.data import Column

        return [
            Column.from_pylist(DataType.INT64, int_items),
            Column.from_pylist(DataType.STRING, str_items),
        ]

    @staticmethod
    def _join_both_ways(build_cols, probe_cols):
        """The join kernel against the naive one, and the IN rule over the
        kernel's codes against the naive semi-join where its docstring holds:
        SEMI on any build side, ANTI on one that is neither empty nor holds a
        NULL key (those two are TestNotInOverEachBuildSide's, against
        sqlite3)."""
        from repro.engine import operators as ops
        from repro.sql.expressions import membership
        from tests import reference_operators as ref

        build_rows, probe_rows = len(build_cols[0]), len(probe_cols[0])
        build_valid = ops._keys_valid(build_cols, build_rows)
        probe_valid = ops._keys_valid(probe_cols, probe_rows)
        build_codes, probe_codes = ops._join_key_codes(build_cols, probe_cols, build_rows)
        fast = ops._hash_join_indices(build_codes, probe_codes, build_valid, probe_valid)
        naive = ref._hash_join_indices_naive(build_cols, probe_cols, build_valid, probe_valid)
        assert fast[0].tolist() == naive[0].tolist()
        assert fast[1].tolist() == naive[1].tolist()
        hits = np.isin(probe_codes, build_codes[build_valid])
        has_null, empty = not build_valid.all(), not build_rows
        for kind in ("SEMI", "ANTI"):
            if kind == "ANTI" and (has_null or empty):
                continue
            keep = membership(hits, probe_valid, has_null, empty, negated=kind == "ANTI")
            expected = ref._semi_join_keep_naive(build_cols, probe_cols, probe_rows, kind)
            assert (keep.values & keep.is_valid()).tolist() == expected.tolist()
        return fast

    @given(
        st.lists(st.one_of(st.none(), st.integers(0, 6)), min_size=0, max_size=40),
        st.lists(st.one_of(st.none(), st.integers(0, 6)), min_size=0, max_size=40),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_join_indices_match_naive(self, build_ints, probe_ints, data):
        alphabet = st.one_of(st.none(), st.sampled_from(["p", "q", "r"]))
        build_strs = data.draw(
            st.lists(alphabet, min_size=len(build_ints), max_size=len(build_ints))
        )
        probe_strs = data.draw(
            st.lists(alphabet, min_size=len(probe_ints), max_size=len(probe_ints))
        )
        self._join_both_ways(
            self._cols(build_ints, build_strs), self._cols(probe_ints, probe_strs)
        )

    @given(
        st.lists(st.one_of(st.none(), st.integers(0, 4)), min_size=0, max_size=50),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_group_keys_match_naive(self, ints, data):
        from repro.engine import operators as ops
        from tests import reference_operators as ref

        strs = data.draw(
            st.lists(
                st.one_of(st.none(), st.sampled_from(["x", "y"])),
                min_size=len(ints),
                max_size=len(ints),
            )
        )
        cols = self._cols(ints, strs)
        gid_fast, keys_fast = ops._group_keys(cols)
        gid_naive, keys_naive = ref._group_keys_naive(cols, len(ints))
        assert gid_fast.tolist() == gid_naive.tolist()
        assert list(keys_fast) == list(keys_naive)

    @given(st.lists(st.one_of(st.none(), st.integers(0, 5)), min_size=0, max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_distinct_first_seen_order(self, ints):
        from repro.data import Column
        from repro.engine import operators as ops

        col = Column.from_pylist(DataType.INT64, ints)
        first_index = ops._first_occurrences(ops._row_codes([col]))
        got = [col.to_pylist()[i] for i in first_index]
        seen, expected = set(), []
        for v in ints:
            marker = ("null",) if v is None else v
            if marker not in seen:
                seen.add(marker)
                expected.append(v)
        assert got == expected

    @pytest.mark.parametrize("probe_dtype", KEY_DTYPES, ids=lambda d: d.name)
    @pytest.mark.parametrize("build_dtype", KEY_DTYPES, ids=lambda d: d.name)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_join_key_dtype_matrix(self, build_dtype, probe_dtype, data):
        """INNER / SEMI / ANTI over every ordered pair of key dtypes, as a
        single key and as the first half of a two-column key."""
        from repro.data import Column

        build = data.draw(key_lists(build_dtype, max_size=12))
        probe = data.draw(key_lists(probe_dtype, max_size=12))
        self._join_both_ways(
            [Column.from_pylist(build_dtype, build)],
            [Column.from_pylist(probe_dtype, probe)],
        )
        self._join_both_ways(
            pair_of_columns(data.draw, build_dtype, build),
            pair_of_columns(data.draw, probe_dtype, probe),
        )

    @pytest.mark.parametrize("dtype", KEY_DTYPES, ids=lambda d: d.name)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_group_by_and_distinct_per_key_dtype(self, dtype, data):
        from repro import RecordBatch
        from repro.engine import operators as ops
        from tests import reference_operators as ref

        cols = pair_of_columns(data.draw, dtype, data.draw(key_lists(dtype, max_size=20)))
        n = len(cols[0])
        gid_fast, keys_fast = ops._group_keys(cols)
        gid_naive, keys_naive = ref._group_keys_naive(cols, n)
        assert gid_fast.tolist() == gid_naive.tolist()
        assert same(list(keys_fast), list(keys_naive))
        schema = Schema.of(("k", dtype), ("i", DataType.INT64))
        batch = RecordBatch(schema, cols)
        kept = batch.take(ops._first_occurrences(ops._row_codes(cols)))
        expected = [r for b in ref._distinct_naive(schema, [batch]) for r in b.iter_rows()]
        assert same(list(kept.iter_rows()), expected)

    def test_every_nan_is_its_own_key(self):
        """NaN != NaN: a NaN key joins nothing (so NOT IN keeps it), and
        GROUP BY / DISTINCT keep every NaN row apart — python tuple
        semantics, reproduced by ``np.unique(..., equal_nan=False)``."""
        from repro.data import Column
        from repro.engine import operators as ops

        nan = float("nan")
        col = Column.from_pylist(DataType.FLOAT64, [1.0, nan, None, nan, 1.0])
        probe_idx, build_idx = self._join_both_ways([col], [col])
        assert list(zip(probe_idx.tolist(), build_idx.tolist())) == [
            (0, 0), (0, 4), (4, 0), (4, 4)
        ]
        gid, keys = ops._group_keys([col])
        assert gid.tolist() == [0, 1, 2, 3, 0]
        assert same(list(keys), [(1.0,), (nan,), (None,), (nan,)])
        assert ops._first_occurrences(ops._row_codes([col])).tolist() == [0, 1, 2, 3]

    def test_nan_keys_in_sql(self, env):
        platform, admin = env
        schema = Schema.of(("f", DataType.FLOAT64), ("tag", DataType.STRING))
        t = platform.tables.create_managed_table("ds", "nans", schema)
        nan, inf = float("nan"), float("inf")
        platform.managed.append(
            t.table_id,
            batch_from_pydict(
                schema,
                {"f": [nan, 1.5, nan, None, inf], "tag": ["a", "b", "c", "d", "e"]},
            ),
        )
        grouped = q(env, "SELECT f, COUNT(*) AS n FROM ds.nans GROUP BY f").rows()
        assert same(sorted(grouped, key=repr), sorted(
            [(nan, 1), (nan, 1), (1.5, 1), (None, 1), (inf, 1)], key=repr))
        assert len(q(env, "SELECT DISTINCT f FROM ds.nans").rows()) == 5
        # Dynamic partition pruning has no SQL literal for NaN / inf build
        # keys: it drops the first (they match nothing) and stands down on
        # the second, instead of rendering an unparseable restriction.
        joined = q(
            env,
            "SELECT a.tag, b.tag FROM ds.nans a JOIN ds.nans b ON a.f = b.f ORDER BY a.tag",
        ).rows()
        assert joined == [("b", "b"), ("e", "e")]
        semi = q(env, "SELECT tag FROM ds.nans WHERE f IN (SELECT f FROM ds.t) ORDER BY tag")
        assert semi.rows() == [("b",)]
        anti = q(
            env,
            "SELECT tag FROM ds.nans WHERE f NOT IN "
            "(SELECT f FROM ds.t WHERE f IS NOT NULL) ORDER BY tag",
        )
        # NaN (and inf) match nothing in ds.t; the NULL key never qualifies.
        assert anti.rows() == [("a",), ("c",), ("e",)]

    def test_int64_float64_keys_above_2_53_compare_as_floats(self):
        """The one documented divergence from python's exact comparison: an
        INT64 key against a FLOAT64 key is promoted to float64, so 2**53 + 1
        meets the float it rounds to. Same-dtype INT64 keys stay exact."""
        from repro.data import Column
        from repro.engine import operators as ops
        from tests import reference_operators as ref

        big = 2**53
        ints = Column.from_pylist(DataType.INT64, [big, big + 1])
        floats = Column.from_pylist(DataType.FLOAT64, [float(big)])
        valid_i, valid_f = np.ones(2, dtype=bool), np.ones(1, dtype=bool)
        codes = ops._join_key_codes([floats], [ints], 1)
        fast = ops._hash_join_indices(codes[0], codes[1], valid_f, valid_i)
        naive = ref._hash_join_indices_naive([floats], [ints], valid_f, valid_i)
        assert fast[0].tolist() == [0, 1]  # both ints round to float(2**53)
        assert naive[0].tolist() == [0]  # python: 2**53 + 1 != 2.0**53
        exact = ops._join_key_codes([ints], [ints], 2)
        assert exact[0][0] != exact[0][1]  # big and big + 1 stay apart


class TestAggregateEdgeCases:
    def test_min_max_on_strings(self, env):
        r = q(env, "SELECT MIN(s), MAX(s) FROM ds.t")
        assert r.rows() == [("a", "c")]

    def test_min_max_on_dates(self, env):
        r = q(env, "SELECT MIN(d), MAX(d) FROM ds.t")
        lo, hi = r.rows()[0]
        assert lo == dates.parse_date_to_days("2022-01-15")
        assert hi == dates.parse_date_to_days("2023-05-01")

    def test_sum_of_int_stays_int(self, env):
        r = q(env, "SELECT SUM(i) AS total FROM ds.t")
        value = r.single_value()
        assert value == 6 and isinstance(value, int)

    def test_group_by_bool(self, env):
        r = q(env, "SELECT b, COUNT(*) FROM ds.t GROUP BY b")
        data = dict(r.rows())
        assert data[True] == 2 and data[False] == 1 and data[None] == 1

    def test_aggregate_over_expression(self, env):
        r = q(env, "SELECT SUM(i * 2) FROM ds.t")
        assert r.single_value() == 12
