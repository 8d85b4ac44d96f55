"""Tests for the row-oriented reader and the vectorized path:
``pqs.read_row_group`` per row group, and footer-stat pruning with
``surviving_row_groups``."""

import pytest

from repro.data import DataType, DictionaryColumn, Schema, batch_from_pydict
from repro.formats import RowReader, pqs, write_table
from repro.formats.readers import surviving_row_groups
from repro.metastore.constraints import ColumnConstraint, ConstraintSet


@pytest.fixture
def file_bytes():
    schema = Schema.of(
        ("id", DataType.INT64), ("color", DataType.STRING), ("v", DataType.FLOAT64)
    )
    batch = batch_from_pydict(
        schema,
        {
            "id": list(range(10)),
            "color": ["red", "blue"] * 5,
            "v": [float(i) * 1.5 for i in range(10)],
        },
    )
    return write_table(schema, [batch], row_group_rows=4)


def row_groups(data, **kwargs):
    """Every row group of the file, decoded as the Read API's columnar scan does."""
    footer = pqs.read_footer(data)
    return [pqs.read_row_group(data, footer, i, **kwargs) for i in range(len(footer.row_groups))]


def surviving(data, **bounds):
    constraints = ConstraintSet()
    constraints.add("id", ColumnConstraint(**bounds))
    return surviving_row_groups(pqs.read_footer(data), constraints)


class TestRowReader:
    def test_iter_all_rows(self, file_bytes):
        rows = list(RowReader(file_bytes).iter_rows())
        assert len(rows) == 10
        assert rows[0] == (0, "red", 0.0)

    def test_projection(self, file_bytes):
        rows = list(RowReader(file_bytes).iter_rows(columns=["v", "id"]))
        assert rows[1] == (1.5, 1)

    def test_predicate(self, file_bytes):
        rows = list(
            RowReader(file_bytes).iter_rows(
                columns=["id"], predicate=lambda r: r["color"] == "blue"
            )
        )
        assert [r[0] for r in rows] == [1, 3, 5, 7, 9]

    def test_read_all_rebatches(self, file_bytes):
        batches = list(RowReader(file_bytes).read_all(columns=["id"], batch_rows=3))
        assert [b.num_rows for b in batches] == [3, 3, 3, 1]


class TestVectorizedReader:
    def test_batches_per_row_group(self, file_bytes):
        assert [b.num_rows for b in row_groups(file_bytes)] == [4, 4, 2]

    def test_keeps_dictionary_encoding(self, file_bytes):
        batch = row_groups(file_bytes, columns=["color"])[0]
        assert isinstance(batch.raw_column("color"), DictionaryColumn)

    def test_flat_mode(self, file_bytes):
        batch = row_groups(file_bytes, columns=["color"], keep_dictionary=False)[0]
        assert not isinstance(batch.raw_column("color"), DictionaryColumn)

    def test_same_data_both_paths(self, file_bytes):
        vec_rows = [row for batch in row_groups(file_bytes) for row in batch.iter_rows()]
        assert vec_rows == list(RowReader(file_bytes).iter_rows())

    def test_row_group_pruning_by_stats(self, file_bytes):
        # ids 0-3 / 4-7 / 8-9 per row group.
        assert surviving(file_bytes, lo=8) == [2]
        assert surviving(file_bytes, hi=3) == [0]
        assert surviving(file_bytes, lo=2, hi=5) == [0, 1]

    def test_pruning_without_bounds_keeps_all(self, file_bytes):
        assert surviving(file_bytes) == [0, 1, 2]
