"""Coverage for the remaining public surface: errors, CLI, result helpers."""

import pytest

from repro import errors


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        exception_types = [
            value
            for value in vars(errors).values()
            if isinstance(value, type) and issubclass(value, Exception)
        ]
        assert len(exception_types) >= 20
        for exc in exception_types:
            assert issubclass(exc, errors.ReproError)

    def test_domain_groupings(self):
        assert issubclass(errors.NotFoundError, errors.StorageError)
        assert issubclass(errors.AccessDeniedError, errors.SecurityError)
        assert issubclass(errors.SqlSyntaxError, errors.QueryError)
        assert issubclass(errors.StreamOffsetError, errors.StorageApiError)
        assert issubclass(errors.ModelTooLargeError, errors.MlError)
        assert issubclass(errors.VpnPolicyError, errors.OmniError)

    def test_catching_base_catches_all(self):
        with pytest.raises(errors.ReproError):
            raise errors.TransactionConflictError("x")


class TestCli:
    def test_demo_runs(self, capsys):
        from repro.__main__ import main

        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "region" in out and "pruned" in out

    def test_info_runs(self, capsys):
        from repro.__main__ import main

        assert main(["info"]) == 0
        assert "BigLake" in capsys.readouterr().out

    def test_default_is_demo(self, capsys):
        from repro.__main__ import main

        assert main([]) == 0

    def test_commands_table_names_the_thirteen_commands(self):
        from repro.__main__ import COMMANDS

        assert [c.name for c in COMMANDS] == [
            "demo", "trace", "jobs", "chaos", "cache-stats", "querycache",
            "schedule", "serve", "monitor", "txn", "readsession",
            "experiments", "info",
        ]

    @pytest.mark.parametrize("argv", [
        ["serve", "--suite"],
        ["readsession", "--recover"],
        ["demo", "--seed", "1"],
        ["serve", "--smoke", "--suite", "--no-retries", "--recover", "--seed", "1"],
    ])
    def test_a_flag_another_command_owns_is_a_usage_error(self, argv, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["schedule", "serve", "txn", "readsession", "chaos"])
    def test_a_bad_fault_plan_is_one_error_line_before_anything_runs(self, command, capsys):
        from repro.__main__ import main

        assert main([command, "--plan", "nope"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: fault spec 'nope' can never fire: set rate= or count=\n"

    def test_every_documented_invocation_parses(self, capsys):
        """Drift guard: each ``python -m repro …`` in the gate, CI and README
        (and each ``repro …`` row of ``scripts/check.sh``) is a valid command
        line for ``main``'s parser."""
        import re
        import shlex
        from pathlib import Path

        from repro.__main__ import _parser

        # An inline-code span may wrap onto one more line before its backtick.
        python_m = r"python -m repro\b([^`\n]*(?:\n[^`\n]*(?=`))?)"
        patterns = {
            "scripts/check.sh": r"\s+repro ([a-z].*)$",  # rows call its `repro` function
            ".github/workflows/ci.yml": python_m,
            "README.md": python_m,
        }
        root = Path(__file__).resolve().parent.parent
        invocations = [
            (name, args.replace("\n", " "))
            for name, pattern in patterns.items()
            for args in re.findall(
                pattern,
                (root / name).read_text(encoding="utf-8").replace("\\\n", " "),
                flags=re.MULTILINE,
            )
        ]
        assert len(invocations) >= 45
        parser = _parser()
        for name, args in invocations:
            try:
                parser.parse_args(shlex.split(args))
            except SystemExit as exc:  # `--help` exits 0
                assert exc.code == 0, f"{name}: `python -m repro {args}` does not parse"


class TestQueryResultHelpers:
    @pytest.fixture
    def result(self):
        from tests.helpers import make_platform
        from repro import DataType, Schema, batch_from_pydict

        platform, admin = make_platform()
        platform.catalog.create_dataset("ds")
        t = platform.tables.create_managed_table(
            "ds", "t", Schema.of(("a", DataType.INT64), ("b", DataType.STRING))
        )
        platform.managed.append(
            t.table_id,
            batch_from_pydict(t.schema, {"a": [1, 2], "b": ["x", "y"]}),
        )
        return platform.home_engine.execute("SELECT a, b FROM ds.t ORDER BY a", admin)

    def test_column_accessor(self, result):
        assert result.column("b") == ["x", "y"]

    def test_to_pydict(self, result):
        assert result.to_pydict() == {"a": [1, 2], "b": ["x", "y"]}

    def test_single_value_requires_scalar(self, result):
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            result.single_value()

    def test_plan_text_present(self, result):
        assert "Scan(" in result.plan_text


class TestWireErrors:
    def test_truncated_payload(self):
        from repro.errors import StorageApiError
        from repro.storageapi import wire

        with pytest.raises(StorageApiError):
            wire.decode_batch(b"WIR")

    def test_empty_batch_round_trip(self, sales_schema):
        from repro.data import RecordBatch
        from repro.storageapi import wire

        empty = RecordBatch.empty(sales_schema)
        out = wire.decode_batch(wire.encode_batch(empty))
        assert out.num_rows == 0
        assert out.schema == sales_schema
