"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.cloud import Cloud, Region
from repro.data import DataType, Schema, batch_from_pydict
from repro.objectstore import ObjectStore
from repro.simtime import SimContext

# `--hypothesis-profile=oracles` (ci.yml's check job): many more examples for
# the tests that leave max_examples to the profile — the lexer and IN-list
# kernels against the loops they replaced, the governance memos and the
# TSDB's marker count against the code that recomputed every time, the
# pruning evaluator against the rows it prunes — which tier-1 runs at the
# default.
settings.register_profile("oracles", max_examples=5000, deadline=None)

GCP_US = Region(Cloud.GCP, "us-central1")
AWS_US = Region(Cloud.AWS, "us-east-1")
AZURE_EU = Region(Cloud.AZURE, "westeurope")


@pytest.fixture
def ctx() -> SimContext:
    return SimContext()


@pytest.fixture
def store(ctx: SimContext) -> ObjectStore:
    s = ObjectStore(GCP_US, ctx)
    s.create_bucket("lake")
    return s


@pytest.fixture
def sales_schema() -> Schema:
    return Schema.of(
        ("order_id", DataType.INT64),
        ("region", DataType.STRING),
        ("amount", DataType.FLOAT64),
        ("ok", DataType.BOOL),
    )


@pytest.fixture
def sales_batch(sales_schema: Schema):
    return batch_from_pydict(
        sales_schema,
        {
            "order_id": [1, 2, 3, 4, None],
            "region": ["us", "eu", "us", None, "apac"],
            "amount": [10.0, 20.5, None, 40.0, 50.0],
            "ok": [True, False, True, True, None],
        },
    )
