"""Omni tests: deployment, VPN security, job routing, cross-cloud queries,
and CCMVs (§5)."""

import pytest

from repro import Cloud, DataType, MetadataCacheMode, Region, Role, Schema, batch_from_pydict
from repro.errors import AccessDeniedError, InvalidCredentialError, OmniError, VpnPolicyError
from repro.omni.ccmv import CrossCloudMaterializedView
from repro.omni.deployment import validate_cross_realm_isolation
from repro.storageapi.fileutil import write_data_file

from tests.helpers import make_platform

AWS = Region(Cloud.AWS, "us-east-1")
AZURE = Region(Cloud.AZURE, "westeurope")

ORDERS = Schema.of(
    ("order_id", DataType.INT64),
    ("customer_id", DataType.INT64),
    ("order_total", DataType.FLOAT64),
)


def setup_aws_orders(platform, admin, n=100):
    s3 = platform.stores.store_for(AWS.location)
    if not s3.has_bucket("orders-s3"):
        s3.create_bucket("orders-s3")
    if not platform.connections.has_connection("aws.orders"):
        conn = platform.connections.create_connection("aws.orders")
        platform.connections.grant_lake_access(conn, "orders-s3")
    platform.iam.grant("connections/aws.orders", Role.CONNECTION_USER, admin)
    write_data_file(
        s3, "orders-s3", "orders/part-0.pqs", ORDERS,
        [batch_from_pydict(ORDERS, {
            "order_id": list(range(n)),
            "customer_id": [i % 25 for i in range(n)],
            "order_total": [float(i) * 2 for i in range(n)],
        })],
    )
    if not platform.catalog.has_dataset("aws_dataset"):
        platform.catalog.create_dataset("aws_dataset")
    return platform.tables.create_biglake_table(
        admin, "aws_dataset", "customer_orders", ORDERS,
        "orders-s3", "orders", "aws.orders",
        cache_mode=MetadataCacheMode.AUTOMATIC,
    )


@pytest.fixture
def env():
    platform, admin = make_platform()
    region = platform.omni.deploy_region(AWS)
    table = setup_aws_orders(platform, admin)
    return platform, admin, region, table


class TestDeployment:
    def test_data_plane_services_launched(self, env):
        _, _, region, _ = env
        services = {p.service for p in region.cluster.pods}
        assert {"dremel", "chubby", "shuffle", "envelope"} <= services

    def test_binary_authorization_rejects_unverified(self, env):
        _, _, region, _ = env
        with pytest.raises(OmniError):
            region.cluster.launch_pod("dremel", "dremel", b"tampered binary")

    def test_gcp_region_rejected(self):
        platform, _ = make_platform()
        with pytest.raises(OmniError):
            platform.omni.deploy_region(Region(Cloud.GCP, "europe-west1"))

    def test_idempotent_deploy(self, env):
        platform, _, region, _ = env
        again = platform.omni.deploy_region(AWS)
        assert again is region

    def test_security_realms_are_disjoint(self, env):
        platform, _, aws_region, _ = env
        azure_region = platform.omni.deploy_region(AZURE)
        validate_cross_realm_isolation(aws_region, azure_region)
        foreign_worker = azure_region.realm.service_user("dremel")
        token = aws_region.channel.mint_session_token("q1", ["job-server"])
        with pytest.raises(VpnPolicyError):
            aws_region.proxy.call_control_plane(foreign_worker, token, "job-server", "Ping")


class TestVpnAndProxy:
    def test_policy_engine_denies_unlisted_caller(self, env):
        _, _, region, _ = env
        with pytest.raises(VpnPolicyError):
            region.channel.call("rogue@nowhere", "dremel", "ExecuteQuery", 10)

    def test_proxy_admits_valid_token(self, env):
        _, _, region, _ = env
        worker = region.realm.service_user("dremel")
        token = region.channel.mint_session_token("q1", ["metadata"])
        region.proxy.call_control_plane(worker, token, "metadata", "LookupTable")
        assert region.proxy.admitted_calls == 1

    def test_proxy_blocks_out_of_scope_service(self, env):
        """§5.3.2: a compromised worker cannot reach services outside the
        query's session scope."""
        _, _, region, _ = env
        worker = region.realm.service_user("dremel")
        token = region.channel.mint_session_token("q1", ["metadata"])
        with pytest.raises(VpnPolicyError):
            region.proxy.call_control_plane(worker, token, "spanner-catalog", "Scan")
        assert region.proxy.denied_calls == 1

    def test_expired_token_rejected(self, env):
        platform, _, region, _ = env
        worker = region.realm.service_user("dremel")
        token = region.channel.mint_session_token("q1", ["metadata"], ttl_ms=5.0)
        platform.ctx.clock.advance(10.0)
        with pytest.raises(InvalidCredentialError):
            region.proxy.call_control_plane(worker, token, "metadata", "Lookup")

    def test_forged_token_rejected(self, env):
        from dataclasses import replace

        _, _, region, _ = env
        worker = region.realm.service_user("dremel")
        token = region.channel.mint_session_token("q1", ["metadata"])
        forged = replace(token, allowed_services=frozenset({"metadata", "spanner-catalog"}))
        with pytest.raises(InvalidCredentialError):
            region.proxy.call_control_plane(worker, forged, "spanner-catalog", "Scan")

    def test_vpn_charges_cross_cloud_latency(self, env):
        platform, _, region, _ = env
        t0 = platform.ctx.clock.now_ms
        region.channel.call("job-server@gcp", "dremel", "Ping", 1024)
        assert platform.ctx.clock.now_ms - t0 >= platform.ctx.costs.cross_cloud_rtt_ms


class TestJobServer:
    def test_routes_to_colocated_engine(self, env):
        platform, admin, region, _ = env
        result = platform.job_server.submit(
            "SELECT COUNT(*) FROM aws_dataset.customer_orders", admin
        )
        assert result.single_value() == 100
        job = platform.job_server.jobs[-1]
        assert job.routed_engine == region.engine.name
        assert region.channel.calls >= 2  # forward + results

    def test_home_queries_skip_vpn(self, env):
        platform, admin, region, _ = env
        platform.catalog.create_dataset("home")
        t = platform.tables.create_managed_table(
            "home", "x", Schema.of(("a", DataType.INT64))
        )
        platform.managed.append(t.table_id, batch_from_pydict(t.schema, {"a": [1]}))
        calls_before = region.channel.calls
        platform.job_server.submit("SELECT a FROM home.x", admin)
        assert region.channel.calls == calls_before

    def test_job_requires_permission(self, env):
        platform, _, _, _ = env
        from repro.security.iam import Principal

        nobody = Principal.user("nobody")
        with pytest.raises(AccessDeniedError):
            platform.job_server.submit("SELECT 1", nobody)

    def test_scoped_credentials_minted_per_query(self, env):
        platform, admin, _, _ = env
        platform.job_server.submit(
            "SELECT COUNT(*) FROM aws_dataset.customer_orders", admin
        )
        job = platform.job_server.jobs[-1]
        assert len(job.scoped_credentials) == 1
        cred = job.scoped_credentials[0]
        assert cred.permits("orders-s3", "orders/part-0.pqs")
        assert not cred.permits("orders-s3", "other/secret")
        # Credentials are revoked once the query finishes (§5.3.1).
        with pytest.raises(InvalidCredentialError):
            platform.connections.validate(cred, "orders-s3", "orders/part-0.pqs")


class TestCrossCloudQueries:
    def _setup_local_ads(self, platform, admin):
        platform.catalog.create_dataset("local_dataset")
        ads = Schema.of(
            ("id", DataType.INT64), ("customer_id", DataType.INT64)
        )
        t = platform.tables.create_managed_table("local_dataset", "ads", ads)
        platform.managed.append(
            t.table_id,
            batch_from_pydict(ads, {"id": list(range(20)), "customer_id": [i % 10 for i in range(20)]}),
        )

    def test_listing_3_join(self, env):
        platform, admin, _, _ = env
        self._setup_local_ads(platform, admin)
        result = platform.job_server.submit(
            """
            SELECT o.order_id, o.order_total, ads.id
            FROM local_dataset.ads AS ads
            JOIN aws_dataset.customer_orders AS o ON o.customer_id = ads.customer_id
            WHERE o.order_total > 150
            """,
            admin,
        )
        assert result.num_rows > 0
        assert result.cross_cloud["subqueries"] == 1
        assert "aws/us-east-1" in result.cross_cloud["sources"]
        job = platform.job_server.jobs[-1]
        assert job.cross_cloud

    def test_cross_cloud_matches_single_region_answer(self, env):
        platform, admin, _, _ = env
        self._setup_local_ads(platform, admin)
        sql = """
            SELECT COUNT(*) FROM local_dataset.ads AS ads
            JOIN aws_dataset.customer_orders AS o ON o.customer_id = ads.customer_id
        """
        via_jobserver = platform.job_server.submit(sql, admin)
        # Ground truth computed directly on the home engine (it can read
        # the remote bucket too, just expensively).
        direct = platform.home_engine.execute(sql, admin)
        assert via_jobserver.single_value() == direct.single_value()

    def test_pushdown_reduces_egress_vs_naive(self, env):
        """§5.6.1: filtered subquery results ≪ full-table copy."""
        from repro.omni.crosscloud import CrossCloudQueryPlanner
        from repro.sql.parser import parse_statement

        platform, admin, _, _ = env
        self._setup_local_ads(platform, admin)
        sql = """
            SELECT o.order_id FROM local_dataset.ads AS ads
            JOIN aws_dataset.customer_orders AS o ON o.customer_id = ads.customer_id
            WHERE o.order_total > 150
        """
        planner = CrossCloudQueryPlanner(platform, platform.omni)
        pushed = planner.execute(parse_statement(sql), admin, platform.home_engine)
        naive = planner.execute_naive_copy(parse_statement(sql), admin, platform.home_engine)
        assert pushed.rows() and sorted(pushed.rows()) == sorted(naive.rows())
        assert pushed.cross_cloud["bytes_moved"] < naive.cross_cloud["bytes_moved"]

    def test_in_subquery_routes_like_the_join(self, env):
        """The ``IN (SELECT …)`` form of Listing 3 is a cross-cloud job like
        the JOIN form — same locations, routing and credential paths —
        moves no more bytes, and answers as the home engine does."""
        platform, admin, _, _ = env
        self._setup_local_ads(platform, admin)
        join_sql = """
            SELECT o.order_id, o.order_total, ads.id
            FROM local_dataset.ads AS ads
            JOIN aws_dataset.customer_orders AS o ON o.customer_id = ads.customer_id
            WHERE o.order_total > 150
        """
        in_sql = """
            SELECT id FROM local_dataset.ads WHERE customer_id IN (
                SELECT customer_id FROM aws_dataset.customer_orders WHERE order_total > 150)
        """
        runs = {}
        for form, sql in (("join", join_sql), ("in", in_sql)):
            before = platform.ctx.metering.snapshot()
            result = platform.job_server.submit(sql, admin)
            delta = platform.ctx.metering.delta_since(before)
            egress = sum(n for (src, _), n in delta.egress_bytes.items() if src.startswith("aws"))
            runs[form] = (platform.job_server.jobs[-1], egress, result)
        (join_job, join_egress, _), (in_job, in_egress, in_result) = runs["join"], runs["in"]
        assert in_job.locations == join_job.locations and len(in_job.locations) == 2
        assert in_job.cross_cloud and join_job.cross_cloud
        assert in_job.routed_engine == join_job.routed_engine
        paths = [sorted(c.allowed_paths) for c in in_job.scoped_credentials]
        assert paths == [sorted(c.allowed_paths) for c in join_job.scoped_credentials]
        assert paths == [["orders-s3/orders/"]]
        assert 0 < in_egress <= join_egress
        direct = platform.home_engine.execute(in_sql, admin)
        assert in_result.rows() and sorted(in_result.rows()) == sorted(direct.rows())


class TestCcmv:
    def test_incremental_refresh(self, env):
        platform, admin, _, table = env
        mv = CrossCloudMaterializedView(
            platform, "orders_by_cust",
            "SELECT customer_id, SUM(order_total) AS total "
            "FROM aws_dataset.customer_orders GROUP BY customer_id",
            "customer_id", platform.engine_in(AWS.location), admin,
        )
        first = mv.refresh()
        assert first.partitions_changed == first.partitions_total == 25
        second = mv.refresh()
        assert second.partitions_changed == 0
        assert second.bytes_replicated == 0

    def test_point_change_ships_one_partition(self, env):
        platform, admin, _, table = env
        mv = CrossCloudMaterializedView(
            platform, "mv2",
            "SELECT customer_id, SUM(order_total) AS total "
            "FROM aws_dataset.customer_orders GROUP BY customer_id",
            "customer_id", platform.engine_in(AWS.location), admin,
        )
        mv.refresh()
        s3 = platform.stores.store_for(AWS.location)
        write_data_file(
            s3, "orders-s3", "orders/part-1.pqs", ORDERS,
            [batch_from_pydict(ORDERS, {
                "order_id": [10_000], "customer_id": [7], "order_total": [5000.0],
            })],
        )
        platform.read_api.refresh_metadata_cache(table)
        report = mv.refresh()
        assert report.partitions_changed == 1
        assert report.bytes_replicated < mv.full_copy_bytes() / 5

    def test_replica_queryable_with_local_governance(self, env):
        platform, admin, _, _ = env
        mv = CrossCloudMaterializedView(
            platform, "mv3",
            "SELECT customer_id, SUM(order_total) AS total "
            "FROM aws_dataset.customer_orders GROUP BY customer_id",
            "customer_id", platform.engine_in(AWS.location), admin,
        )
        mv.refresh()
        r = platform.home_engine.execute(
            "SELECT COUNT(*) FROM ccmv.mv3", admin
        )
        assert r.single_value() == 25
        # Reading the replica moves no cross-cloud bytes.
        before = platform.ctx.metering.snapshot()
        platform.home_engine.execute("SELECT total FROM ccmv.mv3 WHERE customer_id = 1", admin)
        delta = platform.ctx.metering.delta_since(before)
        assert not any(
            src.startswith("aws") for (src, _), _ in delta.egress_bytes.items()
        )

    def test_removed_partition_dropped_from_replica(self, env):
        platform, admin, _, table = env
        mv = CrossCloudMaterializedView(
            platform, "mv4",
            "SELECT customer_id, SUM(order_total) AS total "
            "FROM aws_dataset.customer_orders WHERE order_total < 20 GROUP BY customer_id",
            "customer_id", platform.engine_in(AWS.location), admin,
        )
        first = mv.refresh()
        assert first.partitions_total > 0
        # Delete the source rows feeding the view (totals < 20).
        s3 = platform.stores.store_for(AWS.location)
        s3.delete_object("orders-s3", "orders/part-0.pqs")
        write_data_file(
            s3, "orders-s3", "orders/part-0.pqs", ORDERS,
            [batch_from_pydict(ORDERS, {
                "order_id": [1], "customer_id": [1], "order_total": [100.0],
            })],
        )
        platform.read_api.refresh_metadata_cache(table)
        report = mv.refresh()
        assert report.partitions_removed == first.partitions_total
        r = platform.home_engine.execute("SELECT COUNT(*) FROM ccmv.mv4", admin)
        assert r.single_value() == 0


class TestTokenRecovery:
    """Satellite: SessionToken expiry + UntrustedProxy rejection paths,
    including retry-on-reestablish (PR 3)."""

    def test_expiry_raises_token_expired_error(self, env):
        from repro.errors import TokenExpiredError

        platform, _, region, _ = env
        token = region.channel.mint_session_token("q1", ["metadata"], ttl_ms=5.0)
        platform.ctx.clock.advance(10.0)
        with pytest.raises(TokenExpiredError):
            region.channel.verify_token(token)

    def test_expired_token_denied_without_refresher(self, env):
        from repro.errors import TokenExpiredError

        platform, _, region, _ = env
        worker = region.realm.service_user("dremel")
        token = region.channel.mint_session_token("q1", ["metadata"], ttl_ms=5.0)
        platform.ctx.clock.advance(10.0)
        assert region.proxy.token_refresher is None
        with pytest.raises(TokenExpiredError):
            region.proxy.call_control_plane(worker, token, "metadata", "Lookup")
        assert region.proxy.denied_calls == 1
        assert region.proxy.admitted_calls == 0

    def test_refresher_reestablishes_expired_token(self, env):
        platform, _, region, _ = env
        worker = region.realm.service_user("dremel")
        token = region.channel.mint_session_token("q1", ["metadata"], ttl_ms=5.0)
        region.proxy.set_token_refresher(
            lambda old: region.channel.mint_session_token(
                old.query_id, sorted(old.allowed_services)
            )
        )
        platform.ctx.clock.advance(10.0)
        admitted = region.proxy.call_control_plane(worker, token, "metadata", "Lookup")
        assert admitted.token_id != token.token_id
        assert admitted.query_id == token.query_id
        assert region.proxy.admitted_calls == 1
        assert region.proxy.denied_calls == 0
        assert platform.ctx.metering.op_counts.get("omni.token_reestablished") == 1

    def test_forged_token_never_refreshed(self, env):
        from dataclasses import replace

        from repro.errors import InvalidCredentialError

        _, _, region, _ = env
        worker = region.realm.service_user("dremel")
        calls = []
        region.proxy.set_token_refresher(lambda old: calls.append(old))
        token = region.channel.mint_session_token("q1", ["metadata"])
        forged = replace(
            token, allowed_services=frozenset({"metadata", "spanner-catalog"})
        )
        with pytest.raises(InvalidCredentialError):
            region.proxy.call_control_plane(worker, forged, "spanner-catalog", "Scan")
        assert calls == []  # the refresh path must not launder forgeries
        assert region.proxy.denied_calls == 1

    def test_refresher_returning_bad_token_denied(self, env):
        from dataclasses import replace

        from repro.errors import InvalidCredentialError

        platform, _, region, _ = env
        worker = region.realm.service_user("dremel")
        token = region.channel.mint_session_token("q1", ["metadata"], ttl_ms=5.0)
        region.proxy.set_token_refresher(
            lambda old: replace(old, signature="deadbeef")
        )
        platform.ctx.clock.advance(10.0)
        with pytest.raises(InvalidCredentialError):
            region.proxy.call_control_plane(worker, token, "metadata", "Lookup")
        assert region.proxy.denied_calls == 1
        assert region.proxy.admitted_calls == 0

    def test_vpn_flap_retried_by_proxy(self, env):
        from repro.faults import FaultSpec

        platform, _, region, _ = env
        worker = region.realm.service_user("dremel")
        token = region.channel.mint_session_token("q1", ["metadata"])
        platform.ctx.faults.add(
            FaultSpec(op="vpn.call", error="VpnUnavailableError", count=1)
        )
        region.proxy.call_control_plane(worker, token, "metadata", "Lookup")
        assert region.proxy.admitted_calls == 1
        assert platform.ctx.metering.op_counts.get("repro.retry", 0) >= 1

    def test_vpn_outage_exhausts_retry_budget(self, env):
        from repro.errors import VpnUnavailableError
        from repro.faults import FaultPlan, FaultSpec

        platform, _, region, _ = env
        worker = region.realm.service_user("dremel")
        token = region.channel.mint_session_token("q1", ["metadata"])
        platform.ctx.faults.install(FaultPlan(seed=1, specs=[
            FaultSpec(op="vpn.call", error="VpnUnavailableError", rate=1.0)
        ]))
        with pytest.raises(VpnUnavailableError):
            region.proxy.call_control_plane(worker, token, "metadata", "Lookup")
        assert (
            platform.ctx.metering.op_counts.get("repro.retry")
            == platform.ctx.retry.max_attempts - 1
        )
        assert region.proxy.admitted_calls == 0

    def test_cross_cloud_query_survives_vpn_flaps(self, env):
        from repro.faults import FaultSpec

        platform, admin, region, _ = env
        platform.ctx.faults.add(
            FaultSpec(op="vpn.call", error="VpnUnavailableError", count=1)
        )
        result = platform.job_server.submit(
            "SELECT COUNT(*) FROM aws_dataset.customer_orders", admin
        )
        assert result.single_value() == 100
        assert platform.ctx.metering.op_counts.get("repro.retry", 0) >= 1
