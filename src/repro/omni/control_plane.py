"""The Omni control plane: the Job Server (§5.1, §5.3.1).

All query requests enter through the Job Server on GCP: it validates the
SQL, authorizes the principal, looks up table metadata to find where the
data lives, downscopes credentials to the exact paths the query needs, and
forwards execution to the engine colocated with the data — over the VPN
when that engine runs in a foreign cloud. Queries spanning locations hand
off to the cross-cloud planner (§5.6.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AccessDeniedError, AnalysisError
from repro.metastore.catalog import TableInfo
from repro.security.connections import ScopedCredential
from repro.security.iam import Permission, Principal
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse_statement

from repro.omni.crosscloud import CrossCloudQueryPlanner
from repro.omni.deployment import OmniDeployment


@dataclass
class JobInfo:
    """Bookkeeping for one submitted job."""

    job_id: str
    principal: Principal
    locations: list[str]
    scoped_credentials: list[ScopedCredential] = field(default_factory=list)
    routed_engine: str = ""
    cross_cloud: bool = False


class JobServer:
    """The BigQuery public API front end for a multi-cloud deployment."""

    def __init__(self, platform, omni: OmniDeployment) -> None:
        self.platform = platform
        self.omni = omni
        self.jobs: list[JobInfo] = []
        self._job_counter = 0

    def submit(self, sql: str, principal: Principal):
        """Validate, authorize, scope credentials, route, execute."""
        statement = parse_statement(sql)  # query validation
        project = self.platform.config.project
        decision = self.platform.iam.is_allowed(
            principal, Permission.JOBS_CREATE, f"projects/{project}"
        )
        self.platform.audit.record(
            principal, "job.submit", f"projects/{project}", decision.allowed,
            decision.reason,
        )
        if not decision.allowed:
            raise AccessDeniedError(f"{principal} cannot create jobs: {decision.reason}")

        self._job_counter += 1
        job = JobInfo(
            job_id=f"job-{self._job_counter:08d}",
            principal=principal,
            locations=[],
        )
        self.jobs.append(job)

        if not isinstance(statement, ast.Select):
            # DML executes in the home region (the catalog's home).
            job.routed_engine = self.platform.home_engine.name
            return self.platform.home_engine.execute(sql, principal)

        tables = self._referenced_tables(statement)
        job.scoped_credentials = self._downscope_credentials(tables)
        locations = sorted({t.location for t in tables})
        job.locations = locations
        home = self.platform.config.home_region.location

        try:
            if len(locations) > 1:
                job.cross_cloud = True
                planner = CrossCloudQueryPlanner(self.platform, self.omni)
                primary = self.platform.engine_in(home)
                job.routed_engine = primary.name
                return planner.execute(statement, principal, primary)

            target_location = locations[0] if locations else home
            engine = self.platform.engine_in(target_location)
            job.routed_engine = engine.name
            if target_location != home:
                self._forward_over_vpn(job, sql, target_location)
            result = engine.execute(statement, principal)
            if target_location != home:
                self._return_over_vpn(job, result, target_location)
            return result
        finally:
            for credential in job.scoped_credentials:
                self.platform.connections.revoke(credential)

    # ------------------------------------------------------------------

    def _referenced_tables(self, select: ast.Select) -> list[TableInfo]:
        """Every table the query reads: FROM items and joins, subqueries in
        FROM and in WHERE, TVF inputs and UNION ALL arms."""
        tables: list[TableInfo] = []
        for node in ast.walk(select):
            if isinstance(node, ast.TableRef):
                tables.append(self.platform.catalog.resolve(node.path))
            elif isinstance(node, ast.TvfRef) and node.input_table is not None:
                tables.append(self.platform.catalog.resolve(node.input_table))
        return tables

    def _downscope_credentials(self, tables: list[TableInfo]) -> list[ScopedCredential]:
        """§5.3.1: compute the superset of object paths the query touches
        and mint credentials scoped to exactly those paths, per connection."""
        by_connection: dict[str, list[str]] = {}
        for table in tables:
            if table.connection_name is None or table.storage is None:
                continue
            path = f"{table.storage.bucket}/{table.storage.prefix.rstrip('/')}/"
            by_connection.setdefault(table.connection_name, []).append(path)
        credentials = []
        for connection_name, paths in by_connection.items():
            connection = self.platform.connections.get_connection(connection_name)
            credentials.append(
                self.platform.connections.mint_scoped_credential(connection, paths)
            )
        return credentials

    def _forward_over_vpn(self, job: JobInfo, sql: str, location: str) -> None:
        """Ship the query + session token to a foreign-cloud data plane."""
        region = self.omni.regions.get(location)
        if region is None:
            raise AnalysisError(
                f"table data lives in {location!r} but no Omni region is deployed there"
            )
        token = region.channel.mint_session_token(
            job.job_id, allowed_services=["job-server", "metadata", "shuffle"]
        )
        region.channel.ctx.with_retry(
            "vpn.call",
            lambda: region.channel.call(
                "job-server@gcp", "dremel", "ExecuteQuery",
                payload_bytes=len(sql.encode()) + 2048,  # query + creds + token
            ),
        )
        job.cross_cloud = False
        del token  # the data plane holds it for callbacks; modeled in tests

    def _return_over_vpn(self, job: JobInfo, result, location: str) -> None:
        """Stream the (final) result rows back to the control plane."""
        region = self.omni.regions[location]
        result_bytes = sum(b.nbytes() for b in result.batches)
        region.channel.ctx.with_retry(
            "vpn.call",
            lambda: region.channel.call(
                region.realm.service_user("dremel"), "job-server",
                "ReturnResults", payload_bytes=result_bytes, toward_data_plane=False,
            ),
        )
