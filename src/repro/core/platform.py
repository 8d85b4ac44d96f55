"""LakehousePlatform: one-stop wiring of the whole deployment.

A platform owns the shared simulation context plus the control-plane
services (IAM, catalog, connections, Big Metadata, audit) and constructs
per-region data planes: object stores and query engines. This mirrors the
paper's architecture: a single control plane, engines colocated with data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache import CacheConfig, DataCache
from repro.cache.plan import QueryCache, QueryCacheConfig
from repro.cloud import Cloud, Region
from repro.engine.engine import QueryEngine
from repro.errors import CatalogError
from repro.metastore.bigmeta import BigMetadataService
from repro.metastore.catalog import Catalog
from repro.metastore.hivemeta import HiveMetastore
from repro.objectstore.registry import StoreRegistry
from repro.obs.history import JobHistory
from repro.obs.monitor import FleetMonitor, MonitorConfig
from repro.obs.system_tables import SystemTables
from repro.security.audit import AuditLog
from repro.security.connections import ConnectionManager
from repro.security.iam import IamService, Principal, Role
from repro.serving.jobs import JobQueue, JobsApi, ServingConfig
from repro.simtime import SimContext
from repro.sql.expressions import FunctionRegistry
from repro.storageapi.managed import ManagedStorage
from repro.storageapi.read_api import ReadApi
from repro.storageapi.write_api import WriteApi

GCP_US = Region(Cloud.GCP, "us-central1")


@dataclass
class PlatformConfig:
    project: str = "repro-project"
    home_region: Region = field(default_factory=lambda: GCP_US)
    engine_slots: int = 64
    # Ring-buffer bound on the queryable job history (INFORMATION_SCHEMA.JOBS).
    job_history_capacity: int = 256
    # Slot-local multi-tier data cache (footer/chunk/dictionary tiers);
    # CacheConfig(enabled=False) reproduces the always-cold baseline.
    data_cache: CacheConfig = field(default_factory=CacheConfig)
    # Plan + query-result caches (snapshot-keyed, coherent by keying).
    # Plan caching is on by default (invisible to results and timings);
    # result caching additionally needs use_query_cache=True per statement.
    query_cache: QueryCacheConfig = field(default_factory=QueryCacheConfig)
    # Concurrency policy for the shared slot pool / async jobs API
    # (admission control seats, inter-stage overlap, per-principal weights).
    serving: ServingConfig = field(default_factory=ServingConfig)
    # Fleet telemetry (TSDB scrapes, reservation timelines, SLO alerts);
    # MonitorConfig(enabled=False) is the no-telemetry baseline.
    monitoring: MonitorConfig = field(default_factory=MonitorConfig)


class LakehousePlatform:
    """The assembled multi-cloud lakehouse."""

    def __init__(self, config: PlatformConfig | None = None) -> None:
        self.config = config or PlatformConfig()
        self.ctx = SimContext()
        self.iam = IamService()
        self.audit = AuditLog(self.ctx)
        self.catalog = Catalog(self.config.project)
        self.bigmeta = BigMetadataService(self.ctx)
        self.hivemeta = HiveMetastore(self.ctx)
        self.stores = StoreRegistry(self.ctx)
        self.connections = ConnectionManager(self.iam, self.ctx)
        self.managed = ManagedStorage(self.ctx)
        self.functions = FunctionRegistry()
        self.data_cache = DataCache(self.ctx, self.config.data_cache)
        self.query_cache = QueryCache(
            self.ctx, self.catalog, self.config.query_cache, iam=self.iam
        )
        self.history = JobHistory(capacity=self.config.job_history_capacity)
        # One admission-control queue + shared slot pool per project: every
        # engine's execute()/submit() routes through it (the async jobs
        # API), and jobs_api is its REST-shaped facade.
        self.job_queue = JobQueue(history=self.history, config=self.config.serving)
        self.jobs_api = JobsApi(self.job_queue)
        # Fleet monitor: scrapes the registry onto the sim-time TSDB and
        # samples every shared-pool batch. A pure reader of the serving
        # layer — wiring it up never changes query results.
        self.monitor = FleetMonitor(self.ctx, self.config.monitoring)
        self.job_queue.monitor = self.monitor
        self.system_tables = SystemTables(
            project=self.config.project,
            history=self.history,
            iam=self.iam,
            audit=self.audit,
            catalog=self.catalog,
            bigmeta=self.bigmeta,
            managed=self.managed,
            metrics=self.ctx.metrics,
            cache=self.data_cache,
            monitor=self.monitor,
            query_cache=self.query_cache,
        )
        self.read_api = ReadApi(
            catalog=self.catalog,
            bigmeta=self.bigmeta,
            connections=self.connections,
            iam=self.iam,
            audit=self.audit,
            stores=self.stores,
            managed=self.managed,
            ctx=self.ctx,
            functions=self.functions,
            data_cache=self.data_cache,
        )
        self._engines: dict[str, QueryEngine] = {}
        self.tables = None  # TableManager, set below
        self.ml = None  # InferenceRuntime, set below
        self._omni = None  # OmniDeployment, created on first use
        self._job_server = None  # JobServer, created on first use
        self._txn = None  # TransactionCoordinator, created on first use
        self.stores.add_region(self.config.home_region)
        self.home_engine = self.add_engine(self.config.home_region)

        # Table manager wires itself into every engine as the DML handler;
        # the inference runtime registers the ML TVFs and scalar functions.
        from repro.core.tables import TableManager
        from repro.ml.inference import InferenceRuntime

        self.ml = InferenceRuntime(
            self.functions, self.ctx, self.stores, self.connections
        )
        self.tables = TableManager(
            project=self.config.project,
            catalog=self.catalog,
            managed=self.managed,
            connections=self.connections,
            stores=self.stores,
            iam=self.iam,
            bigmeta=self.bigmeta,
            ctx=self.ctx,
            ml=self.ml,
        )
        self.write_api = WriteApi(
            tables=self.tables, iam=self.iam, audit=self.audit, ctx=self.ctx
        )
        for engine in self._engines.values():
            self._wire_engine(engine)

    # -- regions & engines ----------------------------------------------------

    def add_region(self, region: Region) -> None:
        """Bring up object storage for a region (data can now live there)."""
        self.stores.add_region(region)

    def add_engine(self, region: Region, name: str | None = None, **flags) -> QueryEngine:
        """Deploy a query engine into a region (on GCP this is a native
        deployment; on AWS/Azure it is what Omni automates, §5)."""
        self.stores.add_region(region)
        engine = QueryEngine(
            read_api=self.read_api,
            catalog=self.catalog,
            location=region.location,
            name=name or f"dremel-{region.location.replace('/', '-')}",
            slots=self.config.engine_slots,
            functions=self.functions,
            **flags,
        )
        self._engines[engine.name] = engine
        self._wire_engine(engine)
        return engine

    def _wire_engine(self, engine: QueryEngine) -> None:
        """Attach the platform services an engine depends on. A no-op for
        the home engine built during ``__init__`` (the services do not
        exist yet); ``__init__`` re-wires every engine once they do."""
        if self.tables is not None:
            engine.set_dml_handler(self.tables)
        if self.ml is not None:
            self.ml.attach(engine)
        engine.history = self.history
        engine.system_tables = self.system_tables
        engine.job_queue = self.job_queue
        engine.query_cache = self.query_cache
        if self.job_queue.default_engine is None:
            self.job_queue.default_engine = engine

    def engine(self, name: str) -> QueryEngine:
        try:
            return self._engines[name]
        except KeyError:
            raise CatalogError(f"no engine named {name!r}") from None

    def engines(self) -> list[QueryEngine]:
        return list(self._engines.values())

    def engine_in(self, location: str) -> QueryEngine:
        """The engine colocated with ``location`` (cloud/region)."""
        for engine in self._engines.values():
            if engine.location == location:
                return engine
        raise CatalogError(f"no engine deployed in {location!r}")

    # -- Omni ---------------------------------------------------------------------

    @property
    def omni(self):
        """The Omni deployment for this platform (created on first use)."""
        if self._omni is None:
            from repro.omni.deployment import OmniDeployment

            self._omni = OmniDeployment(platform=self)
        return self._omni

    @property
    def job_server(self):
        """The control-plane Job Server (created on first use)."""
        if self._job_server is None:
            from repro.omni.control_plane import JobServer

            self._job_server = JobServer(self, self.omni)
        return self._job_server

    # -- transactions -------------------------------------------------------------

    @property
    def txn(self):
        """The multi-table transaction coordinator (created on first use).

        Creation wires marker resolution into Big Metadata and every object
        store, and runs a crash-recovery sweep over the transaction log —
        the "recovery at platform start" half of the protocol.
        """
        if self._txn is None:
            from repro.txn.coordinator import TransactionCoordinator

            self._txn = TransactionCoordinator(
                bigmeta=self.bigmeta,
                stores=self.stores,
                catalog=self.catalog,
                blmt=self.tables.blmt,
                job_queue=self.job_queue,
                engine=self.home_engine,
                home_location=self.config.home_region.location,
                ctx=self.ctx,
            )
            self.system_tables.txn_log = self._txn.log
        return self._txn

    def begin(self, principal: Principal):
        """Open a multi-table ACID transaction for ``principal``."""
        return self.txn.begin(principal)

    # -- observability ------------------------------------------------------------

    def metrics_snapshot(self) -> dict[str, dict[str, float]]:
        """All platform metrics as ``{name: {series: value}}``."""
        return self.ctx.metrics.snapshot()

    def metrics_text(self) -> str:
        """The Prometheus text exposition of every platform metric."""
        return self.ctx.metrics.render()

    # -- serving -----------------------------------------------------------------

    def submit(self, sql: str, principal: Principal, *, engine: QueryEngine | None = None, snapshot_ms: float | None = None, use_query_cache: bool = False):
        """``jobs.insert``: enqueue a statement on the shared slot pool and
        return its :class:`~repro.serving.jobs.QueryJob` handle. The job
        stays PENDING (visible in ``INFORMATION_SCHEMA.JOBS``) until a
        ``wait()``/``drain()`` runs the queued batch."""
        return self.job_queue.submit(
            sql, principal, engine=engine or self.home_engine, snapshot_ms=snapshot_ms,
            use_query_cache=use_query_cache,
        )

    def drain(self) -> None:
        """Run every queued job to a terminal state (shared-pool batch)."""
        self.job_queue.drain()

    def job(self, job_id: str):
        """Look up one job record from the platform history."""
        return self.history.get(job_id)

    def jobs(self):
        """All retained job records, oldest first."""
        return self.history.jobs()

    # -- convenience -------------------------------------------------------------

    def create_user(self, name: str, roles: list[Role] | None = None) -> Principal:
        """Create a user and grant project-level roles."""
        user = Principal.user(name)
        for role in roles or []:
            self.iam.grant(f"projects/{self.config.project}", role, user)
        return user

    def admin_user(self, name: str = "admin") -> Principal:
        return self.create_user(
            name,
            [
                Role.ADMIN,
                Role.DATA_EDITOR,
                Role.JOB_USER,
                Role.CONNECTION_USER,
                Role.ML_USER,
            ],
        )
