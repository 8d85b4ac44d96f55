"""In-engine and external inference runtime (§4.2, Fig. 7).

``ML.PREDICT`` over a *local* model runs inside the engine: images are
preprocessed into tensors and classified by numpy models, with simulated
per-worker memory accounting. The paper's key scheduling idea is
reproduced exactly: preprocessing and inference run on *different*
workers, exchanging (small) tensors, so the raw image and the model are
never resident in the same worker — bounding peak worker memory at the
cost of an exchange.

``ML.PREDICT`` over a *remote* model preprocesses in-engine and calls a
Vertex-style endpoint. ``ML.PROCESS_DOCUMENT`` passes URIs and a scoped
access token to a first-party Document AI processor which reads the
objects itself (§4.2.2) — document bytes never flow through the engine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.data.batch import RecordBatch, batch_from_pydict, concat_batches
from repro.data.column import Column
from repro.data.types import DataType, Field, Schema
from repro.errors import AnalysisError, MlError
from repro.ml import media
from repro.ml.models import IN_ENGINE_MODEL_LIMIT_BYTES
from repro.ml.registry import LocalModel, ModelRegistry, RemoteModel
from repro.ml.remote import DocumentAiProcessor, VertexEndpoint
from repro.simtime import MIB
from repro.sql.expressions import ScalarFunction

PROCESS_DOCUMENT_SCHEMA = Schema.of(
    ("uri", DataType.STRING),
    ("doc_id", DataType.STRING),
    ("vendor", DataType.STRING),
    ("invoice_date", DataType.STRING),
    ("total", DataType.FLOAT64),
    ("num_line_items", DataType.INT64),
    ("error", DataType.STRING),
)

_PREDICTION_FIELDS = (
    Field("predicted_label", DataType.STRING),
    Field("predicted_score", DataType.FLOAT64),
    Field("predictions", DataType.STRING),
)


@dataclass
class WorkerProfile:
    """Simulated Dremel worker characteristics (§4.2.1: workers have a
    relatively small amount of working memory; sandboxes add overhead)."""

    memory_bytes: int = 256 * 1024 * 1024
    sandbox_overhead_bytes: int = 48 * 1024 * 1024
    flops_per_ms: float = 5.0e6
    inference_batch_size: int = 32


@dataclass
class InferenceStats:
    """Counters across one runtime's lifetime."""

    images_processed: int = 0
    documents_processed: int = 0
    remote_calls: int = 0
    peak_worker_memory_bytes: int = 0
    oom_events: int = 0
    preprocess_ms: float = 0.0
    inference_ms: float = 0.0
    exchange_bytes: int = 0
    exchange_ms: float = 0.0

    def observe_memory(self, peak: int) -> None:
        self.peak_worker_memory_bytes = max(self.peak_worker_memory_bytes, peak)


class InferenceRuntime:
    """Owns the model registry and the ML TVF/scalar implementations."""

    def __init__(
        self,
        functions,
        sim,
        stores,
        connections,
        registry: ModelRegistry | None = None,
        worker_profile: WorkerProfile | None = None,
        split_preprocess: bool = True,
        enforce_memory: bool = True,
    ) -> None:
        # The owner's services, never the owner: nothing here points back
        # at the platform. ``sim`` is its SimContext (``ctx`` in the methods
        # below is the per-query execution context).
        self.functions = functions
        self.sim = sim
        self.stores = stores
        self.connections = connections
        self.registry = registry or ModelRegistry()
        self.profile = worker_profile or WorkerProfile()
        self.split_preprocess = split_preprocess
        self.enforce_memory = enforce_memory
        self.stats = InferenceStats()
        self._register_scalar_functions()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def attach(self, engine) -> None:
        """Register the ML TVFs on an engine."""
        engine.register_tvf("ML.PREDICT", _PredictHandler(self))
        engine.register_tvf("ML.PROCESS_DOCUMENT", _ProcessDocumentHandler(self))

    def _register_scalar_functions(self) -> None:
        """``ML.DECODE_IMAGE`` decodes SIMG bytes into normalized tensors."""

        def decode(args: list[Column]) -> Column:
            source = args[0]
            valid = source.is_valid()
            out = np.empty(len(source), dtype=object)
            for i in range(len(source)):
                if not valid[i]:
                    continue
                pixels = media.decode_image(source.values[i])
                tensor = pixels.astype(np.float32) / 255.0
                out[i] = media.encode_tensor(tensor)
            return Column(DataType.BYTES, out, None if bool(valid.all()) else valid)

        self.functions.register(
            ScalarFunction(
                "ML.DECODE_IMAGE", decode,
                lambda dtypes: DataType.BYTES, min_args=1, max_args=1,
            )
        )

    # ------------------------------------------------------------------
    # Model management (the CREATE MODEL equivalents)
    # ------------------------------------------------------------------

    def import_model(self, name: str, model_bytes: bytes) -> LocalModel:
        """``CREATE MODEL name OPTIONS(model_path=...)`` — in-engine."""
        return self.registry.register_local(name, model_bytes)

    def register_endpoint(self, name: str, endpoint) -> None:
        """Register a serving endpoint so SQL ``OPTIONS(endpoint='name')``
        can reference it."""
        if not hasattr(self, "_endpoints"):
            self._endpoints: dict[str, object] = {}
        self._endpoints[name] = endpoint

    def create_model_from_sql(self, statement) -> LocalModel | RemoteModel:
        """Execute a ``CREATE [OR REPLACE] MODEL`` statement (Listing 2)."""
        from repro.errors import AlreadyExistsError

        name = ".".join(statement.name)
        if self.registry.has(name) and not statement.replace:
            raise AlreadyExistsError(f"model {name!r} already exists")
        options = statement.options
        if statement.remote_connection is not None:
            connection_name = ".".join(statement.remote_connection)
            service_type = options.get("remote_service_type", "vertex_ai")
            if service_type == "cloud_ai_document":
                processor_name = options.get("document_processor")
                if not processor_name:
                    raise AnalysisError(
                        "cloud_ai_document models require OPTIONS(document_processor=...)"
                    )
                processor = DocumentAiProcessor(
                    processor_name, self.sim,
                    self.stores, self.connections,
                )
                return self.create_document_processor_model(
                    name, connection_name, processor
                )
            endpoint_name = options.get("endpoint")
            endpoints = getattr(self, "_endpoints", {})
            if endpoint_name not in endpoints:
                raise AnalysisError(
                    f"OPTIONS(endpoint={endpoint_name!r}) does not reference a "
                    "registered endpoint (use runtime.register_endpoint)"
                )
            return self.create_remote_vertex_model(
                name, connection_name, endpoints[endpoint_name]
            )
        model_path = options.get("model_path")
        if not model_path:
            raise AnalysisError("local models require OPTIONS(model_path='store://...')")
        trimmed = str(model_path).removeprefix("store://")
        bucket, _, key = trimmed.partition("/")
        store = self.stores.find_bucket(bucket)
        return self.import_model(name, store.get_object(bucket, key))

    def create_remote_vertex_model(
        self, name: str, connection_name: str, endpoint: VertexEndpoint
    ) -> RemoteModel:
        """``CREATE MODEL ... REMOTE WITH CONNECTION`` — Vertex serving."""
        self.connections.get_connection(connection_name)
        return self.registry.register_remote(name, connection_name, "vertex", endpoint)

    def create_document_processor_model(
        self, name: str, connection_name: str, processor: DocumentAiProcessor
    ) -> RemoteModel:
        """Listing 2's invoice parser: remote_service_type='cloud_ai_document'."""
        self.connections.get_connection(connection_name)
        return self.registry.register_remote(
            name, connection_name, "cloud_ai_document", processor
        )

    # ------------------------------------------------------------------
    # ML.PREDICT
    # ------------------------------------------------------------------

    def predict_schema(self, model: tuple[str, ...], input_schema: Schema | None) -> Schema:
        if input_schema is None:
            raise AnalysisError("ML.PREDICT requires an input query")
        return Schema(tuple(input_schema.fields) + _PREDICTION_FIELDS)

    def run_predict(
        self, model_path: tuple[str, ...], input_batches: list[RecordBatch], ctx
    ) -> list[RecordBatch]:
        entry = self.registry.get(model_path)
        if not input_batches:
            return []
        input_schema = input_batches[0].schema
        combined = concat_batches(input_schema, input_batches)
        tensor_column = _find_tensor_column(combined)
        with self.sim.tracer.span(
            "ml.predict", layer="ml",
            model=".".join(model_path), rows=combined.num_rows,
            mode="local" if isinstance(entry, LocalModel) else "remote",
        ):
            tensors, raw_sizes = self._materialize_tensors(combined, tensor_column, entry)
            if isinstance(entry, LocalModel):
                labels, scores = self._in_engine_predict(entry, tensors, raw_sizes, ctx)
            else:
                labels, scores = self._remote_predict(entry, tensors, ctx)
        self.stats.images_processed += len(labels)
        out_schema = self.predict_schema(model_path, input_schema)
        predictions_json = [
            json.dumps({"label": label, "score": round(float(score), 6)})
            for label, score in zip(labels, scores)
        ]
        columns = list(combined.columns) + [
            Column.from_pylist(DataType.STRING, labels),
            Column(DataType.FLOAT64, np.asarray(scores, dtype=np.float64)),
            Column.from_pylist(DataType.STRING, predictions_json),
        ]
        return [RecordBatch(out_schema, columns)]

    def _materialize_tensors(
        self, batch: RecordBatch, column_name: str, entry
    ) -> tuple[np.ndarray, list[int]]:
        """Decode the tensor/image column to a stacked [N, H, W, C] array
        resized to the model's input signature."""
        model = self._peek_model(entry)
        target_h, target_w = model.input_height, model.input_width
        column = batch.column(column_name)
        tensors = []
        raw_sizes = []
        for i in range(len(column)):
            payload = column[i]
            if payload is None:
                raise MlError(f"NULL value in tensor column {column_name!r}")
            raw_sizes.append(len(payload))
            if payload[:4] == b"TNSR":
                tensor = media.decode_tensor(payload)
            else:
                tensor = media.decode_image(payload).astype(np.float32) / 255.0
            resized = media.resize_image(tensor, target_h, target_w)
            tensors.append(resized)
        return np.stack(tensors), raw_sizes

    def _peek_model(self, entry):
        if isinstance(entry, LocalModel):
            return entry.load(IN_ENGINE_MODEL_LIMIT_BYTES)
        if isinstance(entry, RemoteModel) and isinstance(entry.endpoint, VertexEndpoint):
            return entry.endpoint.model
        raise MlError(f"model {entry.name!r} cannot serve ML.PREDICT")

    def _in_engine_predict(
        self, entry: LocalModel, tensors: np.ndarray, raw_sizes: list[int], ctx
    ) -> tuple[list[str], np.ndarray]:
        """The Fig. 7 path: preprocess and inference on separate workers."""
        model = entry.load(IN_ENGINE_MODEL_LIMIT_BYTES)
        declared = entry.size_bytes()
        n = len(tensors)
        tensor_bytes = int(tensors[0].nbytes) if n else 0
        max_raw = max(raw_sizes) if raw_sizes else 0
        sandbox = self.profile.sandbox_overhead_bytes
        if self.split_preprocess:
            preprocess_peak = sandbox + max_raw + tensor_bytes
            inference_peak = (
                sandbox + declared + tensor_bytes * self.profile.inference_batch_size
            )
            peak = max(preprocess_peak, inference_peak)
        else:
            # Colocated: raw image, both sandboxes, and the model together.
            peak = 2 * sandbox + declared + max_raw + tensor_bytes
        self.stats.observe_memory(peak)
        if self.enforce_memory and peak > self.profile.memory_bytes:
            self.stats.oom_events += 1
            raise MlError(
                f"inference worker needs {peak} bytes but workers have "
                f"{self.profile.memory_bytes} (enable the split preprocess/"
                "inference plan, Fig. 7)"
            )

        sim = self.sim
        pixels = model.input_height * model.input_width * model.channels
        preprocess_ms = n * (pixels * 5.0) / self.profile.flops_per_ms
        inference_ms = n * model.flops_per_sample / self.profile.flops_per_ms
        self.stats.preprocess_ms += preprocess_ms
        self.stats.inference_ms += inference_ms
        work_ms = preprocess_ms + inference_ms
        if self.split_preprocess and n:
            exchange_bytes = tensor_bytes * n
            exchange_ms = (exchange_bytes / MIB) * (
                sim.costs.shuffle_write_per_mib_ms + sim.costs.shuffle_read_per_mib_ms
            )
            self.stats.exchange_bytes += exchange_bytes
            self.stats.exchange_ms += exchange_ms
            work_ms += exchange_ms
        sim.charge("ml.in_engine_predict", work_ms)
        if ctx is not None:
            ctx.stats.scan_work_ms += work_ms
            ctx.stats.scan_tasks += n
        return model.predict(tensors)

    def _remote_predict(
        self, entry: RemoteModel, tensors: np.ndarray, ctx
    ) -> tuple[list[str], np.ndarray]:
        endpoint = entry.endpoint
        if not isinstance(endpoint, VertexEndpoint):
            raise MlError(f"model {entry.name!r} is not a Vertex endpoint")
        sim = self.sim
        labels: list[str] = []
        scores: list[float] = []
        batch_size = self.profile.inference_batch_size
        for start in range(0, len(tensors), batch_size):
            chunk = tensors[start : start + batch_size]
            # Ship tensors to the external service and results back.
            payload_bytes = int(chunk.nbytes)
            sim.clock.advance((payload_bytes / MIB) * sim.costs.in_region_per_mib_ms)
            chunk_labels, chunk_scores = endpoint.predict(chunk)
            labels.extend(chunk_labels)
            scores.extend(float(s) for s in chunk_scores)
            self.stats.remote_calls += 1
        return labels, np.asarray(scores, dtype=np.float64)

    # ------------------------------------------------------------------
    # ML.PROCESS_DOCUMENT
    # ------------------------------------------------------------------

    def process_document_schema(self) -> Schema:
        return PROCESS_DOCUMENT_SCHEMA

    def run_process_document(
        self, model_path: tuple[str, ...], node, input_batches, ctx
    ) -> list[RecordBatch]:
        entry = self.registry.get(model_path)
        if not isinstance(entry, RemoteModel) or not isinstance(
            entry.endpoint, DocumentAiProcessor
        ):
            raise MlError(
                f"ML.PROCESS_DOCUMENT requires a cloud_ai_document remote model"
            )
        references = self._document_references(node, input_batches, ctx)
        if not references:
            return []
        # §5.3.1-style scoping: mint a credential for exactly these paths.
        connection = self.connections.get_connection(entry.connection_name)
        paths = [f"{bucket}/{key}" for bucket, key in references]
        credential = self.connections.mint_scoped_credential(connection, paths)
        try:
            with self.sim.tracer.span(
                "ml.process_document", layer="ml",
                model=".".join(model_path), documents=len(references),
            ):
                results = entry.endpoint.process(references, credential)
        finally:
            self.connections.revoke(credential)
        self.stats.documents_processed += len(results)
        data = {name: [] for name in PROCESS_DOCUMENT_SCHEMA.names()}
        for row in results:
            for name in data:
                data[name].append(row.get(name))
        return [batch_from_pydict(PROCESS_DOCUMENT_SCHEMA, data)]

    def _document_references(self, node, input_batches, ctx) -> list[tuple[str, str]]:
        """Collect (bucket, key) pairs from the TVF input — without ever
        fetching the document bytes through the engine."""
        if node.input_table is not None:
            engine = ctx.engine
            session = engine.read_api.create_read_session(
                principal=ctx.principal,
                table=node.input_table,
                columns=["bucket", "key"],
                engine_location=engine.remote_location_for(node.input_table),
            )
            references = []
            for stream_index in range(len(session.streams)):
                for batch in engine.read_api.read_rows(session, stream_index):
                    buckets = batch.column("bucket").to_pylist()
                    keys = batch.column("key").to_pylist()
                    references.extend(zip(buckets, keys))
            return references
        references = []
        for batch in input_batches or []:
            if batch.schema.has_field("bucket") and batch.schema.has_field("key"):
                references.extend(
                    zip(batch.column("bucket").to_pylist(), batch.column("key").to_pylist())
                )
            elif batch.schema.has_field("uri"):
                for uri in batch.column("uri").to_pylist():
                    trimmed = uri.removeprefix("store://")
                    bucket, _, key = trimmed.partition("/")
                    references.append((bucket, key))
            else:
                raise AnalysisError(
                    "ML.PROCESS_DOCUMENT input must provide uri or bucket/key columns"
                )
        return references


class _PredictHandler:
    """TVF adapter for ML.PREDICT."""

    def __init__(self, runtime: InferenceRuntime) -> None:
        self.runtime = runtime

    def output_schema(self, model: tuple[str, ...], input_schema: Schema | None) -> Schema:
        return self.runtime.predict_schema(model, input_schema)

    def execute(self, node, input_batches, ctx) -> list[RecordBatch]:
        return self.runtime.run_predict(node.model, input_batches or [], ctx)


class _ProcessDocumentHandler:
    """TVF adapter for ML.PROCESS_DOCUMENT."""

    def __init__(self, runtime: InferenceRuntime) -> None:
        self.runtime = runtime

    def output_schema(self, model: tuple[str, ...], input_schema: Schema | None) -> Schema:
        return self.runtime.process_document_schema()

    def execute(self, node, input_batches, ctx) -> list[RecordBatch]:
        return self.runtime.run_process_document(node.model, node, input_batches, ctx)


def _find_tensor_column(batch: RecordBatch) -> str:
    """Prefer a column named ``image``; otherwise the first BYTES column."""
    for f in batch.schema:
        if f.name.lower() == "image":
            return f.name
    for f in batch.schema:
        if f.dtype is DataType.BYTES:
            return f.name
    raise AnalysisError("ML.PREDICT input has no BYTES (image/tensor) column")
