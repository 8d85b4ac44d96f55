"""Wall-clock spans around the public layer boundaries of ``src/repro``.

``src/repro`` has no wall-clock timer, and this suite must not edit it, so
the traced run measures each layer from outside: :class:`Recorder.install`
replaces a fixed table of public callables (:data:`TARGETS`) with timing
wrappers, the workload runs, and :meth:`Recorder.uninstall` puts the
originals back. One span is kept in memory per call — name, start, end
(``perf_counter_ns``), parent span, op id, and whether the call returned —
plus counts taken at the same boundaries (bytes through the object store,
rows through Superluminal, files pruned). A span's *self* time is its
duration minus the part its child spans cover, so self times of all spans
of one op plus the op's unattributed remainder add up to the op's wall time.

Nothing called per row or per token is wrapped; ``Tracer.span`` and the
``MetricsRegistry`` getters are called so often that they are counted only.
The wrappers are kept to one small frame each; the comment above
:meth:`Recorder.enter` says why that matters here.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

_now = time.perf_counter_ns

TIMED = "timed"  # one span per call
ITERATOR = "iterator"  # one span for the call, one per next() on its result
COUNTED = "counted"  # count the call, do not time it


@dataclass(frozen=True)
class Target:
    """One public callable to wrap: ``span`` is the name its spans carry
    (several targets may share one), ``attr`` is ``function`` or
    ``Class.method`` inside ``module``. ``probe(counts, args, kwargs,
    result)`` runs after a successful call, outside the span."""

    span: str
    module: str
    attr: str
    kind: str = TIMED
    probe: Callable[[dict, tuple, dict, Any], None] | None = None
    # Patch only the modules that imported the function by name, not the
    # module that defines it: its own recursive calls then stay unwrapped.
    importers_only: bool = False


# -- probes: counts taken at the boundary the span marks ---------------------


def _probe_get(counts, args, kwargs, result):
    counts["objectstore.get_bytes"] += len(result)


def _probe_put(counts, args, kwargs, result):
    # put_object(self, bucket, key, data, ...) and put_if_generation alike.
    key = args[2] if len(args) > 2 else kwargs["key"]
    data = args[3] if len(args) > 3 else kwargs["data"]
    counts["objectstore.put_bytes"] += len(data)
    if key.endswith(".pqs"):
        counts["objectstore.data_file_put_bytes"] += len(data)


def _probe_session(counts, args, kwargs, result):
    # SessionStats fill in while the streams are read, so keep the session
    # and read its counters when the traced pass ends.
    counts["_sessions"].append(result)


def _probe_write_table(counts, args, kwargs, result):
    batches = args[1] if len(args) > 1 else kwargs["batches"]
    counts["formats.user_bytes"] += sum(batch.nbytes() for batch in batches)
    counts["formats.encoded_bytes"] += len(result)


def _probe_decode(counts, args, kwargs, result):
    counts["formats.decoded_bytes"] += len(args[-1])


def _probe_rebalance(counts, args, kwargs, result):
    counts["storageapi.rebalance_moves"] += len(result)


def _t(span, module, attr, kind=TIMED, probe=None, importers_only=False):
    return Target(span, module, attr, kind, probe, importers_only)


_STORE = "repro.objectstore.store"
_READ_API = "repro.storageapi.read_api"
_ENC = "repro.formats.encodings"

TARGETS: tuple[Target, ...] = (
    # sql
    _t("sql.tokenize", "repro.sql.tokens", "tokenize"),
    _t("sql.parse_statement", "repro.sql.parser", "parse_statement"),
    _t("sql.parse_expression", "repro.sql.parser", "parse_expression"),
    _t("sql.extract_constraints", "repro.sql.analysis", "extract_constraints"),
    # engine
    _t("engine.plan", "repro.engine.engine", "QueryEngine.plan"),
    _t("engine.optimize", "repro.engine.optimizer", "optimize"),
    # execute_plan recurses once per plan node; one span per plan is enough
    # (nested spans of one name add up to the same self time) and keeps the
    # wrappers' stack footprint off the deepest part of the op.
    _t("engine.operators", "repro.engine.operators", "execute_plan", importers_only=True),
    _t("engine.scheduler", "repro.engine.scheduler", "SlotScheduler.run_stage"),
    # cache
    _t("cache.plan_lookup", "repro.cache.plan", "QueryCache.lookup_plan"),
    _t("cache.result_lookup", "repro.cache.plan", "QueryCache.result_key"),
    _t("cache.result_lookup", "repro.cache.plan", "QueryCache.lookup_result"),
    _t("cache.data_lookup", "repro.cache", "DataCache.lookup_footer"),
    _t("cache.data_lookup", "repro.cache", "DataCache.lookup_chunk"),
    _t("cache.data_lookup", "repro.cache", "DataCache.decode_chunk"),
    # storageapi
    _t("storageapi.session_create", _READ_API, "ReadApi.create_read_session",
       probe=_probe_session),
    _t("storageapi.serialize", _READ_API, "ReadSession.serialize"),
    _t("storageapi.attach", _READ_API, "ReadApi.attach"),
    _t("storageapi.read_rows", _READ_API, "ReadApi.read_rows", ITERATOR),
    _t("storageapi.superluminal_compile", "repro.storageapi.superluminal",
       "Superluminal.__init__"),
    _t("storageapi.superluminal_process", "repro.storageapi.superluminal",
       "Superluminal.process"),
    _t("storageapi.rebalance", "repro.storageapi.streams",
       "StreamRebalancer.rebalance", probe=_probe_rebalance),
    _t("storageapi.drain", "repro.storageapi.streams", "drain_session"),
    # formats
    _t("formats.footer", "repro.formats.pqs", "read_footer"),
    _t("formats.decode", "repro.formats.pqs", "read_row_group"),
    _t("formats.decode", _ENC, "decode_plain", probe=_probe_decode),
    _t("formats.decode", _ENC, "decode_codes_plain", probe=_probe_decode),
    _t("formats.decode", _ENC, "decode_codes_rle", probe=_probe_decode),
    _t("formats.encode", "repro.formats.pqs", "write_table", probe=_probe_write_table),
    # objectstore
    _t("objectstore.get", _STORE, "ObjectStore.get_object", probe=_probe_get),
    _t("objectstore.get", _STORE, "ObjectStore.get_range", probe=_probe_get),
    _t("objectstore.put", _STORE, "ObjectStore.put_object", probe=_probe_put),
    _t("objectstore.cas_put", _STORE, "ObjectStore.put_if_generation", probe=_probe_put),
    _t("objectstore.list", _STORE, "ObjectStore.list_objects", ITERATOR),
    _t("objectstore.other", _STORE, "ObjectStore.head_object"),
    _t("objectstore.other", _STORE, "ObjectStore.delete_object"),
    # metastore
    _t("metastore.prune", "repro.metastore.bigmeta", "BigMetadataService.prune"),
    _t("metastore.prune", "repro.metastore.bigmeta", "BigMetadataService.snapshot"),
    _t("metastore.commit", "repro.metastore.bigmeta", "BigMetadataService.commit"),
    _t("metastore.catalog_resolve", "repro.metastore.catalog", "Catalog.resolve"),
    _t("metastore.catalog_resolve", "repro.metastore.catalog", "Catalog.get_table"),
    # security
    _t("security.iam", "repro.security.iam", "IamService.is_allowed"),
    _t("security.policy_resolve", "repro.security.policies", "TablePolicySet.resolve"),
    _t("security.audit", "repro.security.audit", "AuditLog.record"),
    # serving
    _t("serving.submit", "repro.serving.jobs", "JobQueue.submit"),
    _t("serving.drain", "repro.serving.jobs", "JobQueue.drain"),
    _t("serving.pool_run", "repro.serving.pool", "SlotPool.run"),
    # obs
    _t("obs.history", "repro.obs.history", "JobHistory.record"),
    _t("obs.history", "repro.obs.history", "record_from_trace"),
    _t("obs.monitor", "repro.obs.monitor", "FleetMonitor.observe_batch"),
    _t("obs.monitor", "repro.obs.monitor", "FleetMonitor.tick"),
    _t("obs.span", "repro.obs.trace", "Tracer.span", COUNTED),
    _t("obs.metrics", "repro.obs.metrics", "MetricsRegistry.counter", COUNTED),
    _t("obs.metrics", "repro.obs.metrics", "MetricsRegistry.gauge", COUNTED),
    _t("obs.metrics", "repro.obs.metrics", "MetricsRegistry.histogram", COUNTED),
    # txn
    _t("txn.begin", "repro.txn.coordinator", "TransactionCoordinator.begin"),
    _t("txn.execute", "repro.txn.coordinator", "Transaction.execute"),
    _t("txn.commit", "repro.txn.coordinator", "Transaction.commit"),
    _t("txn.log", "repro.txn.log", "TransactionLog.create_intent"),
    _t("txn.log", "repro.txn.log", "TransactionLog.transition"),
    _t("txn.log", "repro.txn.log", "TransactionLog.mark_finalized"),
    _t("txn.log", "repro.txn.log", "TransactionLog.read"),
    # core
    _t("core.dml", "repro.core.tables", "TableManager.execute_dml"),
    _t("core.rewrite_rows", "repro.core.blmt", "BlmtManager.rewrite_rows"),
    _t("core.compaction", "repro.core.blmt", "BlmtManager.optimize_storage"),
)

# Layout of a closed span.
NAME, START, END, PARENT, OP, OK = range(6)


class _TimedIterator:
    """Iterator whose every ``next()`` is one span of the wrapped call."""

    def __init__(self, inner, recorder: "Recorder", name: str) -> None:
        self._inner = iter(inner)
        self._recorder = recorder
        self._name = name

    def __iter__(self):
        return self

    def __next__(self):
        recorder = self._recorder
        index = recorder.enter(self._name)
        try:
            item = next(self._inner)
        except BaseException:
            recorder.leave(index, False)
            raise
        recorder.leave(index, True)
        return item


class Recorder:
    """Installs the wrappers, holds the spans and counts of traced passes."""

    def __init__(self) -> None:
        self.spans: list[tuple | list] = []  # a list while the span is open
        self.counts: dict[str, Any] = defaultdict(int)
        self.counts["_sessions"] = []
        self.op_id = -1  # id of the op the current timed segment belongs to
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any, Any]] = []  # holder, attr, original, wrapper

    # -- the wrappers --------------------------------------------------------
    # A wrapper is one small frame that holds nothing but what it forwards:
    # the recursive-descent SQL parser slows down severalfold where its
    # recursion straddles a CPython data-stack chunk boundary (16 KiB), and
    # every byte of frame above it moves it towards one. So the bookkeeping
    # lives in enter()/leave(), whose frames are gone while the target runs.

    def enter(self, name: str) -> int:
        spans = self.spans
        stack = self._stack
        index = len(spans)
        open_span = [name, stack[-1] if stack else -1, self.op_id, 0]
        spans.append(open_span)
        stack.append(index)
        open_span[3] = _now()
        return index

    def leave(self, index: int, ok: bool) -> None:
        end = _now()
        name, parent, op_id, start = self.spans[index]
        # A tuple of plain values: the collector stops tracking it, so a
        # long traced run does not make every full collection slower.
        self.spans[index] = (name, start, end, parent, op_id, ok)
        self._stack.pop()

    def _wrapper(self, target: Target, original):
        name, probe = target.span, target.probe
        enter, leave, counts = self.enter, self.leave, self.counts
        calls_key = f"{name}.calls"
        if target.kind == COUNTED:

            def counted(*args, **kwargs):
                counts[calls_key] += 1
                return original(*args, **kwargs)

            return counted

        def timed(*args, **kwargs):
            index = enter(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                leave(index, False)
                raise
            leave(index, True)
            if probe is not None:
                probe(counts, args, kwargs, result)
            return result

        if target.kind == TIMED:
            return timed
        recorder = self

        def iterated(*args, **kwargs):
            counts[calls_key] += 1
            return _TimedIterator(timed(*args, **kwargs), recorder, name)

        return iterated

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        """Swap every target for its wrapper. A module function imported
        elsewhere by name (``from x import f``) is patched in every loaded
        ``repro.*`` module whose attribute *is* the original."""
        if self._patched:
            raise RuntimeError("wrappers already installed")
        for target in TARGETS:
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrapper(target, original))
                continue
            original = module.__dict__[attr]
            wrapper = self._wrapper(target, original)
            for holder in _repro_modules():
                if target.importers_only and holder is module:
                    continue
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, name, original, wrapper)

    def _patch(self, holder, attr, original, wrapper) -> None:
        setattr(holder, attr, wrapper)
        self._patched.append((holder, attr, original, wrapper))

    def uninstall(self) -> None:
        """Restore every original — also in modules first imported while the
        wrappers were in place, which bound a wrapper by name."""
        originals = {id(wrapper): original for _, _, original, wrapper in self._patched}
        for holder, attr, original, _ in reversed(self._patched):
            setattr(holder, attr, original)
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                if id(value) in originals and callable(value):
                    setattr(module, name, originals[id(value)])
        self._patched.clear()  # drops the wrappers only now, so ids stayed unique
        self._stack.clear()

    def patched_attributes(self) -> list[tuple[Any, str, Any]]:
        """(holder, attribute, original) for every patch now in place."""
        return [(holder, attr, original) for holder, attr, original, _ in self._patched]

    # -- analysis ------------------------------------------------------------

    def self_times_ns(self, ops_only: bool = False) -> dict[str, int]:
        """Self time per span name: duration minus child-covered time."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += span[END] - span[START]
        totals: dict[str, int] = defaultdict(int)
        for index, span in enumerate(self.spans):
            if ops_only and span[OP] < 0:
                continue
            totals[span[NAME]] += span[END] - span[START] - child_ns[index]
        return totals

    def span_calls(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for span in self.spans:
            counts[span[NAME]] += 1
        return counts

    def raised(self, name: str) -> int:
        return sum(1 for s in self.spans if s[NAME] == name and not s[OK])

    def inclusive_ns(self, name: str, ok_only: bool = False) -> tuple[int, int]:
        """(total duration, calls) of the outermost spans called ``name``."""
        total = calls = 0
        for span in self.spans:
            if span[NAME] != name or (ok_only and not span[OK]):
                continue
            parent = span[PARENT]
            if parent >= 0 and self.spans[parent][NAME] == name:
                continue
            total += span[END] - span[START]
            calls += 1
        return total, calls

    def top_level_ns_by_op(self) -> dict[int, int]:
        """Wall time covered by parentless spans, per op id (>= 0 only)."""
        covered: dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span[PARENT] < 0 and span[OP] >= 0:
                covered[span[OP]] += span[END] - span[START]
        return covered

    def take_sessions(self) -> list:
        sessions, self.counts["_sessions"] = self.counts["_sessions"], []
        return sessions


def spans_as_dicts(spans: list[tuple]) -> list[dict]:
    """The ``--spans`` file: one JSON object per span."""
    return [
        {
            "name": s[NAME], "layer": s[NAME].split(".", 1)[0],
            "start_ns": s[START], "end_ns": s[END],
            "parent": s[PARENT], "op": s[OP], "ok": s[OK],
        }
        for s in spans
    ]


def _repro_modules() -> list:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
