"""Exception hierarchy shared by every repro subsystem.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures without also swallowing programming errors. The
subclasses mirror the failure domains of the real system: storage, catalog,
security, query processing, the storage APIs, ML inference, and Omni.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TransientError(ReproError):
    """Mixin marking failures that may succeed if simply retried.

    Retry machinery (:class:`repro.faults.RetryPolicy`) keys off this class:
    an error is retryable iff it is a ``TransientError``. Permanent failures
    (not-found, access-denied, syntax errors, forged credentials) must NOT
    inherit from it — retrying them only wastes the retry budget.
    """


def is_retryable(exc: BaseException) -> bool:
    """True when ``exc`` is classified transient (safe to retry)."""
    return isinstance(exc, TransientError)


class StorageError(ReproError):
    """Object-store level failure (missing object, bad bucket, etc.)."""


class NotFoundError(StorageError):
    """A referenced object, bucket, table, or resource does not exist."""


class AlreadyExistsError(StorageError):
    """Attempt to create a resource that already exists."""


class PreconditionFailedError(StorageError):
    """A conditional (CAS) write lost the race: generation mismatch."""


class RateLimitedError(StorageError, TransientError):
    """The object store rejected a mutation due to per-object rate limits."""


class UnavailableError(StorageError, TransientError):
    """The object store was transiently unavailable (5xx-shaped)."""


class CatalogError(ReproError):
    """Catalog / metadata-service failure."""


class TransactionConflictError(CatalogError):
    """An optimistic transaction conflicted with a concurrent commit."""


class MetadataUnavailableError(CatalogError, TransientError):
    """Big Metadata was transiently unreachable (lookup or commit)."""


class CommitRetryExhaustedError(CatalogError, TransientError):
    """A pointer-CAS commit lost every retry of its budget to races.

    Raised by :meth:`repro.tableformats.iceberg.IcebergTable.commit_append`
    (and overwrite) when ``max_retries`` CAS attempts all collided with
    concurrent committers. Transient by construction: the table is healthy,
    the commit is simply contended — backing off and retrying the whole
    commit can succeed (§3.5's commit-rate ceiling made visible).
    """


class TransactionAbortedError(CatalogError):
    """The multi-table transaction was aborted (conflict loser or rolled
    back by recovery); its staged writes will never become visible.
    Deliberately not transient: the caller must begin a fresh transaction.
    """


class CorruptTxnRecordError(CatalogError):
    """A transaction-log object does not decode to a record (torn write,
    flipped bit). Deliberately not transient: re-reading the same bytes
    cannot succeed, so ``with_retry`` must not spin on it.
    """


class WriterCrashError(ReproError):
    """An injected writer death at a ``txn.crash`` hazard point.

    Simulates the writing process dying mid-publish: the transaction is
    left exactly as the crash found it (dangling intent, partial tagged
    commits) for the recovery sweep to finish. Not transient — a dead
    writer cannot retry itself.
    """


class SecurityError(ReproError):
    """Authentication or authorization failure."""


class AccessDeniedError(SecurityError):
    """The principal lacks permission for the attempted operation."""


class InvalidCredentialError(SecurityError):
    """Credential is malformed, expired, or out of scope."""


class TokenExpiredError(InvalidCredentialError):
    """A (previously valid) session token passed its expiry.

    Deliberately *not* transient: blind retry with the same token can never
    succeed — the caller must re-establish a fresh token first (see
    ``UntrustedProxy`` token re-establishment in :mod:`repro.omni.network`).
    """


class QueryError(ReproError):
    """Query front-end or execution failure."""


class SqlSyntaxError(QueryError):
    """The SQL text could not be parsed."""


class AnalysisError(QueryError):
    """The query is syntactically valid but semantically wrong."""


class ExecutionError(QueryError):
    """Runtime failure while executing a (valid) plan."""


class JobCancelledError(QueryError):
    """The job was cancelled (by its owner or an admin) before completion.

    Raised by :meth:`repro.serving.QueryJob.wait` / ``get_query_results``
    when the job reached the ``CANCELLED`` terminal state. Deliberately not
    transient: resubmission is a caller decision, not a retry.
    """


class TransientExecutionError(ExecutionError, TransientError):
    """A worker task died mid-flight (slot preemption / worker restart)."""


class StorageApiError(ReproError):
    """Read/Write API protocol failure."""


class SessionExpiredError(StorageApiError):
    """The read/write session is no longer usable."""


class StreamOffsetError(StorageApiError):
    """An append arrived at an unexpected offset (exactly-once violation)."""


class MlError(ReproError):
    """Model registry or inference failure."""


class ModelTooLargeError(MlError):
    """Model exceeds the in-engine (Dremel worker) loadable size limit."""


class OmniError(ReproError):
    """Multi-cloud control/data-plane failure."""


class VpnPolicyError(OmniError):
    """The VPN policy engine rejected a cross-plane RPC."""


class VpnUnavailableError(OmniError, TransientError):
    """The cross-cloud VPN tunnel flapped; the RPC never reached the peer."""


#: Stable machine-readable codes for ``INFORMATION_SCHEMA.JOBS.error_code``.
#: Ordered most-specific-first; the first matching class wins. Free-text
#: ``error`` strings stay for humans; retry dashboards and abort budgets
#: key off these instead.
_ERROR_CODES: tuple[tuple[type, str], ...] = (
    (TransactionAbortedError, "TXN_ABORTED"),
    (TransactionConflictError, "TXN_CONFLICT"),
    (CommitRetryExhaustedError, "COMMIT_RETRY_EXHAUSTED"),
    (WriterCrashError, "WRITER_CRASHED"),
    (JobCancelledError, "CANCELLED"),
    (TokenExpiredError, "TOKEN_EXPIRED"),
    (InvalidCredentialError, "INVALID_CREDENTIAL"),
    (AccessDeniedError, "ACCESS_DENIED"),
    (RateLimitedError, "RATE_LIMITED"),
    (PreconditionFailedError, "PRECONDITION_FAILED"),
    (NotFoundError, "NOT_FOUND"),
    (AlreadyExistsError, "ALREADY_EXISTS"),
    (SqlSyntaxError, "INVALID_SYNTAX"),
    (AnalysisError, "INVALID_QUERY"),
    (ModelTooLargeError, "MODEL_TOO_LARGE"),
    (VpnPolicyError, "VPN_POLICY_DENIED"),
    (StreamOffsetError, "STREAM_OFFSET_MISMATCH"),
    (SessionExpiredError, "SESSION_EXPIRED"),
)


def error_code(exc: BaseException | None) -> str:
    """The stable code for an exception surfaced as a job's terminal error.

    A *transient* error that still reached the caller means the retry
    budget ran out recovering it — those all map to
    ``RETRY_BUDGET_EXHAUSTED`` (unless a more specific code above applies),
    so "gave up retrying" is one queryable bucket instead of N error
    strings. Unclassified library errors map to ``ERROR``; non-library
    exceptions to ``INTERNAL``; ``None`` (no error) to ``""``.
    """
    if exc is None:
        return ""
    for cls, code in _ERROR_CODES:
        if isinstance(exc, cls):
            return code
    if isinstance(exc, TransientError):
        return "RETRY_BUDGET_EXHAUSTED"
    if isinstance(exc, ReproError):
        return "ERROR"
    return "INTERNAL"
