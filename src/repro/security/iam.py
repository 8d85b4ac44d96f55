"""Coarse-grained IAM: principals, roles, resource policies."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import AccessDeniedError


class PrincipalKind(enum.Enum):
    USER = "user"
    SERVICE_ACCOUNT = "serviceAccount"
    GROUP = "group"


@dataclass(frozen=True)
class Principal:
    """An identity: human user, service account, or group."""

    kind: PrincipalKind
    name: str

    def __post_init__(self) -> None:
        # Every governed read hashes its principal into the IAM and policy
        # memos and prints it into the result-cache key; the text is fixed
        # at construction, so both are derived from it once.
        object.__setattr__(self, "_text", f"{self.kind.value}:{self.name}")

    def __hash__(self) -> int:
        return hash(self._text)

    @staticmethod
    def user(name: str) -> "Principal":
        return Principal(PrincipalKind.USER, name)

    @staticmethod
    def service_account(name: str) -> "Principal":
        return Principal(PrincipalKind.SERVICE_ACCOUNT, name)

    @staticmethod
    def group(name: str) -> "Principal":
        return Principal(PrincipalKind.GROUP, name)

    def __str__(self) -> str:
        return self._text


class Permission(enum.Enum):
    """Fine verbs checked against resources."""

    TABLES_GET = "bigquery.tables.get"
    TABLES_GET_DATA = "bigquery.tables.getData"
    TABLES_UPDATE_DATA = "bigquery.tables.updateData"
    TABLES_CREATE = "bigquery.tables.create"
    TABLES_DELETE = "bigquery.tables.delete"
    JOBS_CREATE = "bigquery.jobs.create"
    JOBS_LIST_ALL = "bigquery.jobs.listAll"
    AUDIT_READ = "bigquery.auditLogs.read"
    MONITORING_READ = "monitoring.timeSeries.list"
    CONNECTIONS_USE = "bigquery.connections.use"
    MODELS_PREDICT = "bigquery.models.predict"
    STORAGE_OBJECTS_GET = "storage.objects.get"
    STORAGE_OBJECTS_LIST = "storage.objects.list"
    STORAGE_OBJECTS_CREATE = "storage.objects.create"


class Role(enum.Enum):
    """Bundles of permissions, modeled on BigQuery's predefined roles."""

    DATA_VIEWER = "roles/bigquery.dataViewer"
    DATA_EDITOR = "roles/bigquery.dataEditor"
    JOB_USER = "roles/bigquery.jobUser"
    CONNECTION_USER = "roles/bigquery.connectionUser"
    STORAGE_OBJECT_VIEWER = "roles/storage.objectViewer"
    STORAGE_OBJECT_ADMIN = "roles/storage.objectAdmin"
    ML_USER = "roles/bigquery.mlUser"
    ADMIN = "roles/bigquery.admin"


ROLE_PERMISSIONS: dict[Role, frozenset[Permission]] = {
    Role.DATA_VIEWER: frozenset(
        {Permission.TABLES_GET, Permission.TABLES_GET_DATA}
    ),
    Role.DATA_EDITOR: frozenset(
        {
            Permission.TABLES_GET,
            Permission.TABLES_GET_DATA,
            Permission.TABLES_UPDATE_DATA,
            Permission.TABLES_CREATE,
            Permission.TABLES_DELETE,
        }
    ),
    Role.JOB_USER: frozenset({Permission.JOBS_CREATE}),
    Role.CONNECTION_USER: frozenset({Permission.CONNECTIONS_USE}),
    Role.STORAGE_OBJECT_VIEWER: frozenset(
        {Permission.STORAGE_OBJECTS_GET, Permission.STORAGE_OBJECTS_LIST}
    ),
    Role.STORAGE_OBJECT_ADMIN: frozenset(
        {
            Permission.STORAGE_OBJECTS_GET,
            Permission.STORAGE_OBJECTS_LIST,
            Permission.STORAGE_OBJECTS_CREATE,
        }
    ),
    Role.ML_USER: frozenset({Permission.MODELS_PREDICT}),
    # Project administration: every BigQuery-side permission, plus the
    # observability verbs that widen INFORMATION_SCHEMA.JOBS to all
    # principals and open the DATA_ACCESS audit view.
    Role.ADMIN: frozenset(
        {
            Permission.TABLES_GET,
            Permission.TABLES_GET_DATA,
            Permission.TABLES_UPDATE_DATA,
            Permission.TABLES_CREATE,
            Permission.TABLES_DELETE,
            Permission.JOBS_CREATE,
            Permission.JOBS_LIST_ALL,
            Permission.AUDIT_READ,
            Permission.MONITORING_READ,
            Permission.CONNECTIONS_USE,
            Permission.MODELS_PREDICT,
        }
    ),
}


@dataclass(frozen=True)
class AccessDecision:
    """Outcome of an authorization check, recorded in the audit log."""

    principal: Principal
    permission: Permission
    resource: str
    allowed: bool
    reason: str


@dataclass
class _Binding:
    # Every field here must reach the decision memo's key (or clear the
    # memo when it changes): a decision is a function of the bindings, the
    # group memberships and the (principal, permission, resource) asked.
    role: Role
    members: set[Principal] = field(default_factory=set)


#: Bound on :class:`IamService`'s decision memo, in decisions. Past it the
#: oldest decision is dropped (it is recomputed if asked again), so a stream
#: of distinct resources cannot grow the memo without limit.
DECISION_MEMO_CAPACITY = 4096


class IamService:
    """Resource-scoped role bindings with hierarchical resource names.

    Resources are slash-separated paths (``projects/p/datasets/d/tables/t``
    or ``buckets/b``); a binding on a prefix grants access to everything
    beneath it, like real IAM resource hierarchies.

    Decisions are memoised per ``(principal, permission, resource)``: the
    answer is a function of the bindings and group memberships alone, and
    :meth:`grant`, :meth:`revoke` and :meth:`add_group_member` — their only
    mutators — clear the memo. Every check still asks :meth:`is_allowed`;
    an unchanged policy just answers it with one dict lookup.
    """

    def __init__(self) -> None:
        self._bindings: dict[str, list[_Binding]] = {}
        self._group_members: dict[Principal, set[Principal]] = {}
        self._decisions: dict[tuple[Principal, Permission, str], AccessDecision] = {}

    def grant(self, resource: str, role: Role, principal: Principal) -> None:
        """Grant ``role`` on ``resource`` to ``principal``."""
        self._decisions.clear()
        for binding in self._bindings.setdefault(resource, []):
            if binding.role is role:
                binding.members.add(principal)
                return
        self._bindings[resource].append(_Binding(role=role, members={principal}))

    def revoke(self, resource: str, role: Role, principal: Principal) -> None:
        self._decisions.clear()
        for binding in self._bindings.get(resource, []):
            if binding.role is role:
                binding.members.discard(principal)

    def add_group_member(self, group: Principal, member: Principal) -> None:
        if group.kind is not PrincipalKind.GROUP:
            raise ValueError(f"{group} is not a group")
        self._decisions.clear()
        self._group_members.setdefault(group, set()).add(member)

    def _expanded_identities(self, principal: Principal) -> set[Principal]:
        """The principal plus every group containing it (one level deep)."""
        identities = {principal}
        for group, members in self._group_members.items():
            if principal in members:
                identities.add(group)
        return identities

    def is_allowed(
        self, principal: Principal, permission: Permission, resource: str
    ) -> AccessDecision:
        """Check whether ``principal`` holds ``permission`` on ``resource``
        via a binding on the resource or any ancestor prefix."""
        key = (principal, permission, resource)
        decision = self._decisions.get(key)
        if decision is None:
            decision = self._decide(principal, permission, resource)
            if len(self._decisions) >= DECISION_MEMO_CAPACITY:
                del self._decisions[next(iter(self._decisions))]
            self._decisions[key] = decision
        return decision

    def _decide(
        self, principal: Principal, permission: Permission, resource: str
    ) -> AccessDecision:
        identities = self._expanded_identities(principal)
        # Walk the resource and its ancestors.
        parts = resource.split("/")
        for end in range(len(parts), 0, -1):
            prefix = "/".join(parts[:end])
            for binding in self._bindings.get(prefix, []):
                if permission not in ROLE_PERMISSIONS[binding.role]:
                    continue
                if identities & binding.members:
                    return AccessDecision(
                        principal, permission, resource, True,
                        f"granted by {binding.role.value} on {prefix}",
                    )
        return AccessDecision(
            principal, permission, resource, False,
            f"no binding grants {permission.value}",
        )

    def require(
        self, principal: Principal, permission: Permission, resource: str
    ) -> AccessDecision:
        """Like :meth:`is_allowed` but raises on denial."""
        decision = self.is_allowed(principal, permission, resource)
        if not decision.allowed:
            raise AccessDeniedError(
                f"{principal} lacks {permission.value} on {resource}: {decision.reason}"
            )
        return decision
