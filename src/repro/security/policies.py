"""Fine-grained governance: row policies, column ACLs, data masking (§3.2).

Policies are *declarative* table-level metadata. Enforcement happens inside
the Storage Read API's trust boundary (``repro.storageapi.superluminal``),
never in the calling engine — so BigQuery, the Spark simulator, and a
hostile engine all see exactly the same governed view of the data.

Row-access predicates are stored as SQL text and compiled by the enforcement
layer; this module stays independent of the SQL front end.
"""

from __future__ import annotations

import enum
import hashlib
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any

from repro.security.iam import Principal


class MaskingKind(enum.Enum):
    """Supported masking routines, modeled on BigQuery data-masking rules."""

    HASH = "hash"  # deterministic SHA-256 hex digest
    NULLIFY = "nullify"  # replace with NULL
    DEFAULT_VALUE = "default"  # type-appropriate default ("", 0, ...)
    LAST_FOUR = "last_four"  # keep last 4 chars, mask the rest


@dataclass(frozen=True)
class RowAccessPolicy:
    """Grantees see only rows satisfying ``filter_sql``.

    Multiple policies on a table combine per BigQuery semantics: a principal
    subject to row policies sees the union of rows admitted by the policies
    that name them; a principal named by no policy (when any policy exists)
    sees no rows.
    """

    name: str
    filter_sql: str
    grantees: frozenset[Principal]

    def applies_to(self, principal: Principal) -> bool:
        return principal in self.grantees


@dataclass(frozen=True)
class ColumnAcl:
    """Column-level access control: only ``readers`` may select the column."""

    column: str
    readers: frozenset[Principal]

    def allows(self, principal: Principal) -> bool:
        return principal in self.readers


@dataclass(frozen=True)
class DataMaskingRule:
    """Principals in ``masked_readers`` see ``column`` through the mask
    instead of being denied outright."""

    column: str
    kind: MaskingKind
    masked_readers: frozenset[Principal]

    def applies_to(self, principal: Principal) -> bool:
        return principal in self.masked_readers


def apply_mask_value(kind: MaskingKind, value: Any) -> Any:
    """Mask a single value. Vectorized masking in the Read API defers to
    this for semantics; tests compare against it."""
    if value is None:
        return None
    if kind is MaskingKind.NULLIFY:
        return None
    if kind is MaskingKind.HASH:
        payload = value if isinstance(value, bytes) else str(value).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()
    if kind is MaskingKind.DEFAULT_VALUE:
        if isinstance(value, str):
            return ""
        if isinstance(value, bytes):
            return b""
        if isinstance(value, bool):
            return False
        if isinstance(value, int):
            return 0
        if isinstance(value, float):
            return 0.0
        return None
    if kind is MaskingKind.LAST_FOUR:
        text = value if isinstance(value, str) else str(value)
        if len(text) <= 4:
            return "X" * len(text)
        return "X" * (len(text) - 4) + text[-4:]
    raise ValueError(f"unknown masking kind {kind}")


@dataclass(frozen=True)
class EffectiveAccess:
    """What one principal may see of one table, after policy resolution.

    Immutable, so :meth:`TablePolicySet.resolve` can hand every caller the
    same memoised view: the fields are normalised to a tuple, a frozenset
    and a read-only mapping however they were passed in."""

    # SQL predicates whose union admits the visible rows; empty with
    # row_policies_exist=False means "all rows".
    row_filters: tuple[str, ...] = ()
    row_policies_exist: bool = False
    # Columns the principal must not see at all.
    denied_columns: frozenset[str] = frozenset()
    # Columns the principal sees through a mask.
    masked_columns: Mapping[str, MaskingKind] = field(default_factory=dict, hash=False)
    # A stable fingerprint of the view: what a cache key records of it.
    digest: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        masked = MappingProxyType(dict(self.masked_columns))
        object.__setattr__(self, "row_filters", tuple(self.row_filters))
        object.__setattr__(self, "denied_columns", frozenset(self.denied_columns))
        object.__setattr__(self, "masked_columns", masked)
        object.__setattr__(self, "digest", (
            self.row_filters,
            self.row_policies_exist,
            tuple(sorted(self.denied_columns)),
            tuple(sorted((c, k.value) for c, k in masked.items())),
        ))

    @property
    def sees_no_rows(self) -> bool:
        return self.row_policies_exist and not self.row_filters


@dataclass
class TablePolicySet:
    """All fine-grained policies attached to one table.

    ``generation`` counts the policy changes; the three ``add_*`` methods
    are the only mutators, and each bumps it and clears the memo of
    resolved views, so :meth:`resolve` re-derives a principal's view once
    per change instead of once per read. The memo holds one view per
    principal that has read the table since the last change.
    """

    row_policies: list[RowAccessPolicy] = field(default_factory=list)
    column_acls: list[ColumnAcl] = field(default_factory=list)
    masking_rules: list[DataMaskingRule] = field(default_factory=list)
    generation: int = field(default=0, init=False, compare=False)
    _views: dict[Principal, EffectiveAccess] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def _changed(self) -> None:
        self.generation += 1
        self._views.clear()

    def add_row_policy(self, policy: RowAccessPolicy) -> None:
        if any(p.name == policy.name for p in self.row_policies):
            raise ValueError(f"row access policy {policy.name!r} already exists")
        self._changed()
        self.row_policies.append(policy)

    def add_column_acl(self, acl: ColumnAcl) -> None:
        self._changed()
        self.column_acls.append(acl)

    def add_masking_rule(self, rule: DataMaskingRule) -> None:
        self._changed()
        self.masking_rules.append(rule)

    def resolve(self, principal: Principal) -> EffectiveAccess:
        """The principal's effective access to the table, memoised until
        the next policy change.

        Masking takes precedence over column denial (a masked reader gets
        masked values rather than an error), matching BigQuery behaviour.
        """
        access = self._views.get(principal)
        if access is None:
            access = self._views[principal] = self._resolve(principal)
        return access

    def _resolve(self, principal: Principal) -> EffectiveAccess:
        row_filters = [
            p.filter_sql for p in self.row_policies if p.applies_to(principal)
        ]
        masked = {
            rule.column: rule.kind
            for rule in self.masking_rules
            if rule.applies_to(principal)
        }
        denied = {
            acl.column
            for acl in self.column_acls
            if acl.column not in masked and not acl.allows(principal)
        }
        return EffectiveAccess(row_filters, bool(self.row_policies), denied, masked)

    @property
    def is_empty(self) -> bool:
        return not (self.row_policies or self.column_acls or self.masking_rules)
