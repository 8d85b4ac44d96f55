"""The governed cache key and IAM check as they were before memoisation:
every call walks the bindings and group memberships, resolves the table's
policies afresh and sorts the result into a digest. ``is_allowed``,
``resolve`` (with the mutable ``EffectiveAccess`` it filled in),
``policy_digest`` and ``table_digest`` are kept verbatim, as functions over
the live objects' state, so they read exactly what the memoised versions
read and nothing they remember.

Not collected by pytest (no ``test_`` prefix); the oracle of
tests/test_governance_memo.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.security.iam import ROLE_PERMISSIONS, AccessDecision
from repro.security.policies import MaskingKind


def _expanded_identities(iam, principal):
    """The principal plus every group containing it (one level deep)."""
    identities = {principal}
    for group, members in iam._group_members.items():
        if principal in members:
            identities.add(group)
    return identities


def is_allowed(iam, principal, permission, resource) -> AccessDecision:
    """Check whether ``principal`` holds ``permission`` on ``resource``
    via a binding on the resource or any ancestor prefix."""
    identities = _expanded_identities(iam, principal)
    # Walk the resource and its ancestors.
    parts = resource.split("/")
    for end in range(len(parts), 0, -1):
        prefix = "/".join(parts[:end])
        for binding in iam._bindings.get(prefix, []):
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


@dataclass
class EffectiveAccess:
    """What one principal may see of one table, after policy resolution."""

    # SQL predicates whose union admits the visible rows; empty list with
    # row_policies_exist=False means "all rows".
    row_filters: list[str] = field(default_factory=list)
    row_policies_exist: bool = False
    # Columns the principal must not see at all.
    denied_columns: set[str] = field(default_factory=set)
    # Columns the principal sees through a mask.
    masked_columns: dict[str, MaskingKind] = field(default_factory=dict)


def resolve(policies, principal) -> EffectiveAccess:
    """Compute the principal's effective access to the table.

    Masking takes precedence over column denial (a masked reader gets
    masked values rather than an error), matching BigQuery behaviour.
    """
    access = EffectiveAccess()
    if policies.row_policies:
        access.row_policies_exist = True
        access.row_filters = [
            p.filter_sql for p in policies.row_policies if p.applies_to(principal)
        ]
    for rule in policies.masking_rules:
        if rule.applies_to(principal):
            access.masked_columns[rule.column] = rule.kind
    for acl in policies.column_acls:
        if acl.column in access.masked_columns:
            continue
        if not acl.allows(principal):
            access.denied_columns.add(acl.column)
    return access


def policy_digest(table, principal) -> tuple:
    """A stable fingerprint of what ``principal`` may see of ``table``."""
    access = resolve(table.policies, principal)
    return (
        tuple(access.row_filters),
        access.row_policies_exist,
        tuple(sorted(access.denied_columns)),
        tuple(sorted((c, k.value) for c, k in access.masked_columns.items())),
    )


def table_digest(table, principal) -> tuple:
    """One table's contribution to a cache key: identity, data version,
    schema shape, and the principal's effective policy view."""
    schema_fp = tuple((f.name, f.dtype.name) for f in table.schema)
    return (table.table_id, table.version, schema_fp, policy_digest(table, principal))
