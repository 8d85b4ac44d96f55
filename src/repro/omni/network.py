"""Omni networking and cross-plane security (§5.2, §5.3.2, §5.3.3).

The control plane (GCP) and data planes (AWS/Azure) communicate over a
zero-trust VPN. Three mechanisms are modeled:

* :class:`VpnChannel` — the encrypted tunnel: IP allow-listing, protocol
  conformance (we model it as service/method allow-lists), and per-message
  latency (cross-cloud RTT + VPN overhead).
* :class:`UntrustedProxy` — terminates the LOAS-like protocol between
  data-plane workers and control-plane services, validating the per-query
  session token before any traffic passes; a compromised worker cannot
  reach beyond its query's scope.
* :class:`SecurityRealm` — per-region identity namespaces: each Omni
  region has its own set of service users, and RPC security policy only
  admits callers from the same realm.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

from typing import Callable

from repro.cloud import transfer_latency_ms
from repro.errors import InvalidCredentialError, TokenExpiredError, VpnPolicyError
from repro.simtime import SimContext

_token_counter = itertools.count(1)


@dataclass(frozen=True)
class SessionToken:
    """A per-query token scoping what the data plane may reach (§5.3.2)."""

    token_id: str
    query_id: str
    allowed_services: frozenset[str]
    expires_ms: float
    signature: str


@dataclass
class RpcPolicy:
    """Static RPC security policy: which callers may reach which services.

    Rules are defined at deployment time and stay constant (§5.1).
    """

    rules: dict[str, set[str]] = field(default_factory=dict)  # service -> caller users

    def allow(self, service: str, caller: str) -> None:
        self.rules.setdefault(service, set()).add(caller)

    def check(self, service: str, caller: str) -> bool:
        return caller in self.rules.get(service, set())


class SecurityRealm:
    """A per-region identity namespace (§5.3.3).

    Every Omni region gets a unique set of service users; services only
    accept calls from users of their own realm, so a compromised region
    cannot talk to any other region's services.
    """

    def __init__(self, region_location: str) -> None:
        self.region_location = region_location
        self._users: set[str] = set()

    def service_user(self, service: str) -> str:
        """Mint (or return) the realm-scoped identity for a service."""
        user = f"{service}@realm:{self.region_location}"
        self._users.add(user)
        return user

    def owns(self, user: str) -> bool:
        return user in self._users


class VpnChannel:
    """The control<->data plane tunnel for one Omni region.

    Every call charges VPN overhead plus the cross-cloud transfer cost of
    its payload, enforces the allow-list, and is counted for the metering
    assertions in the benchmarks.
    """

    def __init__(
        self,
        ctx: SimContext,
        control_location: str,
        data_location: str,
        policy: RpcPolicy,
    ) -> None:
        self.ctx = ctx
        self.control_location = control_location
        self.data_location = data_location
        self.policy = policy
        self.calls = 0
        self.bytes_transferred = 0
        self._secret = hashlib.sha256(
            f"vpn|{control_location}|{data_location}".encode()
        ).hexdigest()

    def call(
        self,
        caller: str,
        service: str,
        method: str,
        payload_bytes: int,
        toward_data_plane: bool = True,
    ) -> None:
        """One RPC across the tunnel; raises on policy violation."""
        if not self.policy.check(service, caller):
            self.ctx.metering.count("vpn.denied")
            raise VpnPolicyError(
                f"policy engine denied {caller!r} -> {service}.{method}"
            )
        # Hazard after the policy check: a flap models the tunnel dropping
        # an admitted RPC, never a policy bypass.
        self.ctx.faults.check("vpn.call", service=service, method=method)
        src = self.control_location if toward_data_plane else self.data_location
        dst = self.data_location if toward_data_plane else self.control_location
        latency = transfer_latency_ms(self.ctx.costs, src, dst, payload_bytes)
        with self.ctx.tracer.span(
            "vpn.call", layer="omni",
            service=service, method=method, bytes=payload_bytes,
        ) as span:
            self.ctx.charge("vpn.call", latency + self.ctx.costs.vpn_overhead_ms)
            if src != dst:
                self.ctx.metering.add_egress(src, dst, payload_bytes)
                span.add_tag("egress_bytes", payload_bytes)
        self.ctx.metrics.counter(
            "vpn_calls_total", "RPCs across the control/data-plane tunnel"
        ).inc(service=service)
        self.calls += 1
        self.bytes_transferred += payload_bytes

    # -- session tokens -----------------------------------------------------

    def mint_session_token(
        self, query_id: str, allowed_services: list[str], ttl_ms: float = 3_600_000.0
    ) -> SessionToken:
        expires = self.ctx.clock.now_ms + ttl_ms
        payload = f"{self._secret}|{query_id}|{sorted(allowed_services)}|{expires:.3f}"
        return SessionToken(
            token_id=f"qtok-{next(_token_counter):08d}",
            query_id=query_id,
            allowed_services=frozenset(allowed_services),
            expires_ms=expires,
            signature=hashlib.sha256(payload.encode()).hexdigest(),
        )

    def verify_token(self, token: SessionToken) -> None:
        payload = (
            f"{self._secret}|{token.query_id}|"
            f"{sorted(token.allowed_services)}|{token.expires_ms:.3f}"
        )
        if token.signature != hashlib.sha256(payload.encode()).hexdigest():
            raise InvalidCredentialError("session token signature mismatch")
        if self.ctx.clock.now_ms > token.expires_ms:
            raise TokenExpiredError("session token expired")


class UntrustedProxy:
    """The LOAS-terminating proxy between Dremel workers and Borg services.

    Validates the per-query session token and the target service before
    admitting traffic toward the control plane (§5.3.2).
    """

    def __init__(
        self,
        channel: VpnChannel,
        realm: SecurityRealm,
        token_refresher: "Callable[[SessionToken], SessionToken] | None" = None,
    ) -> None:
        self.channel = channel
        self.realm = realm
        self.token_refresher = token_refresher
        self.denied_calls = 0
        self.admitted_calls = 0

    def set_token_refresher(
        self, refresher: "Callable[[SessionToken], SessionToken] | None"
    ) -> None:
        """Install the control-plane callback that re-mints an *expired*
        (but authentic) session token for the same query scope."""
        self.token_refresher = refresher

    def call_control_plane(
        self,
        worker_user: str,
        token: SessionToken,
        service: str,
        method: str,
        payload_bytes: int = 1024,
    ) -> SessionToken:
        """A data-plane worker calling back into the control plane.

        Returns the token the call was admitted under — the original, or a
        re-established one when the original had merely expired mid-query
        and a ``token_refresher`` is installed. Forged tokens are never
        refreshed. Transient VPN flaps on the admitted RPC are retried.
        """
        if not self.realm.owns(worker_user):
            self.denied_calls += 1
            raise VpnPolicyError(
                f"worker identity {worker_user!r} is not in realm "
                f"{self.realm.region_location!r}"
            )
        token = self._verify_or_reestablish(token)
        if service not in token.allowed_services:
            self.denied_calls += 1
            raise VpnPolicyError(
                f"session token for query {token.query_id!r} does not allow "
                f"service {service!r}"
            )
        self.channel.ctx.with_retry(
            "vpn.call",
            lambda: self.channel.call(
                worker_user, service, method, payload_bytes, toward_data_plane=False
            ),
        )
        self.admitted_calls += 1
        return token

    def _verify_or_reestablish(self, token: SessionToken) -> SessionToken:
        """Verify ``token``; on expiry (only), re-establish via the
        refresher. Signature mismatches always deny — an attacker must not
        be able to launder a forged token through the refresh path."""
        try:
            self.channel.verify_token(token)
            return token
        except TokenExpiredError:
            if self.token_refresher is None:
                self.denied_calls += 1
                raise
        except InvalidCredentialError:
            self.denied_calls += 1
            raise
        ctx = self.channel.ctx
        ctx.metering.count("omni.token_reestablished")
        ctx.metrics.counter(
            "omni_token_reestablished_total",
            "Expired session tokens re-established mid-query.",
        ).inc()
        fresh = self.token_refresher(token)
        try:
            self.channel.verify_token(fresh)
        except InvalidCredentialError:
            self.denied_calls += 1
            raise
        return fresh
