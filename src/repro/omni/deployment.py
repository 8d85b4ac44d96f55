"""Foreign-cloud data planes: Kubernetes, binary authorization, realms.

§5.1/§5.4/§5.3.5: the Omni data plane runs inside a Kubernetes cluster on
the foreign cloud, hosting Dremel plus the minimal Borg-like dependency
set (Chubby, Stubby/Envelope, the in-memory shuffle tier). Only binaries
built and checksummed by the (simulated) trusted build system may run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.cloud import Cloud, Region
from repro.errors import OmniError, VpnPolicyError
from repro.omni.network import RpcPolicy, SecurityRealm, UntrustedProxy, VpnChannel

# The dependency set Dremel needs on a foreign cloud (§5.4).
DATA_PLANE_SERVICES = ["chubby", "envelope", "shuffle", "dremel", "pony-net"]
CONTROL_PLANE_SERVICES = ["job-server", "metadata", "iam", "spanner-catalog"]


class BinaryRegistry:
    """Trusted build system: binaries are registered with their checksum
    at "build" time; pods may only run verified binaries (§5.3.5)."""

    def __init__(self) -> None:
        self._checksums: dict[str, str] = {}

    @staticmethod
    def checksum(binary: bytes) -> str:
        return hashlib.sha256(binary).hexdigest()

    def register(self, name: str, binary: bytes) -> str:
        digest = self.checksum(binary)
        self._checksums[name] = digest
        return digest

    def verify(self, name: str, binary: bytes) -> bool:
        expected = self._checksums.get(name)
        return expected is not None and expected == self.checksum(binary)


@dataclass
class Pod:
    name: str
    service: str
    binary_name: str
    identity: str  # realm-scoped service user
    running: bool = True


class KubernetesCluster:
    """A (very) small Kubernetes: pods run verified binaries only."""

    def __init__(self, region: Region, binaries: BinaryRegistry, realm: SecurityRealm) -> None:
        self.region = region
        self.binaries = binaries
        self.realm = realm
        self.pods: list[Pod] = []

    def launch_pod(self, service: str, binary_name: str, binary: bytes) -> Pod:
        """Schedule a pod; binary authorization gates admission."""
        if not self.binaries.verify(binary_name, binary):
            raise OmniError(
                f"binary authorization rejected {binary_name!r}: checksum not "
                "registered by the trusted build system (§5.3.5)"
            )
        pod = Pod(
            name=f"{service}-{len(self.pods)}",
            service=service,
            binary_name=binary_name,
            identity=self.realm.service_user(service),
        )
        self.pods.append(pod)
        return pod

    def pods_for(self, service: str) -> list[Pod]:
        return [p for p in self.pods if p.service == service and p.running]


@dataclass
class OmniRegion:
    """One deployed Omni region: engine + cluster + networking."""

    region: Region
    engine: "object"  # QueryEngine
    cluster: KubernetesCluster
    channel: VpnChannel
    proxy: UntrustedProxy
    realm: SecurityRealm


@dataclass
class OmniDeployment:
    """All Omni regions of a platform, plus the shared build registry."""

    platform: "object"
    binaries: BinaryRegistry = field(default_factory=BinaryRegistry)
    regions: dict[str, OmniRegion] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # "Build" the data-plane binaries once, inside the trusted system.
        for service in DATA_PLANE_SERVICES:
            self.binaries.register(service, _binary_for(service))

    def deploy_region(self, region: Region) -> OmniRegion:
        """Bring up a foreign-cloud Omni region (§5.1).

        Deploys object storage, the Kubernetes cluster with the verified
        Dremel dependency set, the VPN channel back to the GCP control
        plane, the untrusted proxy, and a realm-isolated engine.
        """
        if region.cloud is Cloud.GCP:
            raise OmniError("Omni regions are non-GCP; GCP regions deploy natively")
        if region.location in self.regions:
            return self.regions[region.location]
        platform = self.platform
        platform.add_region(region)
        realm = SecurityRealm(region.location)
        cluster = KubernetesCluster(region, self.binaries, realm)
        for service in DATA_PLANE_SERVICES:
            cluster.launch_pod(service, service, _binary_for(service))

        policy = RpcPolicy()
        control = platform.config.home_region.location
        channel = VpnChannel(platform.ctx, control, region.location, policy)
        # Static rules: the job server may call the data plane's dremel;
        # data-plane identities may call back only via allowed services.
        policy.allow("dremel", "job-server@gcp")
        for service in CONTROL_PLANE_SERVICES:
            policy.allow(service, realm.service_user("dremel"))
        proxy = UntrustedProxy(channel, realm)

        engine = platform.add_engine(region, name=f"omni-{region.location.replace('/', '-')}")
        omni_region = OmniRegion(
            region=region, engine=engine, cluster=cluster,
            channel=channel, proxy=proxy, realm=realm,
        )
        self.regions[region.location] = omni_region
        return omni_region

    def region_for(self, location: str) -> OmniRegion:
        try:
            return self.regions[location]
        except KeyError:
            raise OmniError(f"no Omni region deployed at {location!r}") from None


def _binary_for(service: str) -> bytes:
    """Deterministic stand-in for a built binary."""
    return f"ELF::{service}::v1".encode()


def validate_cross_realm_isolation(a: OmniRegion, b: OmniRegion) -> None:
    """Assert two regions' realms are disjoint (used by tests): a worker
    identity from region A must be rejected by region B's proxy."""
    foreign_worker = a.realm.service_user("dremel")
    if b.realm.owns(foreign_worker):
        raise VpnPolicyError("realms are not isolated")
