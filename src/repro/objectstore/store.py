"""The object store: buckets, blobs, listings, CAS, signed URLs."""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass, field
from typing import Iterator

from repro.cloud import Region, transfer_latency_ms
from repro.errors import (
    AlreadyExistsError,
    NotFoundError,
    PreconditionFailedError,
)
from repro.simtime import MIB, SimContext


@dataclass(frozen=True)
class ObjectMeta:
    """Metadata the store returns from HEAD/LIST — exactly the attributes
    Object tables surface as columns (§4.1): uri, size, content type,
    creation/update time, generation."""

    bucket: str
    key: str
    size: int
    content_type: str
    create_time_ms: float
    update_time_ms: float
    generation: int
    etag: str

    @property
    def uri(self) -> str:
        return f"store://{self.bucket}/{self.key}"


@dataclass
class _Blob:
    data: bytes
    meta: ObjectMeta


@dataclass
class Bucket:
    """A named container of objects, sorted by key for prefix listing."""

    name: str
    region: Region
    blobs: dict[str, _Blob] = field(default_factory=dict)
    sorted_keys: list[str] = field(default_factory=list)

    def _insert_key(self, key: str) -> None:
        idx = bisect.bisect_left(self.sorted_keys, key)
        if idx >= len(self.sorted_keys) or self.sorted_keys[idx] != key:
            self.sorted_keys.insert(idx, key)

    def _remove_key(self, key: str) -> None:
        idx = bisect.bisect_left(self.sorted_keys, key)
        if idx < len(self.sorted_keys) and self.sorted_keys[idx] == key:
            self.sorted_keys.pop(idx)


@dataclass(frozen=True)
class SignedUrl:
    """A time-limited capability to read one object (§4.1).

    The signature binds bucket, key, and expiry to the issuing store's
    secret, so a tampered URL fails validation.
    """

    bucket: str
    key: str
    expires_ms: float
    signature: str


class ObjectStore:
    """One cloud object store endpoint living in a region.

    All operations charge simulated latency to the shared
    :class:`~repro.simtime.SimContext` and record op/byte meters. Callers in
    a different location pass ``caller_location`` so transfers accrue
    cross-region/cross-cloud latency and egress.
    """

    def __init__(self, region: Region, ctx: SimContext, name: str | None = None) -> None:
        self.region = region
        self.ctx = ctx
        self.name = name or f"objectstore-{region.location}"
        self._buckets: dict[str, Bucket] = {}
        self._signing_secret = hashlib.sha256(self.name.encode()).hexdigest()
        # Per-object earliest next allowed CAS mutation time (sim ms).
        self._cas_next_allowed_ms: dict[tuple[str, str], float] = {}

    def _maybe_fail(self, op: str) -> None:
        """Consult the context-wide injector at this store's hazard point."""
        self.ctx.faults.check(f"objectstore.{op}", store=self.name)

    # -- bucket management ---------------------------------------------------

    def create_bucket(self, name: str) -> Bucket:
        if name in self._buckets:
            raise AlreadyExistsError(f"bucket {name!r} already exists")
        bucket = Bucket(name=name, region=self.region)
        self._buckets[name] = bucket
        return bucket

    def bucket(self, name: str) -> Bucket:
        try:
            return self._buckets[name]
        except KeyError:
            raise NotFoundError(f"bucket {name!r} not found") from None

    def has_bucket(self, name: str) -> bool:
        return name in self._buckets

    # -- internals -------------------------------------------------------------

    def _count_op(self, op: str, num_bytes: int = 0, read: bool = False) -> None:
        """Bump the per-op/per-region metrics for one store operation."""
        metrics = self.ctx.metrics
        metrics.counter(
            "objectstore_ops_total", "object store operations by op and region"
        ).inc(op=op, region=self.region.location)
        if num_bytes:
            metrics.counter(
                "objectstore_bytes_total", "object store payload bytes by direction"
            ).inc(num_bytes, direction="read" if read else "write", region=self.region.location)

    def _transfer_charge(self, num_bytes: int, caller_location: str | None, read: bool) -> None:
        """Charge latency + egress for moving bytes to/from the caller."""
        here = self.region.location
        there = caller_location or here
        latency = transfer_latency_ms(self.ctx.costs, here, there, num_bytes)
        self.ctx.clock.advance(latency)
        if there != here:
            if read:
                self.ctx.metering.add_egress(here, there, num_bytes)
            else:
                self.ctx.metering.add_egress(there, here, num_bytes)
            current = self.ctx.tracer.current
            if current is not None:
                current.add_tag("egress_bytes", num_bytes)

    def _make_meta(self, bucket: str, key: str, data: bytes, content_type: str, prior: ObjectMeta | None) -> ObjectMeta:
        now = self.ctx.clock.now_ms
        generation = (prior.generation + 1) if prior else 1
        etag = hashlib.md5(data).hexdigest()
        create = prior.create_time_ms if prior else now
        return ObjectMeta(
            bucket=bucket,
            key=key,
            size=len(data),
            content_type=content_type,
            create_time_ms=create,
            update_time_ms=now,
            generation=generation,
            etag=etag,
        )

    # -- object operations -------------------------------------------------------

    def put_object(
        self,
        bucket: str,
        key: str,
        data: bytes,
        content_type: str = "application/octet-stream",
        caller_location: str | None = None,
    ) -> ObjectMeta:
        """Unconditional PUT (create or overwrite)."""
        self._maybe_fail("put")
        b = self.bucket(bucket)
        with self.ctx.tracer.span(
            "objectstore.put", layer="objectstore", key=f"{bucket}/{key}", bytes=len(data)
        ):
            self.ctx.charge("object_store.put", self.ctx.costs.put_first_byte_ms)
            self.ctx.clock.advance((len(data) / MIB) * self.ctx.costs.put_per_mib_ms)
            self._transfer_charge(len(data), caller_location, read=False)
        self._count_op("put", len(data))
        self.ctx.metering.add_write(len(data))
        prior = b.blobs.get(key)
        meta = self._make_meta(bucket, key, data, content_type, prior.meta if prior else None)
        b.blobs[key] = _Blob(data=data, meta=meta)
        b._insert_key(key)
        return meta

    def put_if_generation(
        self,
        bucket: str,
        key: str,
        data: bytes,
        expected_generation: int,
        content_type: str = "application/octet-stream",
        caller_location: str | None = None,
    ) -> ObjectMeta:
        """Conditional PUT: succeeds only if the object's current generation
        equals ``expected_generation`` (0 = object must not exist).

        Models the atomic pointer swap open table formats rely on. Object
        stores only allow a handful of mutations per second per object
        (§3.5); exceeding the budget stalls the writer until the next slot.
        """
        self._maybe_fail("cas_put")
        b = self.bucket(bucket)
        with self.ctx.tracer.span(
            "objectstore.cas_put", layer="objectstore", key=f"{bucket}/{key}", bytes=len(data)
        ) as span:
            # Per-object mutation rate limit: wait for the next allowed slot.
            slot_key = (bucket, key)
            interval_ms = 1000.0 / self.ctx.costs.cas_mutations_per_sec
            next_allowed = self._cas_next_allowed_ms.get(slot_key, 0.0)
            if self.ctx.clock.now_ms < next_allowed:
                self.ctx.metering.count("object_store.cas_throttled")
                span.set_tag("throttled_ms", next_allowed - self.ctx.clock.now_ms)
                self.ctx.clock.advance_to(next_allowed)
            self._cas_next_allowed_ms[slot_key] = self.ctx.clock.now_ms + interval_ms

            self.ctx.charge("object_store.cas_put", self.ctx.costs.put_first_byte_ms)
            self.ctx.clock.advance((len(data) / MIB) * self.ctx.costs.put_per_mib_ms)
            self._transfer_charge(len(data), caller_location, read=False)
        self._count_op("cas_put", len(data))
        prior = b.blobs.get(key)
        current_generation = prior.meta.generation if prior else 0
        if current_generation != expected_generation:
            raise PreconditionFailedError(
                f"{bucket}/{key}: expected generation {expected_generation}, "
                f"found {current_generation}"
            )
        self.ctx.metering.add_write(len(data))
        meta = self._make_meta(bucket, key, data, content_type, prior.meta if prior else None)
        b.blobs[key] = _Blob(data=data, meta=meta)
        b._insert_key(key)
        return meta

    def get_object(
        self, bucket: str, key: str, caller_location: str | None = None
    ) -> bytes:
        """GET the full object."""
        self._maybe_fail("get")
        blob = self._lookup(bucket, key)
        with self.ctx.tracer.span(
            "objectstore.get", layer="objectstore", key=f"{bucket}/{key}", bytes=len(blob.data)
        ):
            self.ctx.charge("object_store.get", self.ctx.costs.get_first_byte_ms)
            self.ctx.clock.advance((len(blob.data) / MIB) * self.ctx.costs.get_per_mib_ms)
            self._transfer_charge(len(blob.data), caller_location, read=True)
        self._count_op("get", len(blob.data), read=True)
        self.ctx.metering.add_read(len(blob.data))
        return blob.data

    def get_range(
        self,
        bucket: str,
        key: str,
        start: int,
        length: int,
        caller_location: str | None = None,
    ) -> bytes:
        """Ranged GET (used to fetch file footers without the whole object)."""
        self._maybe_fail("get_range")
        blob = self._lookup(bucket, key)
        if start < 0:
            start = max(0, len(blob.data) + start)
        payload = blob.data[start : start + length]
        with self.ctx.tracer.span(
            "objectstore.get_range", layer="objectstore", key=f"{bucket}/{key}", bytes=len(payload)
        ):
            self.ctx.charge("object_store.get_range", self.ctx.costs.get_first_byte_ms)
            self.ctx.clock.advance((len(payload) / MIB) * self.ctx.costs.get_per_mib_ms)
            self._transfer_charge(len(payload), caller_location, read=True)
        self._count_op("get_range", len(payload), read=True)
        self.ctx.metering.add_read(len(payload))
        return payload

    def head_object(self, bucket: str, key: str) -> ObjectMeta:
        """Metadata-only request."""
        self._maybe_fail("head")
        blob = self._lookup(bucket, key)
        with self.ctx.tracer.span("objectstore.head", layer="objectstore", key=f"{bucket}/{key}"):
            self.ctx.charge("object_store.head", self.ctx.costs.head_latency_ms)
        self._count_op("head")
        return blob.meta

    def object_exists(self, bucket: str, key: str) -> bool:
        b = self.bucket(bucket)
        return key in b.blobs

    def delete_object(self, bucket: str, key: str) -> None:
        self._maybe_fail("delete")
        b = self.bucket(bucket)
        if key not in b.blobs:
            raise NotFoundError(f"object {bucket}/{key} not found")
        with self.ctx.tracer.span("objectstore.delete", layer="objectstore", key=f"{bucket}/{key}"):
            self.ctx.charge("object_store.delete", self.ctx.costs.delete_latency_ms)
        self._count_op("delete")
        del b.blobs[key]
        b._remove_key(key)

    def list_objects(
        self, bucket: str, prefix: str = "", page_size: int | None = None
    ) -> Iterator[ObjectMeta]:
        """Paginated LIST under ``prefix``; each page costs a round trip.

        This is deliberately the slow path: listing N objects costs
        ``ceil(N / page_size)`` page latencies, which is what makes direct
        bucket listing painful at millions of objects.
        """
        self._maybe_fail("list")
        b = self.bucket(bucket)
        page_size = page_size or self.ctx.costs.list_page_size
        start = bisect.bisect_left(b.sorted_keys, prefix)
        emitted_in_page = 0
        self._charge_list_page(bucket, prefix)
        for idx in range(start, len(b.sorted_keys)):
            key = b.sorted_keys[idx]
            if not key.startswith(prefix):
                break
            if emitted_in_page == page_size:
                self._charge_list_page(bucket, prefix)
                emitted_in_page = 0
            emitted_in_page += 1
            yield b.blobs[key].meta

    def _charge_list_page(self, bucket: str, prefix: str) -> None:
        """One LIST page round trip, as its own (short) span so the cost
        lands on whichever span is consuming the listing generator."""
        with self.ctx.tracer.span(
            "objectstore.list_page", layer="objectstore", key=f"{bucket}/{prefix}"
        ):
            self.ctx.charge("object_store.list_page", self.ctx.costs.list_page_latency_ms)
        self._count_op("list_page")

    def count_objects(self, bucket: str, prefix: str = "") -> int:
        """Number of objects under a prefix (no latency; test helper)."""
        b = self.bucket(bucket)
        start = bisect.bisect_left(b.sorted_keys, prefix)
        count = 0
        for idx in range(start, len(b.sorted_keys)):
            if not b.sorted_keys[idx].startswith(prefix):
                break
            count += 1
        return count

    # -- signed URLs ---------------------------------------------------------------

    def generate_signed_url(self, bucket: str, key: str, ttl_ms: float) -> SignedUrl:
        """Mint a read capability valid for ``ttl_ms`` of simulated time."""
        self._lookup(bucket, key)  # must exist
        expires = self.ctx.clock.now_ms + ttl_ms
        signature = self._sign(bucket, key, expires)
        return SignedUrl(bucket=bucket, key=key, expires_ms=expires, signature=signature)

    def read_signed_url(self, url: SignedUrl, caller_location: str | None = None) -> bytes:
        """Fetch an object through a signed URL, validating signature + expiry."""
        from repro.errors import InvalidCredentialError

        if url.signature != self._sign(url.bucket, url.key, url.expires_ms):
            raise InvalidCredentialError("signed URL signature mismatch")
        if self.ctx.clock.now_ms > url.expires_ms:
            raise InvalidCredentialError("signed URL expired")
        return self.get_object(url.bucket, url.key, caller_location=caller_location)

    def _sign(self, bucket: str, key: str, expires_ms: float) -> str:
        payload = f"{self._signing_secret}|{bucket}|{key}|{expires_ms:.3f}"
        return hashlib.sha256(payload.encode()).hexdigest()

    def _lookup(self, bucket: str, key: str) -> _Blob:
        b = self.bucket(bucket)
        try:
            return b.blobs[key]
        except KeyError:
            raise NotFoundError(f"object {bucket}/{key} not found") from None
