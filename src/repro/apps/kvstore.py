"""A key-value store over one-sided remote reads (Pilaf-style).

The paper motivates soNUMA with "latency-sensitive key-value stores
such as RAMCloud and Pilaf" and names applications that "can take
advantage of one-sided read operations [38]" as killer apps (§8). This
module implements that design point on the soNUMA API:

* the **server** owns an open-addressing hash table inside its context
  segment (one 64-byte bucket per cache line: key, value length, value);
* **clients** service GETs purely with one-sided ``rmc_read`` operations
  — bucket probes walk the linear-probe chain remotely, with zero server
  CPU involvement (the RRPP serves them statelessly);
* PUTs go through the server's local path (as in Pilaf, where writes are
  shipped to the server); a CAS-based optimistic client PUT is provided
  for single-writer keys.

Fault tolerance (PR 5): :class:`ReplicatedKVServer` mirrors every PUT to
K backup nodes with one-sided bucket writes *at the same table offset*
(identical table geometry means identical probe chains, so a backup's
table is byte-for-byte the primary's), acking only once every backup
holds the bucket — the in-memory replication recipe of Besta & Hoefler's
fault-tolerant RMA work. :class:`FailoverKVClient` walks an ordered
replica list: when a replica's reads error-complete (crash, eviction,
fencing), it fails over to the next and keeps serving. Because PUT acks
imply full replication, an acknowledged PUT is never lost; staleness is
bounded by the single in-flight PUT.

The bucket format and probe sequence live in :mod:`.kvlayout`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..resilience.coding import ErasureCode
from ..runtime.qp_api import RemoteOpFailed, RMCSession
from ..sim import LatencyStat
from .kvlayout import (BUCKET_BYTES, MAX_VALUE_BYTES, pack_bucket,
                       probe_slot, unpack_bucket)

__all__ = ["KVServer", "KVClient", "KVStats", "ReplicatedKVServer",
           "CodedKVServer", "FailoverKVClient", "AvailabilityStats",
           "BUCKET_BYTES", "MAX_VALUE_BYTES"]


@dataclass
class KVStats:
    """Client-side measurement of GET behaviour."""

    gets: int = 0
    hits: int = 0
    probes: int = 0
    get_latency: LatencyStat = None

    def __post_init__(self):
        if self.get_latency is None:
            self.get_latency = LatencyStat("kv-get")

    @property
    def probes_per_get(self) -> float:
        return self.probes / self.gets if self.gets else 0.0


class KVServer:
    """Server-side table management (runs on the owning node)."""

    def __init__(self, session: RMCSession, num_buckets: int = 4096,
                 table_offset: int = 0):
        if num_buckets < 1:
            raise ValueError("need at least one bucket")
        self.session = session
        self.num_buckets = num_buckets
        self.table_offset = table_offset
        self.node_id = session.core  # documentation only
        self.entries = 0

    def _bucket_vaddr(self, index: int) -> int:
        return self.session.ctx.segment.vaddr_of(
            self.table_offset + index * BUCKET_BYTES)

    def put_local(self, key: int, value: bytes) -> int:
        """Insert/overwrite via the server's local path (untimed setup
        helper for preloading; timed server PUT is :meth:`put_timed`).
        Returns the bucket index used."""
        bucket = pack_bucket(key, value)
        for probe in range(self.num_buckets):
            slot = probe_slot(key, probe, self.num_buckets)
            raw = self.session.buffer_peek(self._bucket_vaddr(slot),
                                           BUCKET_BYTES)
            existing_key, _ = unpack_bucket(raw)
            if existing_key in (0, key):
                if existing_key == 0:
                    self.entries += 1
                self.session.buffer_poke(self._bucket_vaddr(slot), bucket)
                return slot
        raise RuntimeError("hash table full")

    def put_timed(self, key: int, value: bytes):
        """Timed coroutine: server-local insert (charged core accesses)."""
        bucket = pack_bucket(key, value)
        core = self.session.core
        space = self.session.space
        for probe in range(self.num_buckets):
            slot = probe_slot(key, probe, self.num_buckets)
            raw = yield from core.mem_read(space, self._bucket_vaddr(slot),
                                           BUCKET_BYTES)
            existing_key, _ = unpack_bucket(raw)
            if existing_key in (0, key):
                if existing_key == 0:
                    self.entries += 1
                yield from core.mem_write(space, self._bucket_vaddr(slot),
                                          bucket)
                return slot
        raise RuntimeError("hash table full")


class KVClient:
    """Client-side GETs via one-sided remote reads."""

    def __init__(self, session: RMCSession, server_nid: int,
                 num_buckets: int, table_offset: int = 0,
                 max_probes: int = 16):
        self.session = session
        self.server_nid = server_nid
        self.num_buckets = num_buckets
        self.table_offset = table_offset
        self.max_probes = max_probes
        self.stats = KVStats()
        self._bounce = session.alloc_buffer(BUCKET_BYTES * max_probes)

    def get(self, key: int):
        """Timed coroutine: fetch ``key`` with remote bucket probes.

        Returns the value bytes, or None if absent. Each probe is one
        64-byte one-sided read — the access pattern Pilaf reports 1.6
        round trips per GET for; linear probing keeps chains short at
        moderate load factors.
        """
        def read_line(probe: int, offset: int):
            lbuf = self._bounce + probe * BUCKET_BYTES
            yield from self.session.read_sync(self.server_nid, offset,
                                              lbuf, BUCKET_BYTES)
            return self.session.buffer_peek(lbuf, BUCKET_BYTES)

        return (yield from self._walk_chain(key, read_line))

    def _walk_chain(self, key: int, read_line):
        """Timed coroutine: walk ``key``'s probe chain, fetching each
        bucket line with ``read_line(probe, offset)``, until a hit, an
        empty bucket, or ``max_probes``."""
        sim = self.session.core.sim
        start = sim.now
        result = None
        for probe in range(self.max_probes):
            offset = (self.table_offset
                      + probe_slot(key, probe, self.num_buckets)
                      * BUCKET_BYTES)
            raw = yield from read_line(probe, offset)
            self.stats.probes += 1
            found_key, value = unpack_bucket(raw)
            if found_key == key:
                result = value
                self.stats.hits += 1
                break
            if found_key == 0:
                break  # empty bucket terminates the probe chain
        self.stats.gets += 1
        self.stats.get_latency.record(sim.now - start)
        return result

    def put_cas(self, key: int, value: bytes, expected_slot: int):
        """Optimistic single-writer PUT: CAS the key word of a known
        bucket, then write the full bucket. Returns True on success."""
        offset = self.table_offset + expected_slot * BUCKET_BYTES
        scratch = self.session.alloc_buffer(BUCKET_BYTES)
        observed = yield from self.session.compare_swap_sync(
            self.server_nid, offset, scratch, compare=key, swap=key)
        if observed not in (0, key):
            return False
        self.session.buffer_poke(scratch, pack_bucket(key, value))
        yield from self.session.write_sync(self.server_nid, offset,
                                           scratch, BUCKET_BYTES)
        return True


# -- fault-tolerant variants (PR 5) ------------------------------------------

@dataclass
class AvailabilityStats:
    """Client-observed availability under node failures."""

    gets_ok: int = 0
    #: GETs that exhausted every replica (true unavailability window).
    gets_failed: int = 0
    #: Times the client advanced to the next replica.
    failovers: int = 0
    #: Individual replica attempts that error-completed.
    replica_errors: int = 0
    #: Replicas skipped without a timeout because membership had already
    #: evicted them (the control plane saving the client a lease wait).
    evicted_skips: int = 0
    #: GETs served by decoding coded backup shards after every full
    #: replica was unreachable (coded-backup mode only).
    degraded_reads: int = 0
    #: Shadow reads sent at a live-again preferred replica to test
    #: whether it serves the same data as the backup (liveness alone
    #: can't be trusted: a rejoined node may hold a wiped table).
    recovery_probes: int = 0
    #: Times a recovery probe verified and the client moved back to its
    #: preferred replica.
    recoveries: int = 0

    @property
    def availability(self) -> float:
        total = self.gets_ok + self.gets_failed
        return self.gets_ok / total if total else 1.0

    def as_dict(self) -> dict:
        return {"gets_ok": self.gets_ok, "gets_failed": self.gets_failed,
                "failovers": self.failovers,
                "replica_errors": self.replica_errors,
                "evicted_skips": self.evicted_skips,
                "degraded_reads": self.degraded_reads,
                "recovery_probes": self.recovery_probes,
                "recoveries": self.recoveries,
                "availability": self.availability}


class ReplicatedKVServer(KVServer):
    """Primary that mirrors each PUT to K backups before acking.

    Replicas must register the table with identical geometry (same
    ``num_buckets`` and ``table_offset``): the primary then ships the
    packed 64-byte bucket line to the *same* slot on every backup with a
    one-sided write, and the backup tables stay byte-for-byte identical
    — including probe-chain structure — without any backup-side CPU.
    A PUT is acknowledged only after every backup write completes, so an
    acknowledged PUT survives any single crash (with K >= 1 backups).
    """

    def __init__(self, session: RMCSession, backups: Sequence[int],
                 num_buckets: int = 4096, table_offset: int = 0):
        super().__init__(session, num_buckets=num_buckets,
                         table_offset=table_offset)
        self.backups = list(backups)
        self.puts_acked = 0
        self.replica_writes = 0
        self._scratch = session.alloc_buffer(BUCKET_BYTES)

    def put_replicated(self, key: int, value: bytes):
        """Timed coroutine: local insert, then synchronous replication
        to every backup. Returns the bucket slot once fully replicated
        (the ack point — nothing acked here can be lost to one crash)."""
        slot = yield from self.put_timed(key, value)
        offset = self.table_offset + slot * BUCKET_BYTES
        self.session.buffer_poke(self._scratch, pack_bucket(key, value))
        for backup in self.backups:
            yield from self.session.write_sync(backup, offset,
                                               self._scratch, BUCKET_BYTES)
            self.replica_writes += 1
        self.puts_acked += 1
        return slot


class CodedKVServer(KVServer):
    """Primary whose backup path ships *coded shards*, not full copies.

    Each acknowledged PUT encodes the packed 64-byte bucket line into
    ``k + m`` shards (see :mod:`repro.resilience.coding`) and one-sided-
    writes shard ``j`` to backup ``j`` **at the same table offset** —
    identical geometry, so a degraded reader knows exactly which bytes
    of which backups reconstruct any bucket. Backup storage per bucket
    drops from ``K x 64B`` (full replication) to
    ``(k + m) x ceil(64/k)B``, and any ``m`` backup losses are
    survivable; losing the *primary* costs ``k`` reads per probe instead
    of one (the degraded read of
    :meth:`FailoverKVClient.get`).
    """

    def __init__(self, session: RMCSession, backups: Sequence[int],
                 code: ErasureCode, num_buckets: int = 4096,
                 table_offset: int = 0):
        if len(backups) != code.num_shards:
            raise ValueError(
                f"{code.name} needs exactly {code.num_shards} backups "
                f"(one per shard), got {len(backups)}")
        super().__init__(session, num_buckets=num_buckets,
                         table_offset=table_offset)
        self.backups = list(backups)
        self.code = code
        self.shard_len = code.shard_length(BUCKET_BYTES)
        self.puts_acked = 0
        self.replica_writes = 0
        self._scratch = session.alloc_buffer(BUCKET_BYTES)

    def put_coded(self, key: int, value: bytes):
        """Timed coroutine: local insert, then one shard to each backup.
        The ack point is after the last shard write — an acknowledged
        PUT survives the primary plus any ``m`` backups."""
        slot = yield from self.put_timed(key, value)
        offset = self.table_offset + slot * BUCKET_BYTES
        shards = self.code.encode(pack_bucket(key, value))
        for shard, backup in zip(shards, self.backups):
            self.session.buffer_poke(self._scratch, shard)
            yield from self.session.write_sync(backup, offset,
                                               self._scratch,
                                               len(shard))
            self.replica_writes += 1
        self.puts_acked += 1
        return slot


class FailoverKVClient(KVClient):
    """GET client that walks an ordered replica list on failures.

    Reads go to the current replica; when a probe error-completes
    (crashed node, severed link, epoch-fenced reply) the client records
    the failure, rotates to the next replica, and retries the whole GET
    there. With a membership service attached, replicas the control
    plane has already evicted are skipped outright — failover happens at
    epoch-change speed instead of per-op timeout speed.

    Staleness bound: backups only ever lag the primary by the single PUT
    currently inside :meth:`ReplicatedKVServer.put_replicated`; any
    *acknowledged* PUT is readable from every replica.

    Coded-backup mode (:class:`CodedKVServer`): pass the server's
    ``code`` and its ordered ``shard_nids`` (backup ``j`` holds shard
    ``j``). When every full replica is unreachable the client falls back
    to *degraded reads*: each probe gathers any ``k`` healthy shards of
    the bucket line and decodes it — ``k`` one-sided reads instead of
    one, but the GET still completes.
    """

    def __init__(self, session: RMCSession, replica_nids: Sequence[int],
                 num_buckets: int, table_offset: int = 0,
                 max_probes: int = 16, membership=None,
                 code: Optional[ErasureCode] = None,
                 shard_nids: Sequence[int] = (), counters=None):
        if not replica_nids:
            raise ValueError("need at least one replica")
        super().__init__(session, replica_nids[0], num_buckets,
                         table_offset=table_offset, max_probes=max_probes)
        self.replicas = list(replica_nids)
        self.membership = membership
        self.current = 0
        #: Membership epoch observed at the last failover: recovery
        #: probes fire only once the control plane has moved past it.
        self._failover_epoch: Optional[int] = None
        self.availability = AvailabilityStats()
        self.code = code
        self.shard_nids = list(shard_nids)
        #: Optional ResilienceCounters of the client's node (telemetry).
        self.counters = counters
        if code is not None:
            if len(self.shard_nids) != code.num_shards:
                raise ValueError(
                    f"{code.name} needs {code.num_shards} shard holders,"
                    f" got {len(self.shard_nids)}")
            self._shard_bounce = session.alloc_buffer(
                code.shard_length(BUCKET_BYTES) * code.num_shards)

    @property
    def active_replica(self) -> int:
        return self.replicas[self.current]

    def _fail_over(self) -> None:
        self.current = (self.current + 1) % len(self.replicas)
        self.availability.failovers += 1
        if self.membership is not None:
            self._failover_epoch = self.membership.epoch

    def _recovery_pending(self) -> bool:
        """Whether this GET should shadow-probe the preferred replica:
        the client is camped on a backup, the membership epoch has
        advanced past the failover (an eviction or rejoin happened),
        and the control plane says the primary is live again. Without
        recovery the client stays on the backup forever after a
        transient primary failure — every later GET pays the backup's
        (possibly remote, possibly slower) path for no reason."""
        return (self.current != 0
                and self.membership is not None
                and self.membership.epoch != self._failover_epoch
                and self.membership.is_live(self.replicas[0]))

    def _probe_primary(self, key: int, expect):
        """Timed coroutine: recovery probe. Liveness alone is not
        enough to send reads home — a rejoined primary may hold a
        wiped (or stale) table until the application re-syncs it. Read
        ``key`` from the primary and move back only when it serves the
        same answer the backup just did; either way, don't probe again
        until the next membership epoch."""
        self.availability.recovery_probes += 1
        self._failover_epoch = self.membership.epoch
        serving_nid = self.server_nid
        self.server_nid = self.replicas[0]
        try:
            got = yield from super().get(key)
        except RemoteOpFailed:
            self.session.consume_errors()
        else:
            if got == expect:
                self.current = 0
                self.availability.recoveries += 1
        finally:
            self.server_nid = serving_nid

    def get(self, key: int):   # noqa: C901 - failover loop
        """Timed coroutine: GET with replica failover. Raises the last
        :class:`RemoteOpFailed` only if *every* replica fails."""
        probe_home = self._recovery_pending()
        last_error: Optional[RemoteOpFailed] = None
        for _ in range(len(self.replicas)):
            target = self.replicas[self.current]
            if self.membership is not None \
                    and not self.membership.is_live(target):
                self.availability.evicted_skips += 1
                self._fail_over()
                continue
            self.server_nid = target
            try:
                value = yield from super().get(key)
            except RemoteOpFailed as exc:
                last_error = exc
                self.availability.replica_errors += 1
                # The session records the peer as failed; absorb it so the
                # next replica starts from a clean slate.
                self.session.consume_errors()
                self._fail_over()
                continue
            if probe_home and self.current != 0:
                yield from self._probe_primary(key, value)
            self.availability.gets_ok += 1
            return value
        if self.code is not None:
            try:
                value = yield from self._get_degraded(key)
            except RemoteOpFailed as exc:
                last_error = exc
            else:
                self.availability.gets_ok += 1
                self.availability.degraded_reads += 1
                if self.counters is not None:
                    self.counters.degraded_reads += 1
                return value
        self.availability.gets_failed += 1
        if last_error is not None:
            raise last_error
        raise RemoteOpFailed(-1, "no live replica to serve the GET")

    # -- coded-backup degraded path ------------------------------------------

    def _healthy_shard_holders(self):
        """Shard holders worth probing: membership-evicted ones are
        skipped outright (same control-plane shortcut as full
        replicas)."""
        holders = []
        for index, nid in enumerate(self.shard_nids):
            if self.membership is not None \
                    and not self.membership.is_live(nid):
                self.availability.evicted_skips += 1
                continue
            holders.append((index, nid))
        return holders

    def _read_bucket_degraded(self, offset: int) -> bytes:
        """Timed coroutine: gather any k shards of one bucket line and
        decode it. Raises :class:`RemoteOpFailed` when fewer than k
        holders answer (more than m losses: the line is gone)."""
        code = self.code
        shard_len = code.shard_length(BUCKET_BYTES)
        shards = {}
        last_error: Optional[RemoteOpFailed] = None
        for index, nid in self._healthy_shard_holders():
            if len(shards) >= code.k:
                break
            lbuf = self._shard_bounce + index * shard_len
            try:
                yield from self.session.read_sync(nid, offset, lbuf,
                                                  shard_len)
            except RemoteOpFailed as exc:
                last_error = exc
                self.availability.replica_errors += 1
                self.session.consume_errors()
                continue
            shards[index] = self.session.buffer_peek(lbuf, shard_len)
        if len(shards) < code.k:
            if last_error is not None:
                raise last_error
            raise RemoteOpFailed(
                -1, f"degraded read found {len(shards)} shards, "
                    f"needs {code.k}")
        return code.decode(shards, BUCKET_BYTES)

    def _get_degraded(self, key: int):
        """Timed coroutine: the GET probe chain, each bucket line
        reconstructed from coded backup shards."""
        return (yield from self._walk_chain(
            key, lambda probe, offset: self._read_bucket_degraded(offset)))
