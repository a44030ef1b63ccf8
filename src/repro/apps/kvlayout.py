"""The KV table layout: one 64-byte bucket per cache line, linear probing.

Every component that touches a KV table — the server's local and timed
PUT paths, the blocking and failover clients, the serving tier's
pipelined client, and the untimed table preload — agrees on the bytes
through this module alone.

Bucket layout (64 bytes)::

    bytes 0-7    key (u64; 0 = empty bucket)
    bytes 8-9    value length (u16)
    bytes 10-63  value (up to 54 bytes inline)

Key ``k`` hashes to bucket :func:`bucket_index` and probe ``p`` of its
chain lands on :func:`probe_slot` ``(index + p) % num_buckets``; an
empty bucket terminates the chain.
"""

from __future__ import annotations

import struct
from typing import Mapping, Tuple

from ..vm.address import CACHE_LINE_SIZE

__all__ = ["BUCKET_BYTES", "MAX_VALUE_BYTES", "bucket_index",
           "probe_slot", "pack_bucket", "unpack_bucket", "build_table"]

BUCKET_BYTES = CACHE_LINE_SIZE
MAX_VALUE_BYTES = BUCKET_BYTES - 10

#: Fibonacci hashing constant (Knuth) for u64 keys.
_HASH_MULT = 11400714819323198485
_EMPTY_KEY = bytes(8)


def bucket_index(key: int, num_buckets: int) -> int:
    """Home bucket of ``key`` (probe 0 of its chain)."""
    return ((key * _HASH_MULT) & (2 ** 64 - 1)) % num_buckets


def probe_slot(key: int, probe: int, num_buckets: int) -> int:
    """Bucket visited by probe ``probe`` of ``key``'s chain."""
    return (bucket_index(key, num_buckets) + probe) % num_buckets


def pack_bucket(key: int, value: bytes) -> bytes:
    """One bucket line holding ``key -> value``.

    Raises :class:`ValueError` for key 0 (it marks an empty bucket) and
    for values beyond the inline capacity."""
    if key == 0:
        raise ValueError("key 0 is reserved for empty buckets")
    if len(value) > MAX_VALUE_BYTES:
        raise ValueError(f"value of {len(value)}B exceeds inline capacity")
    body = struct.pack("<QH", key, len(value)) + value
    return body + bytes(BUCKET_BYTES - len(body))


def unpack_bucket(data: bytes) -> Tuple[int, bytes]:
    """``(key, value)`` of one bucket line (key 0: empty bucket)."""
    key, length = struct.unpack_from("<QH", data)
    return key, data[10:10 + length]


def build_table(keys_values: Mapping[int, bytes], num_buckets: int,
                max_probes: int) -> bytes:
    """The table bytes that inserting ``keys_values`` in sorted key
    order produces — a pure function, so every replica (and every rank
    of a partitioned run) can preload identical tables untimed.

    Raises :class:`ValueError` when a key would need a probe at or past
    ``max_probes`` (readers stop there, so the key would be
    unreachable) and :class:`RuntimeError` when the table is full."""
    table = bytearray(num_buckets * BUCKET_BYTES)
    for key in sorted(keys_values):
        bucket = pack_bucket(key, keys_values[key])
        for probe in range(num_buckets):
            if probe >= max_probes:
                raise ValueError(
                    f"key {key} needs probe {probe} >= max_probes="
                    f"{max_probes}; raise num_buckets or max_probes")
            at = probe_slot(key, probe, num_buckets) * BUCKET_BYTES
            if table[at:at + 8] == _EMPTY_KEY:
                table[at:at + BUCKET_BYTES] = bucket
                break
        else:
            raise RuntimeError("hash table full")
    return bytes(table)
