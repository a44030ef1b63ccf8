"""The KV table layout: pure table building and its typed error paths."""

import pytest

from repro.apps.kvlayout import (BUCKET_BYTES, MAX_VALUE_BYTES, bucket_index,
                                 build_table)
from repro.apps.kvstore import KVServer
from repro.cluster import Cluster, ClusterConfig
from repro.runtime import RMCSession
from repro.vm import PAGE_SIZE

CTX = 1


def _colliding_keys(num_buckets, count):
    """The first ``count`` keys sharing key 1's home bucket."""
    home = bucket_index(1, num_buckets)
    return [k for k in range(1, 10_000)
            if bucket_index(k, num_buckets) == home][:count]


def _server(num_buckets):
    cluster = Cluster(config=ClusterConfig(num_nodes=1))
    gctx = cluster.create_global_context(CTX, 4 * PAGE_SIZE)
    session = RMCSession(cluster.nodes[0].core, gctx.qp(0), gctx.entry(0))
    return cluster, KVServer(session, num_buckets=num_buckets)


class TestBuildTableErrors:
    def test_key_past_max_probes_raises_value_error(self):
        first, second = _colliding_keys(8, 2)
        with pytest.raises(ValueError, match="max_probes"):
            build_table({first: b"a", second: b"b"}, 8, max_probes=1)

    def test_full_table_raises_runtime_error(self):
        keys = {k: b"v" for k in range(1, 6)}
        with pytest.raises(RuntimeError, match="full"):
            build_table(keys, 4, max_probes=8)

    def test_key_zero_rejected(self):
        with pytest.raises(ValueError, match="key 0"):
            build_table({0: b"nope"}, 8, max_probes=8)

    def test_server_full_table_raises_runtime_error(self):
        _cluster, server = _server(num_buckets=4)
        for key in range(1, 5):
            server.put_local(key, b"v")
        with pytest.raises(RuntimeError, match="full"):
            server.put_local(5, b"v")


class TestBuildTableMatchesServer:
    def test_byte_equal_to_put_local_in_sorted_order(self):
        num_buckets = 64
        keys = _colliding_keys(num_buckets, 6) + list(range(100, 140, 3))
        kv = {k: bytes([k % 251]) * (k % MAX_VALUE_BYTES)
              for k in keys}
        cluster, server = _server(num_buckets)
        for key in sorted(kv):
            server.put_local(key, kv[key])
        segment = cluster.peek_segment(0, CTX, 0,
                                       num_buckets * BUCKET_BYTES)
        assert build_table(kv, num_buckets, max_probes=num_buckets) \
            == segment
        assert server.entries == len(kv)
