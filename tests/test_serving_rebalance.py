"""Mid-trace shard-map rebalancing (serving tier membership changes).

Drives :meth:`ShardMap.add_shard` / :meth:`ShardMap.remove_shard`
between serving phases of one simulation: a shard joins mid-trace (its
arcs — and only its arcs — remap to it), GETs keep verifying against
the expected values through both transitions, and removing the shard
restores the exact pre-add placement (consistent hashing is
history-free: the surviving tokens never moved).
"""

from repro.apps.kvlayout import (BUCKET_BYTES, build_table, probe_slot,
                                 unpack_bucket)
from repro.cluster import Cluster, ClusterConfig
from repro.runtime import RMCSession
from repro.serving.hashring import ShardMap
from repro.serving.loadgen import value_of_key
from repro.vm import PAGE_SIZE

CTX = 6
NUM_KEYS = 96
NUM_BUCKETS = 256
MAX_PROBES = 16
REGION = NUM_BUCKETS * BUCKET_BYTES


class TestMidTraceRebalance:
    def _expected(self):
        return {k: value_of_key(k) for k in range(1, NUM_KEYS + 1)}

    def test_add_then_remove_shard_mid_trace(self):
        # Start with shards {0,1,2} on nodes {1,2,3}; shard 3 (node 4)
        # joins mid-trace and leaves again.
        shard_map = ShardMap({s: 1 + s for s in range(3)}, vnodes=64)
        expected = self._expected()
        before = {k: shard_map.shard_of(k) for k in expected}

        # Placement facts first (pure ShardMap behavior): the join
        # steals only its own arcs, the leave restores them exactly.
        shard_map.add_shard(3, node=4)
        after_add = {k: shard_map.shard_of(k) for k in expected}
        moved = [k for k in expected if after_add[k] != before[k]]
        assert moved, "a joining shard should own some keys"
        assert all(after_add[k] == 3 for k in moved)  # minimal remap
        assert shard_map.version == 1
        assert shard_map.replica_nodes(3) == [4]
        shard_map.remove_shard(3)
        assert {k: shard_map.shard_of(k) for k in expected} == before
        assert shard_map.version == 2

        # Now the same transitions mid-trace, against real segments.
        # Nodes 1..3 hold their phase-A tables (stale entries for keys
        # that temporarily move to shard 3 are fine — nothing routes
        # there while shard 3 owns them); node 4 holds exactly the keys
        # it will own after the join.
        cluster = Cluster(config=ClusterConfig(num_nodes=5))
        segment = -(-4 * REGION // PAGE_SIZE) * PAGE_SIZE
        gctx = cluster.create_global_context(CTX, segment)
        keyset = {s: {} for s in range(3)}
        for k, v in expected.items():
            keyset[before[k]][k] = v
        for s in range(3):
            cluster.poke_segment(
                1 + s, CTX, s * REGION,
                build_table(keyset[s], NUM_BUCKETS, MAX_PROBES))
        joining = {k: expected[k] for k in moved}
        cluster.poke_segment(
            4, CTX, 3 * REGION,
            build_table(joining, NUM_BUCKETS, MAX_PROBES))

        session = RMCSession(cluster.nodes[0].core, gctx.qp(0),
                             gctx.entry(0))
        scratch = session.alloc_buffer(BUCKET_BYTES)
        outcome = {"wrong": 0, "gets": 0, "versions": []}

        def get(key):
            shard, nodes = shard_map.route(key)
            base = shard * REGION
            for probe in range(MAX_PROBES):
                slot = probe_slot(key, probe, NUM_BUCKETS)
                yield from session.read_sync(
                    nodes[0], base + slot * BUCKET_BYTES, scratch,
                    BUCKET_BYTES)
                found, value = unpack_bucket(
                    session.buffer_peek(scratch, BUCKET_BYTES))
                if found == key:
                    return value
                if found == 0:
                    return None
            return None

        def phase(keys):
            for key in keys:
                value = yield from get(key)
                outcome["gets"] += 1
                if value != expected[key]:
                    outcome["wrong"] += 1

        def scenario(sim):
            keys = sorted(expected)
            yield from phase(keys)                     # 3 shards
            shard_map.add_shard(3, node=4)
            outcome["versions"].append(shard_map.version)
            yield from phase(keys)                     # 4 shards
            shard_map.remove_shard(3)
            outcome["versions"].append(shard_map.version)
            yield from phase(keys)                     # back to 3

        cluster.sim.process(scenario(cluster.sim))
        cluster.run(until=100_000_000)

        assert outcome["gets"] == 3 * NUM_KEYS         # no phase stalled
        assert outcome["wrong"] == 0                   # every GET verified
        assert outcome["versions"] == [3, 4]           # bumps observed
