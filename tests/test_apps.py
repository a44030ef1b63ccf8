"""Tests for the applications: graph substrate, PageRank x3, KV store."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import (
    Graph,
    KVClient,
    KVServer,
    pagerank_reference,
    partition_random,
    run_shm,
    run_sonuma_bulk,
    run_sonuma_fine,
    zipf_graph,
)
from repro.cluster import Cluster, ClusterConfig
from repro.fabric import FaultDecision, FaultInjector
from repro.node import NodeConfig
from repro.protocol import Opcode
from repro.rmc import RMCConfig
from repro.runtime import RemoteOpFailed, RMCSession
from repro.vm import PAGE_SIZE


class TestGraph:
    def test_zipf_graph_is_consistent(self):
        graph = zipf_graph(500, avg_degree=6, seed=3)
        graph.validate()
        assert graph.num_vertices == 500
        assert graph.num_edges > 500

    def test_zipf_graph_deterministic_by_seed(self):
        a = zipf_graph(200, seed=11)
        b = zipf_graph(200, seed=11)
        assert a.in_neighbors == b.in_neighbors
        c = zipf_graph(200, seed=12)
        assert a.in_neighbors != c.in_neighbors

    def test_zipf_degree_distribution_is_skewed(self):
        graph = zipf_graph(2000, avg_degree=8, seed=5)
        degrees = sorted(graph.out_degree, reverse=True)
        top_share = sum(degrees[:200]) / sum(degrees)
        assert top_share > 0.25  # top 10% of vertices carry >25% of edges

    def test_no_self_loops_or_zero_out_degree(self):
        graph = zipf_graph(300, seed=9)
        for v in range(graph.num_vertices):
            assert v not in graph.in_neighbors[v]
            assert graph.out_degree[v] >= 1

    def test_validate_catches_bad_out_degree(self):
        graph = Graph(num_vertices=2, in_neighbors=[[1], []],
                      out_degree=[1, 0])
        with pytest.raises(ValueError):
            graph.validate()  # vertex 1 has an edge but out_degree 0

    def test_reference_matches_networkx(self):
        import networkx as nx

        graph = zipf_graph(150, avg_degree=5, seed=2)
        iterations = 40
        ours = pagerank_reference(graph, iterations)
        # The generator can emit parallel edges; MultiDiGraph keeps them
        # so networkx weighs repeated endorsements the same way we do.
        g = nx.MultiDiGraph()
        g.add_nodes_from(range(graph.num_vertices))
        for v in range(graph.num_vertices):
            for u in graph.in_neighbors[v]:
                g.add_edge(u, v)
        theirs = nx.pagerank(g, alpha=0.85, max_iter=200, tol=1e-12)
        for v in range(graph.num_vertices):
            assert ours[v] == pytest.approx(theirs[v], abs=1e-6)


class TestPartition:
    def test_partitions_are_balanced(self):
        graph = zipf_graph(1000, seed=1)
        part = partition_random(graph, 8)
        sizes = [len(m) for m in part.members]
        assert max(sizes) - min(sizes) <= 1

    def test_local_index_is_dense_per_node(self):
        graph = zipf_graph(100, seed=1)
        part = partition_random(graph, 4)
        for node, members in enumerate(part.members):
            indices = sorted(part.local_index[v] for v in members)
            assert indices == list(range(len(members)))

    def test_cut_edges_grow_with_parts(self):
        graph = zipf_graph(500, seed=1)
        cut2 = partition_random(graph, 2).cut_edges(graph)
        cut8 = partition_random(graph, 8).cut_edges(graph)
        assert cut8 > cut2

    @given(st.integers(min_value=2, max_value=8))
    @settings(max_examples=8, deadline=None)
    def test_property_every_vertex_owned_exactly_once(self, parts):
        graph = zipf_graph(120, seed=4)
        part = partition_random(graph, parts)
        seen = set()
        for members in part.members:
            for v in members:
                assert v not in seen
                seen.add(v)
        assert seen == set(range(graph.num_vertices))


class TestPageRankVariants:
    """All three timed implementations must agree with the reference
    bit-for-bit (they execute the same floating-point update)."""

    @pytest.fixture(scope="class")
    def graph(self):
        return zipf_graph(128, avg_degree=5, seed=21)

    def test_shm_matches_reference(self, graph):
        ref = pagerank_reference(graph, 2)
        result = run_shm(graph, 4, supersteps=2)
        assert max(abs(a - b) for a, b in zip(ref, result.ranks)) < 1e-12

    def test_bulk_matches_reference(self, graph):
        ref = pagerank_reference(graph, 2)
        result = run_sonuma_bulk(graph, 3, supersteps=2)
        assert max(abs(a - b) for a, b in zip(ref, result.ranks)) < 1e-12

    def test_fine_matches_reference(self, graph):
        ref = pagerank_reference(graph, 2)
        result = run_sonuma_fine(graph, 3, supersteps=2)
        assert max(abs(a - b) for a, b in zip(ref, result.ranks)) < 1e-12

    def test_fine_issues_one_read_per_cut_edge(self, graph):
        part = partition_random(graph, 3)
        expected = part.cut_edges(graph)
        result = run_sonuma_fine(graph, 3, supersteps=1)
        assert result.remote_reads == expected

    def test_bulk_issues_one_read_per_peer_per_superstep(self, graph):
        result = run_sonuma_bulk(graph, 3, supersteps=2)
        assert result.remote_reads == 2 * 3 * 2  # steps x nodes x peers

    @pytest.mark.parametrize("run", [run_sonuma_bulk, run_sonuma_fine])
    def test_timed_out_read_raises_instead_of_computing(self, graph, run,
                                                        monkeypatch):
        """Every attempt of node 0's read of node 1's first record line
        is dropped, so the read times out; the worker must raise
        RemoteOpFailed rather than compute on the missing data."""

        class DropFirstRecordLine(FaultInjector):
            def decide(self, src, dst, packet):
                if (src, dst) == (0, 1) and packet.offset == 0 \
                        and getattr(packet, "op", None) is Opcode.RREAD:
                    return FaultDecision(drop=True)
                return None

        build_cluster = Cluster.__init__

        def init(cluster, *args, **kwargs):
            build_cluster(cluster, *args, **kwargs)
            cluster.fabric.install_fault_injector(DropFirstRecordLine())

        monkeypatch.setattr(Cluster, "__init__", init)
        config = ClusterConfig(num_nodes=2, node=NodeConfig(rmc=RMCConfig(
            retransmit_timeout_ns=2_000.0, max_retries=1)))
        with pytest.raises(RemoteOpFailed, match="timeout"):
            run(graph, 2, supersteps=1, cluster_config=config)

    def test_parallelism_speeds_up_shm(self, graph):
        t1 = run_shm(graph, 1).elapsed_ns
        t4 = run_shm(graph, 4).elapsed_ns
        assert t4 < t1


CTX = 1


class TestKVStore:
    def _build(self, num_buckets=256):
        cluster = Cluster(config=ClusterConfig(num_nodes=2))
        gctx = cluster.create_global_context(CTX, 64 * PAGE_SIZE)
        server_session = RMCSession(cluster.nodes[1].core, gctx.qp(1),
                                    gctx.entry(1))
        client_session = RMCSession(cluster.nodes[0].core, gctx.qp(0),
                                    gctx.entry(0))
        server = KVServer(server_session, num_buckets=num_buckets)
        client = KVClient(client_session, server_nid=1,
                          num_buckets=num_buckets)
        return cluster, server, client

    def test_get_returns_stored_value(self):
        cluster, server, client = self._build()
        server.put_local(42, b"the answer")

        def app(sim):
            return (yield from client.get(42))

        proc = cluster.sim.process(app(cluster.sim))
        cluster.run()
        assert proc.value == b"the answer"

    def test_get_missing_key_returns_none(self):
        cluster, server, client = self._build()
        server.put_local(1, b"x")

        def app(sim):
            return (yield from client.get(999))

        proc = cluster.sim.process(app(cluster.sim))
        cluster.run()
        assert proc.value is None

    def test_collisions_resolved_by_probing(self):
        cluster, server, client = self._build(num_buckets=4)
        values = {k: bytes([k]) * 8 for k in (1, 2, 3, 4)}
        for k, v in values.items():
            server.put_local(k, v)

        def app(sim):
            out = {}
            for k in values:
                out[k] = yield from client.get(k)
            return out

        proc = cluster.sim.process(app(cluster.sim))
        cluster.run()
        assert proc.value == values
        assert client.stats.probes >= client.stats.gets  # some probing

    def test_get_latency_is_probes_times_read_rtt(self):
        cluster, server, client = self._build()
        server.put_local(7, b"v")

        def app(sim):
            yield from client.get(7)

        cluster.sim.process(app(cluster.sim))
        cluster.run()
        mean = client.stats.get_latency.mean
        # One probe => roughly one remote read RTT (sub-microsecond).
        assert 150 < mean < 1500

    def test_overwrite_updates_value(self):
        cluster, server, client = self._build()
        server.put_local(5, b"old")
        server.put_local(5, b"new")

        def app(sim):
            return (yield from client.get(5))

        proc = cluster.sim.process(app(cluster.sim))
        cluster.run()
        assert proc.value == b"new"
        assert server.entries == 1

    def test_put_timed_server_path(self):
        cluster, server, client = self._build()

        def server_app(sim):
            yield from server.put_timed(10, b"timed")

        def client_app(sim):
            yield cluster.sim.timeout(5000)  # let the server insert first
            return (yield from client.get(10))

        cluster.sim.process(server_app(cluster.sim))
        proc = cluster.sim.process(client_app(cluster.sim))
        cluster.run()
        assert proc.value == b"timed"

    def test_client_cas_put_roundtrip(self):
        cluster, server, client = self._build()
        slot = server.put_local(33, b"seed")

        def app(sim):
            ok = yield from client.put_cas(33, b"updated", slot)
            value = yield from client.get(33)
            return ok, value

        proc = cluster.sim.process(app(cluster.sim))
        cluster.run()
        ok, value = proc.value
        assert ok and value == b"updated"

    def test_key_zero_reserved(self):
        _cluster, server, _client = self._build()
        with pytest.raises(ValueError):
            server.put_local(0, b"nope")

    def test_value_size_limit(self):
        _cluster, server, _client = self._build()
        with pytest.raises(ValueError):
            server.put_local(1, bytes(60))
