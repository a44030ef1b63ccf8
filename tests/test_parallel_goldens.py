"""Bit-exactness goldens: parallel engine vs the serial engine.

The acceptance criterion of the parallel engine is not "approximately
the same" — with a fixed seed and partition plan, per-node telemetry
and workload results must be *bit-identical* to the serial engine at
every worker count. These tests run PageRank (bulk and fine-grain),
message-passing BFS, and a chaos scenario (link-fault injection plus a
crash/restart epoch) at 1, 2, and 4 workers and compare everything that
is model state. ``engine_stats`` (wall clock, sync rounds) is expressly
excluded — it is measurement, not model.

The 1-worker run goes through ``run_partitioned`` with a single-rank
plan, i.e. the plain serial engine on the same paired-flow-control
configuration: identical code paths, no window protocol.
"""

from __future__ import annotations

import pytest

from repro.apps.bfs import bfs_reference, run_bfs_push
from repro.apps.graph import zipf_graph
from repro.apps.pagerank import run_sonuma_bulk, run_sonuma_fine
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.scenario import ScenarioCluster, run_scenario
from repro.fabric.faults import FaultInjector, FaultPolicy
from repro.fabric.ni import FabricConfig
from repro.runtime.qp_api import RMCSession, RemoteOpFailed
from repro.sim import PartitionPlan, plan_from_spec, run_partitioned
from repro.telemetry import merge_snapshots, snapshot

NODES = 4
WORKER_COUNTS = (2, 4)


def _paired_config(num_nodes=NODES):
    return ClusterConfig(num_nodes=num_nodes,
                         fabric=FabricConfig(flow_control="paired"))


def _assert_snapshots_equal(got, want):
    """Everything that is model state must match; engine_stats (wall
    clock, rounds) is measurement and excluded by design."""
    assert got.time_ns == want.time_ns
    assert got.nodes == want.nodes
    assert got.fabric_stats == want.fabric_stats
    assert got.membership_stats == want.membership_stats


class TestPageRankGoldens:
    @pytest.fixture(scope="class")
    def graph(self):
        return zipf_graph(96, avg_degree=5, seed=11)

    @pytest.fixture(scope="class")
    def bulk_serial(self, graph):
        return run_sonuma_bulk(graph, NODES, supersteps=2,
                               cluster_config=_paired_config(),
                               workers=1)

    @pytest.fixture(scope="class")
    def fine_serial(self, graph):
        return run_sonuma_fine(graph, NODES, supersteps=2,
                               cluster_config=_paired_config(),
                               workers=1)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_bulk_bit_identical(self, graph, bulk_serial, workers):
        got = run_sonuma_bulk(graph, NODES, supersteps=2,
                              cluster_config=_paired_config(),
                              workers=workers, transport="inline")
        assert got.ranks == bulk_serial.ranks
        assert got.elapsed_ns == bulk_serial.elapsed_ns
        assert got.remote_reads == bulk_serial.remote_reads
        _assert_snapshots_equal(got.telemetry, bulk_serial.telemetry)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_fine_bit_identical(self, graph, fine_serial, workers):
        got = run_sonuma_fine(graph, NODES, supersteps=2,
                              cluster_config=_paired_config(),
                              workers=workers, transport="inline")
        assert got.ranks == fine_serial.ranks
        assert got.elapsed_ns == fine_serial.elapsed_ns
        assert got.remote_reads == fine_serial.remote_reads
        _assert_snapshots_equal(got.telemetry, fine_serial.telemetry)

    @pytest.mark.parametrize("transport", ["process", "shm"])
    def test_bulk_real_transport_bit_identical(self, graph, bulk_serial,
                                               transport):
        """Real forked worker processes — over pipes and over
        shared-memory rings — not the inline shortcut: the transport
        must not affect a single bit."""
        got = run_sonuma_bulk(graph, NODES, supersteps=2,
                              cluster_config=_paired_config(),
                              workers=2, transport=transport)
        assert got.ranks == bulk_serial.ranks
        assert got.elapsed_ns == bulk_serial.elapsed_ns
        _assert_snapshots_equal(got.telemetry, bulk_serial.telemetry)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_bulk_adaptive_plan_bit_identical(self, graph, bulk_serial,
                                              workers):
        """The profiled load-aware plan cuts the rack differently but
        must replay the exact same simulation."""
        got = run_sonuma_bulk(graph, NODES, supersteps=2,
                              cluster_config=_paired_config(),
                              workers=workers, partition="adaptive",
                              transport="inline")
        assert got.ranks == bulk_serial.ranks
        assert got.elapsed_ns == bulk_serial.elapsed_ns
        _assert_snapshots_equal(got.telemetry, bulk_serial.telemetry)

    def test_bulk_adaptive_shm_bit_identical(self, graph, bulk_serial):
        """Both new dimensions at once: adaptive plan over the shm
        transport."""
        got = run_sonuma_bulk(graph, NODES, supersteps=2,
                              cluster_config=_paired_config(),
                              workers=2, partition="adaptive",
                              transport="shm")
        assert got.ranks == bulk_serial.ranks
        assert got.elapsed_ns == bulk_serial.elapsed_ns
        _assert_snapshots_equal(got.telemetry, bulk_serial.telemetry)

    def test_default_shared_config_untouched(self, graph):
        """The serial default (shared flow control) is not re-routed
        through any parallel code path and keeps its historical timing
        behaviour class (different credit scheme => different timing is
        allowed; results must still be the correct ranks)."""
        shared = run_sonuma_bulk(graph, NODES, supersteps=2)
        paired = run_sonuma_bulk(graph, NODES, supersteps=2,
                                 cluster_config=_paired_config())
        assert shared.variant == paired.variant == "sonuma-bulk"
        assert shared.ranks == pytest.approx(paired.ranks)


class TestBFSGoldens:
    @pytest.fixture(scope="class")
    def graph(self):
        return zipf_graph(120, avg_degree=5, seed=13)

    @pytest.fixture(scope="class")
    def serial(self, graph):
        return run_bfs_push(graph, NODES, source=0,
                            cluster_config=_paired_config(), workers=1)

    def test_serial_matches_reference(self, graph, serial):
        assert serial.distances == bfs_reference(graph, 0)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_push_bit_identical(self, graph, serial, workers):
        got = run_bfs_push(graph, NODES, source=0,
                           cluster_config=_paired_config(),
                           workers=workers, transport="inline")
        assert got.distances == serial.distances
        assert got.elapsed_ns == serial.elapsed_ns
        assert got.messages == serial.messages
        assert got.levels == serial.levels
        _assert_snapshots_equal(got.telemetry, serial.telemetry)

    @pytest.mark.parametrize("transport", ["process", "shm"])
    def test_push_real_transport_bit_identical(self, graph, serial,
                                               transport):
        got = run_bfs_push(graph, NODES, source=0,
                           cluster_config=_paired_config(),
                           workers=2, transport=transport)
        assert got.distances == serial.distances
        assert got.elapsed_ns == serial.elapsed_ns
        _assert_snapshots_equal(got.telemetry, serial.telemetry)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_push_adaptive_plan_bit_identical(self, graph, serial,
                                              workers):
        got = run_bfs_push(graph, NODES, source=0,
                           cluster_config=_paired_config(),
                           workers=workers, partition="adaptive",
                           transport="inline")
        assert got.distances == serial.distances
        assert got.elapsed_ns == serial.elapsed_ns
        _assert_snapshots_equal(got.telemetry, serial.telemetry)


# ---------------------------------------------------------------------------
# Chaos: link faults + a crash/restart epoch, fully deterministic
# ---------------------------------------------------------------------------

HORIZON = 20_000.0
VICTIM = 1
CRASH_AT = 3_000.0
RESTART_AFTER = 5_000.0
CHAOS_SEED = 77


def _chaos_build(rank, plan):
    """A rack under fire: every node polls every peer with small reads
    while links drop 2% of frames and node 1 fail-stops mid-run and
    reboots. Apps stay alive to the horizon so every rank's clock runs
    to the same end time. The retransmission watchdog is tightened so
    reads into the dead window fail within the horizon instead of
    hanging on the default 100 us timeout."""
    from repro.node.node import NodeConfig
    from repro.rmc.rmc import RMCConfig

    config = ClusterConfig(
        num_nodes=NODES,
        node=NodeConfig(rmc=RMCConfig(retransmit_timeout_ns=1_000.0,
                                      max_retries=2)),
        fabric=FabricConfig(flow_control="paired"))
    cluster = Cluster(config=config, partition=plan, rank=rank)
    cluster.fabric.install_fault_injector(FaultInjector(
        seed=CHAOS_SEED, per_link_streams=True,
        default_policy=FaultPolicy(drop_prob=0.02)))
    controller = cluster.fault_controller(seed=CHAOS_SEED)
    controller.schedule_crash(VICTIM, at_ns=CRASH_AT,
                              restart_after_ns=RESTART_AFTER)
    gctx = cluster.create_global_context(1, 1 << 20)
    sim = cluster.sim
    log = []

    def app(n):
        session = RMCSession(cluster.nodes[n].core, gctx.qp(n),
                             gctx.entry(n))
        lbuf = session.alloc_buffer(4096)
        while sim.now < HORIZON:
            for peer in range(NODES):
                if peer == n:
                    continue
                try:
                    yield from session.read_sync(peer, 64 * n, lbuf, 128)
                    log.append((sim.now, n, peer, "ok"))
                except RemoteOpFailed:
                    log.append((sim.now, n, peer, "fail"))
                except RuntimeError as exc:
                    # e.g. issuing on a halted/rebooted RMC: still a
                    # deterministic, logged outcome.
                    log.append((sim.now, n, peer,
                                f"err:{type(exc).__name__}"))
            yield sim.timeout(200.0 + 50.0 * n)

    for n in plan.nodes_of(rank):
        sim.process(app(n), name=f"chaos{n}")

    def finalize():
        return {"snap": snapshot(cluster), "log": log,
                "timeline": controller.timeline(),
                "stats": controller.stats()}

    return sim, cluster.fabric, finalize


def _run_chaos(workers, transport="inline", partition="contiguous"):
    if partition == "adaptive" and workers > 1:
        plan = plan_from_spec("adaptive", _chaos_build, NODES, workers,
                              profile_until=HORIZON / 4)
    else:
        plan = PartitionPlan.contiguous(NODES, workers)
    run = run_partitioned(_chaos_build, plan, until=HORIZON,
                          transport=transport)
    parts = [run.results[r] for r in sorted(run.results)]
    snap = merge_snapshots([p["snap"] for p in parts])
    log = sorted(sum((p["log"] for p in parts), []))
    timeline = sorted(
        (e for p in parts for e in p["timeline"]),
        key=lambda e: (e["time_ns"], e["kind"], e["node_id"]))
    crashes = sum(p["stats"]["crashes"] for p in parts)
    restarts = sum(p["stats"]["restarts"] for p in parts)
    return run, snap, log, timeline, (crashes, restarts)


class TestChaosGolden:
    @pytest.fixture(scope="class")
    def serial(self):
        return _run_chaos(1)

    def test_scenario_exercises_faults(self, serial):
        _run, snap, log, timeline, (crashes, restarts) = serial
        assert crashes == 1 and restarts == 1
        assert [e["kind"] for e in timeline] == ["crash", "restart"]
        assert any(entry[3] != "ok" for entry in log)
        assert snap.fabric_stats["fault_drops"] > 0
        assert snap.time_ns == HORIZON

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_chaos_bit_identical(self, serial, workers):
        base_run, base_snap, base_log, base_tl, base_counts = serial
        run, snap, log, timeline, counts = _run_chaos(workers)
        assert run.final_time == base_run.final_time
        assert log == base_log
        assert timeline == base_tl
        assert counts == base_counts
        _assert_snapshots_equal(snap, base_snap)

    @pytest.mark.parametrize("transport", ["process", "shm"])
    def test_chaos_real_transport_bit_identical(self, serial, transport):
        _base_run, base_snap, base_log, base_tl, _counts = serial
        _run, snap, log, timeline, _ = _run_chaos(2, transport=transport)
        assert log == base_log
        assert timeline == base_tl
        _assert_snapshots_equal(snap, base_snap)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_chaos_adaptive_plan_bit_identical(self, serial, workers):
        """Crash/restart epochs and fault injection under a profiled
        load-aware cut of the rack: still the exact same simulation
        (the profiling pre-run must not leak state into the real run)."""
        _base_run, base_snap, base_log, base_tl, base_counts = serial
        _run, snap, log, timeline, counts = _run_chaos(
            workers, partition="adaptive")
        assert log == base_log
        assert timeline == base_tl
        assert counts == base_counts
        _assert_snapshots_equal(snap, base_snap)


# ---------------------------------------------------------------------------
# Membership: a crash evicts the victim, its restart rejoins it
# ---------------------------------------------------------------------------

MEMBERSHIP_SETUP = ScenarioCluster(
    config=_paired_config(), ctx_id=1, segment_size=4096,
    hb_interval_ns=2_000.0, lease_ns=6_000.0, fault_seed=CHAOS_SEED,
    crashes=((VICTIM, CRASH_AT, 10_000.0),))


def _membership_build(rank, plan):
    """Membership services are daemons: a ticker keeps every rank's
    clock running to the horizon so the eviction and rejoin land."""
    cluster, _gctx = MEMBERSHIP_SETUP.instantiate(rank, plan)
    sim = cluster.sim

    def ticker():
        while sim.now < HORIZON:
            yield sim.timeout(500.0)

    sim.process(ticker(), name="ticker")
    return sim, cluster.fabric, lambda: snapshot(cluster)


def _run_membership(workers):
    run = run_scenario(_membership_build, NODES, workers, "contiguous",
                       "inline")
    return merge_snapshots([run.results[r] for r in sorted(run.results)])


class TestMembershipGolden:
    def test_merged_membership_stats_match_serial(self):
        serial = _run_membership(1)
        assert serial.membership_stats["evictions"] == 1
        assert serial.membership_stats["rejoins"] == 1
        _assert_snapshots_equal(_run_membership(2), serial)
