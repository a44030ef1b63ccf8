"""Partitionable million-client serving scenario.

The serving tier glued together: a :class:`~.hashring.ShardMap` places
``num_shards`` KV shards on dedicated primary nodes (node ``1 + s`` for
shard ``s``) with ``replication`` copies (each shard's backups live on
the next shards' primaries, so every node holds its own table plus
``replication - 1`` backup tables at per-shard region offsets). Node 0
is the front end: one :class:`~.pipeline.PipelinedShardClient` per
shard — the paper's one-QP-per-core model (§4.3) — drives the open-loop
Zipf/Poisson trace from :mod:`~.loadgen`, multiplexing the logical
client population over pipelined, doorbell-batched sessions.

Like the other harnesses (:func:`~repro.apps.kv_harness.run_kv_failover`,
BSP), the same scenario runs serially or split across worker processes
with :func:`~repro.cluster.scenario.run_scenario`. Everything the
``outcome`` dict reports is a pure function of the arguments: the trace
is regenerated identically on every rank, table preloads are
deterministic, membership transitions replay from the replicated fault
schedule, and the latency histograms count integers — so the merged
outcome is bit-identical for any worker count and transport, including
chaos runs that crash a shard primary mid-trace.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..apps.kvlayout import BUCKET_BYTES, build_table
from ..cluster.cluster import ClusterConfig
from ..cluster.scenario import (LinkFlaps, ScenarioCluster, merge_outcomes,
                                paired_config, probe_deadline, run_scenario)
from ..node.node import NodeConfig
from ..rmc.rmc import RMCConfig
from ..runtime.qp_api import RMCSession
from ..telemetry import LogLinearHistogram
from ..transport import (DegradationTimeline, HealthConfig, MemoryStore,
                         TransportStack, build_transport)
from ..vm.address import PAGE_SIZE
from .hashring import ShardMap
from .loadgen import (TraceConfig, generate_trace, split_by_shard,
                      trace_digest, value_of_key)
from .pipeline import PipelinedShardClient

__all__ = ["run_serving", "SERVING_CLIENT"]

_SERVING_CTX = 3

#: Node 0 is the front end; node ``1 + s`` is shard ``s``'s primary.
SERVING_CLIENT = 0


def run_serving(num_shards: int = 2,
                replication: int = 2,
                rate_mops: float = 4.0,
                duration_ns: float = 40_000.0,
                window: int = 32,
                batch: int = 8,
                num_clients: int = 1_000_000,
                num_keys: int = 256,
                num_buckets: int = 512,
                zipf_s: float = 0.99,
                seed: int = 1234,
                vnodes: int = 128,
                max_probes: int = 16,
                workers: int = 1,
                transport: Optional[str] = None,
                partition="contiguous",
                crash_shard: Optional[int] = None,
                crash_at_ns: Optional[float] = None,
                restart_after_ns: Optional[float] = None,
                hb_interval_ns: float = 2_000.0,
                lease_ns: float = 6_000.0,
                fault_seed: int = 0,
                failover: Optional[str] = None,
                failover_backends: Sequence[str] = ("sonuma", "rdma",
                                                    "shm"),
                flap_at_ns: Optional[float] = None,
                flap_cycles: int = 1,
                flap_period_ns: float = 15_000.0,
                flap_down_ns: float = 6_000.0,
                probe_interval_ns: float = 1_500.0,
                retransmit_timeout_ns: Optional[float] = None,
                max_retries: Optional[int] = None) -> dict:
    """Run the serving scenario; returns ``{"outcome", "perf"}``.

    ``outcome`` holds only deterministic, partition-invariant facts:
    the trace digest, per-shard serving reports (served/failed counts,
    availability, failover counters, latency quantiles, doorbell
    amortization), the merged cluster histogram, and membership
    counters. ``perf`` holds the wall-clock side of the parallel run.

    ``crash_shard`` (with ``crash_at_ns``) kills that shard's primary
    mid-trace: in-flight GETs error-complete, the scheduled membership
    service evicts the node one lease later on every rank, and the
    pipelined clients fail over to the backups — the SLO impact shows
    up in the shard's tail quantiles and failover counters.

    ``failover`` (a policy name: ``fail-fast`` / ``hysteresis`` /
    ``hedged``) opts the front end into the multi-transport stack: a
    probe session watches the soNUMA fabric's health, and while the
    fabric is dark the pipelined clients serve GETs over the degraded
    backends (``failover_backends``) instead of failing them.
    ``flap_at_ns`` schedules ``flap_cycles`` full outages of every
    front-end link (each ``flap_down_ns`` long, one per
    ``flap_period_ns``) — the chaos scenario that shows availability
    holding at degraded throughput.
    """
    if num_shards < 1:
        raise ValueError("need at least one shard")
    if not 1 <= replication <= num_shards:
        raise ValueError(
            f"replication {replication} out of range 1..{num_shards}")
    if crash_shard is not None:
        if not 0 <= crash_shard < num_shards:
            raise ValueError(f"crash_shard {crash_shard} out of range")
        if crash_at_ns is None:
            raise ValueError("crash_shard needs crash_at_ns")
        if replication < 2:
            raise ValueError("chaos runs need replication >= 2 "
                             "(otherwise the shard is just gone)")

    if failover is None and flap_at_ns is not None:
        raise ValueError("flap_at_ns needs failover=<policy>")
    if failover is not None \
            and (not failover_backends
                 or failover_backends[0] != "sonuma"):
        raise ValueError("the soNUMA fabric must be the priority-0 "
                         "failover backend")

    num_nodes = 1 + num_shards
    shard_map = ShardMap({s: 1 + s for s in range(num_shards)},
                         replication=replication, vnodes=vnodes)
    region_bytes = num_buckets * BUCKET_BYTES
    segment_size = -(-num_shards * region_bytes // PAGE_SIZE) * PAGE_SIZE

    # The workload: pure functions of the seed, regenerated identically
    # on every rank (what makes the outcome worker-count-invariant).
    trace_config = TraceConfig(rate_mops=rate_mops,
                               duration_ns=duration_ns,
                               num_clients=num_clients,
                               num_keys=num_keys, zipf_s=zipf_s,
                               seed=seed)
    trace = generate_trace(trace_config)
    digest = trace_digest(trace)
    shard_traces = split_by_shard(trace, shard_map.shard_of)
    expected = {k: value_of_key(k) for k in range(1, num_keys + 1)}
    shard_keys = {s: {} for s in range(num_shards)}
    for key, value in expected.items():
        shard_keys[shard_map.shard_of(key)][key] = value
    tables = {s: build_table(shard_keys[s], num_buckets, max_probes)
              for s in range(num_shards)}

    crashes = ()
    if crash_shard is not None:
        crashes = ((shard_map.shard_nodes[crash_shard], crash_at_ns,
                    restart_after_ns),)

    # A flapping fabric needs snappy error completions (the stock
    # 100 us retransmit budget would outlast the whole trace); explicit
    # values always win, failover mode tightens the defaults, and a
    # plain run keeps the stock config bit-for-bit.
    rmc_kwargs = {"doorbell_batch": max(1, batch)}
    if retransmit_timeout_ns is not None:
        rmc_kwargs["retransmit_timeout_ns"] = retransmit_timeout_ns
    elif failover is not None:
        rmc_kwargs["retransmit_timeout_ns"] = 1_500.0
    if max_retries is not None:
        rmc_kwargs["max_retries"] = max_retries
    elif failover is not None:
        rmc_kwargs["max_retries"] = 1

    flaps = None
    if flap_at_ns is not None:
        flaps = LinkFlaps(hub=SERVING_CLIENT, start_ns=flap_at_ns,
                          cycles=flap_cycles, period_ns=flap_period_ns,
                          down_ns=flap_down_ns)
    probe_until = probe_deadline(duration_ns, flaps)
    # Each holder node gets its shard tables at the per-shard region
    # offset (identical geometry on every replica, so one bucket offset
    # works against any of them).
    preload = [(nid, s * region_bytes, tables[s])
               for s in range(num_shards)
               for nid in shard_map.replica_nodes(s)]
    setup = ScenarioCluster(
        config=paired_config(
            ClusterConfig(num_nodes=num_nodes,
                          node=NodeConfig(rmc=RMCConfig(**rmc_kwargs))),
            num_nodes),
        ctx_id=_SERVING_CTX, segment_size=segment_size,
        hb_interval_ns=hb_interval_ns, lease_ns=lease_ns,
        fault_seed=fault_seed,
        qps_per_node=num_shards + (1 if failover is not None else 0),
        crashes=crashes, flaps=flaps, preload=preload)

    def build(rank, plan):
        cluster, gctx = setup.instantiate(rank, plan)
        sim = cluster.sim
        membership = cluster.membership
        out = {}
        clients: List[PipelinedShardClient] = []

        stack = None
        timeline = None
        if SERVING_CLIENT in cluster.nodes:
            node = cluster.nodes[SERVING_CLIENT]
            if failover is not None:
                # The probe session rides its own QP so health checks
                # never contend with the serving windows; the mirror
                # holds every shard table at the same region geometry
                # the real replicas use.
                probe_session = RMCSession(
                    node.core, gctx.qp(SERVING_CLIENT, index=num_shards),
                    gctx.entry(SERVING_CLIENT))
                store = MemoryStore()
                for nid, offset, data in preload:
                    store.write(nid, offset, data)
                transports = [
                    build_transport(name, sim, store, seed=seed,
                                    session=probe_session)
                    for name in failover_backends]
                timeline = DegradationTimeline()
                stack = TransportStack(
                    sim, transports, policy=failover,
                    membership=membership,
                    health=HealthConfig(
                        probe_interval_ns=probe_interval_ns),
                    timeline=timeline)
                stack.start_probes(list(range(1, num_nodes)),
                                   probe_until)
                cluster.transports[SERVING_CLIENT] = stack
            for s in range(num_shards):
                session = RMCSession(node.core,
                                     gctx.qp(SERVING_CLIENT, index=s),
                                     gctx.entry(SERVING_CLIENT))
                client = PipelinedShardClient(
                    session, shard=s,
                    replicas=shard_map.replica_nodes(s),
                    num_buckets=num_buckets,
                    table_offset=s * region_bytes,
                    window=window, batch=batch, max_probes=max_probes,
                    membership=membership,
                    expected=shard_keys[s],
                    failover_stack=stack)
                clients.append(client)
                sim.process(client.serve(shard_traces.get(s, [])),
                            name=f"serve-shard{s}")

        def finalize():
            if clients:
                reports = {c.shard: c.report() for c in clients}
                merged_hist = LogLinearHistogram(name="cluster-get")
                for c in clients:
                    merged_hist.merge(c.histogram)
                served = sum(c.availability.gets_ok for c in clients)
                failed = sum(c.availability.gets_failed for c in clients)
                starts = [c.first_arrival_ns for c in clients
                          if c.first_arrival_ns is not None]
                ends = [c.last_completion_ns for c in clients]
                span = (max(ends) - min(starts)) if starts else 0.0
                out["shards"] = reports
                out["latency"] = merged_hist.as_dict()
                out["served"] = served
                out["failed"] = failed
                out["availability"] = (served / (served + failed)
                                       if served + failed else 1.0)
                out["wrong"] = sum(c.wrong for c in clients)
                out["doorbells"] = sum(c.session.qp.wq.doorbells
                                       for c in clients)
                out["posted"] = sum(c.session.qp.wq.posted_total
                                    for c in clients)
                out["served_mops"] = (served / span * 1e3
                                      if span > 0 else 0.0)
                out["degraded_reads"] = sum(
                    c.availability.degraded_reads for c in clients)
                if stack is not None:
                    out["transport"] = stack.stats()
                    out["timeline"] = timeline.as_list()
            out["membership"] = {"evictions": membership.evictions,
                                 "rejoins": membership.rejoins}
            return out

        return sim, cluster.fabric, finalize

    run = run_scenario(build, num_nodes, workers, partition, transport)
    merged = {
        "final_time": run.final_time,
        "num_shards": num_shards,
        "replication": replication,
        "num_requests": len(trace),
        "logical_clients": num_clients,
        "distinct_clients": len({r.client_id for r in trace}),
        "trace_digest": digest,
        "shard_map_version": shard_map.version,
        **merge_outcomes(run.results),
    }
    if "served" in merged \
            and merged["served"] + merged["failed"] != len(trace):
        raise RuntimeError(
            f"served {merged['served']} + failed {merged['failed']} != "
            f"{len(trace)} requests: the serve loop dropped arrivals")
    return {"outcome": merged, "perf": run.perf()}
