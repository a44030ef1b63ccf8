"""Partitionable replicated/coded KV failover scenario.

The node-failure tests exercise the fault-tolerant KV stack
(:class:`~repro.apps.kvstore.ReplicatedKVServer`,
:class:`~repro.apps.kvstore.CodedKVServer`,
:class:`~repro.apps.kvstore.FailoverKVClient`) on a serial cluster.
This module packages the same scenario as a *harness* that also runs on
the conservative parallel engine: the cluster is split across worker
processes with :func:`~repro.cluster.scenario.run_scenario`, the client
and the primary typically land on different ranks, and every GET/PUT
crosses the partition cut as one-sided fabric traffic.

Roles are fixed by node id — node 0 is the GET client, node 1 the
primary, nodes 2.. the backups (full replicas in ``replicated`` mode,
one coded shard each in ``coded`` mode). The timeline is deterministic
and replayed identically on every rank:

* ``t = 0``: the primary inserts ``num_keys`` keys, each acked only
  after full replication (or after every shard write);
* ``crash_primary_at_ns`` (optional): the replicated fault controller
  kills the primary on whichever rank owns it; the scheduled membership
  service evicts it one lease later on *every* rank;
* ``gets_start_ns``..``gets_end_ns``: the client cycles GETs through
  the key set, failing over (or falling back to degraded shard reads)
  when the primary dies, then reads back every key once.

Because faults, membership transitions, and all data-path traffic are
partition-invariant, the merged ``outcome`` dict is bit-identical for
any worker count and any transport — that is what the parity tests
assert.
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..cluster.cluster import ClusterConfig
from ..cluster.scenario import (ScenarioCluster, merge_outcomes,
                                paired_config, run_scenario)
from ..resilience.coding import XORCode
from ..runtime.qp_api import RemoteOpFailed, RMCSession
from ..vm.address import PAGE_SIZE
from .kvstore import CodedKVServer, FailoverKVClient, ReplicatedKVServer

__all__ = ["run_kv_failover", "KV_CLIENT", "KV_PRIMARY"]

_KV_CTX = 2

#: Fixed role assignment: node 0 issues GETs, node 1 owns the table.
KV_CLIENT = 0
KV_PRIMARY = 1


def _value_of(key: int) -> bytes:
    return bytes([key % 251]) * 8


def run_kv_failover(num_nodes: int = 3,
                    workers: int = 1,
                    transport: Optional[str] = None,
                    partition="contiguous",
                    mode: str = "replicated",
                    num_keys: int = 12,
                    num_buckets: int = 64,
                    hb_interval_ns: float = 2_000.0,
                    lease_ns: float = 6_000.0,
                    fault_seed: int = 0,
                    crash_primary_at_ns: Optional[float] = None,
                    restart_after_ns: Optional[float] = None,
                    gets_start_ns: float = 20_000.0,
                    gets_end_ns: float = 80_000.0) -> dict:
    """Run the failover scenario; returns ``{"outcome", "perf"}``.

    ``outcome`` holds only deterministic, partition-invariant facts
    (final key->value map, availability counters, membership counters,
    ack counts, the final simulated time) and compares equal across
    worker counts and transports. ``perf`` holds the wall-clock side
    (coordinator rounds, per-rank busy/blocked seconds, transport).
    """
    if num_nodes < 3:
        raise ValueError("the failover scenario needs >= 3 nodes "
                         "(client, primary, at least one backup)")
    backups = list(range(2, num_nodes))
    if mode == "coded":
        if len(backups) < 2:
            raise ValueError("coded mode needs >= 2 shard holders "
                             "(num_nodes >= 4)")
        code = XORCode(len(backups) - 1)
    elif mode == "replicated":
        code = None
    else:
        raise ValueError(f"unknown mode {mode!r}")
    crashes = ()
    if crash_primary_at_ns is not None:
        crashes = ((KV_PRIMARY, crash_primary_at_ns, restart_after_ns),)
    keys = {k: _value_of(k) for k in range(1, num_keys + 1)}
    setup = ScenarioCluster(
        config=paired_config(ClusterConfig(num_nodes=num_nodes), num_nodes),
        ctx_id=_KV_CTX, segment_size=64 * PAGE_SIZE,
        hb_interval_ns=hb_interval_ns, lease_ns=lease_ns,
        fault_seed=fault_seed, crashes=crashes)

    def build(rank, plan):
        cluster, gctx = setup.instantiate(rank, plan)
        sim = cluster.sim
        membership = cluster.membership
        sessions = {
            node.node_id: RMCSession(node.core, gctx.qp(node.node_id),
                                     gctx.entry(node.node_id))
            for node in cluster.nodes
        }
        out = {}

        if KV_PRIMARY in sessions:
            if code is None:
                server = ReplicatedKVServer(sessions[KV_PRIMARY],
                                            backups=backups,
                                            num_buckets=num_buckets)
                put = server.put_replicated
            else:
                server = CodedKVServer(sessions[KV_PRIMARY],
                                       backups=backups, code=code,
                                       num_buckets=num_buckets)
                put = server.put_coded

            def server_proc(sim):
                for k, v in keys.items():
                    yield from put(k, v)
                out["puts_done_ns"] = sim.now
                out["puts_acked"] = server.puts_acked
                out["replica_writes"] = server.replica_writes

            sim.process(server_proc(sim), name="kv-primary")

        if KV_CLIENT in sessions:
            replicas = ([KV_PRIMARY] + backups if code is None
                        else [KV_PRIMARY])
            client = FailoverKVClient(sessions[KV_CLIENT], replicas,
                                      num_buckets=num_buckets,
                                      membership=membership,
                                      code=code,
                                      shard_nids=backups if code else ())

            def client_proc(sim):
                yield sim.timeout(gets_start_ns - sim.now)
                cycle = itertools.cycle(keys)
                reads = wrong = unavailable = 0
                while sim.now < gets_end_ns:
                    k = next(cycle)
                    try:
                        v = yield from client.get(k)
                    except RemoteOpFailed:
                        unavailable += 1
                        continue
                    reads += 1
                    if v != keys[k]:
                        wrong += 1
                final = {}
                for k in keys:
                    try:
                        final[k] = yield from client.get(k)
                    except RemoteOpFailed:
                        final[k] = None
                out["final"] = final
                out["reads"] = reads
                out["wrong"] = wrong
                out["unavailable"] = unavailable
                out["availability"] = client.availability.as_dict()
                out["active_replica"] = client.active_replica

            sim.process(client_proc(sim), name="kv-client")

        def finalize():
            out["membership"] = {"evictions": membership.evictions,
                                 "rejoins": membership.rejoins}
            return out

        return sim, cluster.fabric, finalize

    run = run_scenario(build, num_nodes, workers, partition, transport)
    merged = {"final_time": run.final_time, "mode": mode,
              "num_nodes": num_nodes,
              **merge_outcomes(run.results)}
    if merged.get("puts_done_ns", 0.0) > gets_start_ns:
        raise RuntimeError(
            f"PUT phase ran until {merged['puts_done_ns']} ns, past "
            f"gets_start_ns={gets_start_ns}; widen the gap to keep the "
            f"scenario's phases time-ordered")
    merged["values_ok"] = merged.get("final") == keys
    return {"outcome": merged, "perf": run.perf()}
