"""A mini-Pregel: Bulk Synchronous Processing over soNUMA.

The paper frames its application study in the BSP model [57] and
attributes the bulk variant's communication pattern to Pregel [35]:
"every node computes its own portion of the dataset (range of vertices)
and then synchronizes with other participants, before proceeding with
the next iteration (so-called superstep). ... This implementation
leverages aggregation mechanisms and exchanges ranks between nodes at
the end of each superstep, after the barrier."

:class:`BSPEngine` packages that pattern as a reusable framework:

* vertex state lives in each owner's context segment (one fixed-size
  record per vertex, two epochs for double buffering);
* each superstep starts with a barrier, pulls every peer's partition
  with one multi-line ``rmc_read_async`` per peer (the bisection-
  bandwidth-limited shuffle), then runs the user's *vertex program*
  against local + mirrored state;
* a vertex program is a plain object with ``init(vertex) -> value`` and
  ``update(vertex, neighbor_values) -> value``; the engine handles
  packing, mirrors, epochs, and convergence (stop when no vertex
  changed, decided collectively).

Two programs ship with the engine: :class:`PageRankProgram`
(cross-checked against :func:`repro.apps.graph.pagerank_reference`) and
:class:`MinLabelProgram` (connected components via label propagation).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence, Set, Tuple

from ..cluster.cluster import Cluster, ClusterConfig
from ..cluster.scenario import check_finished, paired_config, run_scenario
from ..resilience.checkpoint import HEADER_BYTES, StripedCheckpointStore
from ..resilience.coding import parse_checkpoint_mode
from ..runtime.barrier import Barrier, NodeEvicted, RankFailed
from ..runtime.qp_api import RemoteOpFailed, RMCSession
from ..sim import PartitionError, PartitionPlan
from .graph import Graph, partition_random

__all__ = ["VertexProgram", "BSPEngine", "BSPResult",
           "FaultTolerantBSPEngine", "PageRankProgram", "MinLabelProgram"]

_CTX = 1

#: One cache line per vertex: value[epoch 0] f64, value[epoch 1] f64,
#: auxiliary u64 (program-defined; PageRank stores the out-degree).
RECORD_BYTES = 64

#: Fabric-carried FT-BSP control words (partitioned runs only): one
#: cache line each, offsets relative to the engine's ``ctrl_base``.
#: Every word lives in its writer's own segment (single-writer rule);
#: peers read it with one-sided ``read_sync`` over the fabric, so the
#: protocol is identical no matter which rank simulates which node.
_CTRL_FLAG = 0         # u64: 1 + last superstep at which this node changed
_CTRL_VERDICT = 64     # u64: ((step+1) << 1) | proceed, decider-written
_CTRL_ARRIVED = 128    # u64: 1 + barrier generation at the rendezvous
_CTRL_DURABLE = 192    # u64: 1 + durable local checkpoint header
_CTRL_ADOPT_DUR = 256  # u64: 1 + durable peer-region header
_CTRL_PLAN = 320       # 3 x u64: (dead-mask << 1) | 1, restore, generation
_CTRL_FINISHED = 384   # u64: 1 once this node returned successfully


class VertexProgram(Protocol):
    """User-supplied per-vertex logic (duck-typed protocol)."""

    #: Computation charged per in-edge scanned (ns).
    edge_compute_ns: float
    #: Computation charged per vertex update (ns).
    vertex_compute_ns: float

    def init(self, graph: Graph, vertex: int) -> float:
        """Initial value of a vertex."""

    def aux(self, graph: Graph, vertex: int) -> int:
        """Per-vertex auxiliary integer packed alongside the value."""

    def update(self, graph: Graph, vertex: int,
               neighbor_values: Sequence[tuple]) -> float:
        """New value from [(value, aux), ...] of the in-neighbors."""


@dataclass
class BSPResult:
    """Outcome of a BSP run."""

    values: List[float]
    supersteps_run: int
    elapsed_ns: float
    converged: bool
    remote_reads: int
    #: Fault-tolerant runs only: crash-recovery rounds executed.
    recoveries: int = 0
    #: Fault-tolerant runs only: checkpoints taken (across all ranks).
    checkpoints: int = 0


class PageRankProgram:
    """The paper's PageRank update as a vertex program."""

    edge_compute_ns = 2.0
    vertex_compute_ns = 3.0

    def __init__(self, damping: float = 0.85):
        self.damping = damping

    def init(self, graph: Graph, vertex: int) -> float:
        return 1.0 / graph.num_vertices

    def aux(self, graph: Graph, vertex: int) -> int:
        return graph.out_degree[vertex]

    def update(self, graph: Graph, vertex: int, neighbor_values) -> float:
        total = 0.0
        for value, out_degree in neighbor_values:
            total += value / out_degree
        return (1.0 - self.damping) / graph.num_vertices \
            + self.damping * total


class MinLabelProgram:
    """Connected components by minimum-label propagation.

    Treats edges as undirected for labeling purposes would require
    reverse adjacency; over in-neighbors alone this computes the
    minimum label reachable *forward* into each vertex — the classic
    label-propagation building block. Converges when no label changes.
    """

    edge_compute_ns = 1.5
    vertex_compute_ns = 2.0

    def init(self, graph: Graph, vertex: int) -> float:
        return float(vertex)

    def aux(self, graph: Graph, vertex: int) -> int:
        return 1

    def update(self, graph: Graph, vertex: int, neighbor_values) -> float:
        best = float(vertex)
        for value, _aux in neighbor_values:
            if value < best:
                best = value
        return best


def _pack(value0: float, value1: float, aux: int) -> bytes:
    body = struct.pack("<ddQ", value0, value1, aux)
    return body + bytes(RECORD_BYTES - len(body))


def _unpack(raw: bytes):
    return struct.unpack_from("<ddQ", raw)


class BSPEngine:
    """Runs a vertex program over a partitioned graph on a cluster."""

    def __init__(self, graph: Graph, num_nodes: int,
                 cluster_config: Optional[ClusterConfig] = None,
                 seed: int = 7, plan: Optional[PartitionPlan] = None,
                 rank: int = 0):
        self.graph = graph
        self.num_nodes = num_nodes
        self.partition = partition_random(graph, num_nodes, seed=seed)
        #: Parallel-engine partition plan (None for a serial cluster).
        #: Per-rank instances own only ``plan.nodes_of(rank)``.
        self.plan = plan
        self.rank = rank
        max_part = max(len(m) for m in self.partition.members)
        segment = self._segment_bytes(max_part)
        self.cluster = Cluster(config=cluster_config
                               or ClusterConfig(num_nodes=num_nodes),
                               partition=plan, rank=rank)
        self.owned = (list(plan.nodes_of(rank)) if plan is not None
                      else list(range(num_nodes)))
        self.gctx = self.cluster.create_global_context(_CTX, segment)
        self.sessions = {
            n: RMCSession(self.cluster.nodes[n].core, self.gctx.qp(n),
                          self.gctx.entry(n))
            for n in self.owned
        }
        self.barriers = {
            n: Barrier(self.sessions[n], n, list(range(num_nodes)))
            for n in self.owned
        }

    def _segment_bytes(self, max_part: int) -> int:
        """Per-node context segment size (subclasses add regions)."""
        return max_part * RECORD_BYTES + (1 << 20)

    def _record_offset(self, vertex: int) -> int:
        return self.partition.local_index[vertex] * RECORD_BYTES

    def _init_records(self, program: VertexProgram, rank: int,
                      home_nid: int, base_offset: int) -> None:
        graph = self.graph
        for vertex in self.partition.members[rank]:
            self.cluster.poke_segment(
                home_nid, _CTX, base_offset + self._record_offset(vertex),
                _pack(program.init(graph, vertex), 0.0,
                      program.aux(graph, vertex)))

    def _alloc_mirrors(self, session: RMCSession,
                       node_id: int) -> Dict[int, int]:
        """One landing buffer per peer partition for the shuffle."""
        return {
            r: session.alloc_buffer(
                max(len(self.partition.members[r]), 1) * RECORD_BYTES)
            for r in range(self.num_nodes) if r != node_id
        }

    def _superstep(self, program: VertexProgram, node_id: int,
                   session: RMCSession, mirrors: Dict[int, int],
                   partition_home: Dict[int, Tuple[int, int]], step: int,
                   tolerance: float, remote_reads: List[int],
                   mark_changed):
        """Timed coroutine: one superstep on ``node_id`` — pull every
        partition homed elsewhere (``partition_home[rank]`` is its
        ``(node, base offset)``) into its mirror with one bulk read
        each, then update every partition homed here, calling
        ``mark_changed()`` whenever a value moves by more than
        ``tolerance``."""
        graph, partition = self.graph, self.partition
        core = session.core
        space = session.space
        seg_base = session.ctx.segment.base_vaddr
        # Shuffle: one bulk read per remote-homed partition, overlapped.
        for r in range(self.num_nodes):
            home, base = partition_home[r]
            if home == node_id:
                continue
            nbytes = len(partition.members[r]) * RECORD_BYTES
            if nbytes == 0:
                continue
            yield from session.wait_for_slot()
            yield from session.read_async(home, base, mirrors[r], nbytes)
            remote_reads[0] += 1
        yield from session.drain_cq()
        session.raise_errors()   # never compute on stale mirrors

        read_at = step % 2
        write_off = 8 * ((step + 1) % 2)
        for rank in range(self.num_nodes):
            home, base = partition_home[rank]
            if home != node_id:
                continue
            for vertex in partition.members[rank]:
                yield core.compute(program.vertex_compute_ns)
                inputs = []
                for u in graph.in_neighbors[vertex]:
                    owner = partition.owner[u]
                    o_home, o_base = partition_home[owner]
                    rel = self._record_offset(u)
                    if o_home == node_id:
                        vaddr = seg_base + o_base + rel
                    else:
                        vaddr = mirrors[owner] + rel
                    raw = yield from core.mem_read(space, vaddr, 24)
                    vals = _unpack(raw)
                    inputs.append((vals[read_at], vals[2]))
                    yield core.compute(program.edge_compute_ns)
                new_value = program.update(graph, vertex, inputs)
                rec_vaddr = seg_base + base + self._record_offset(vertex)
                old_value = _unpack(session.buffer_peek(
                    rec_vaddr, 24))[read_at]
                if abs(new_value - old_value) > tolerance:
                    mark_changed()
                yield from core.mem_write(space, rec_vaddr + write_off,
                                          struct.pack("<d", new_value))

    def run(self, program: VertexProgram, max_supersteps: int,
            stop_on_convergence: bool = True,
            tolerance: float = 0.0) -> BSPResult:
        """Execute up to ``max_supersteps`` supersteps of ``program``."""
        graph, partition = self.graph, self.partition
        cluster = self.cluster
        sim = cluster.sim

        for node_id in range(self.num_nodes):
            self._init_records(program, node_id, node_id, 0)

        remote_reads = [0]
        steps_run = [0]
        # changed[n] flags per superstep. Node 0 alone turns them into
        # the collective proceed/stop decision between the two barriers
        # that frame each superstep start, so every worker sees the same
        # verdict (single-writer rule; no read/write races).
        changed: Dict[int, bool] = {n: True for n in range(self.num_nodes)}
        proceed = [True]

        home = {n: (n, 0) for n in range(self.num_nodes)}

        def worker(node_id: int):
            session = self.sessions[node_id]
            barrier = self.barriers[node_id]
            mirrors = self._alloc_mirrors(session, node_id)

            def mark_changed():
                changed[node_id] = True

            for step in range(max_supersteps):
                yield from barrier.wait()          # changed[] is final
                if node_id == 0:
                    proceed[0] = any(changed[n]
                                     for n in range(self.num_nodes))
                    for n in range(self.num_nodes):
                        changed[n] = False
                yield from barrier.wait()          # decision visible
                if stop_on_convergence and not proceed[0]:
                    break
                if node_id == 0:
                    steps_run[0] = step + 1
                yield from self._superstep(program, node_id, session,
                                           mirrors, home, step, tolerance,
                                           remote_reads, mark_changed)
            yield from barrier.wait()

        start = sim.now
        procs = [sim.process(worker(n), name=f"bsp{n}")
                 for n in range(self.num_nodes)]
        sim.run()
        for proc in procs:
            if not proc.ok:  # pragma: no cover
                raise proc.value

        final_epoch = steps_run[0] % 2
        values = [0.0] * graph.num_vertices
        for node_id, members in enumerate(partition.members):
            for vertex in members:
                raw = cluster.peek_segment(
                    node_id, _CTX, self._record_offset(vertex), 24)
                values[vertex] = _unpack(raw)[final_epoch]
        converged = steps_run[0] < max_supersteps
        return BSPResult(values=values, supersteps_run=steps_run[0],
                         elapsed_ns=sim.now - start, converged=converged,
                         remote_reads=remote_reads[0])


class FaultTolerantBSPEngine(BSPEngine):
    """BSP with in-memory checkpointing and crash-restart recovery.

    Three checkpoint modes share one API (``checkpoint_mode``):

    * ``"replica"`` (default): every ``checkpoint_every`` supersteps
      each rank snapshots its full record array twice — a local copy
      (its own restore source) and a one-sided bulk write into its ring
      successor's memory (the restore source for *its* partition if the
      rank dies). Storage cost: 2x the partition.
    * ``"xor"`` / ``"xor(k)"``: the snapshot is split into ``k`` data
      shards plus one XOR parity shard scattered to ``k + 1`` distinct
      healthy peers (single-loss tolerant, ``(k+1)/k`` storage).
    * ``"rs(k,m)"``: GF(256) Reed-Solomon — ``k`` data + ``m`` parity
      shards to ``k + m`` distinct peers; any ``m`` simultaneous losses
      are survivable at ``(k+m)/k`` storage.

    Coded modes keep **no** local snapshot — the scattered stripe *is*
    the checkpoint (diskless checkpointing a la Besta & Hoefler's RMA
    fault-tolerance recipe), written through the same one-sided
    :class:`~repro.resilience.checkpoint.StripedCheckpointStore` path
    as every other byte in the system. All modes are double-slotted
    with headers written after the data, so a crash mid-checkpoint
    always leaves one complete older snapshot behind.

    When a node is crashed, the membership layer evicts it within the
    lease and every survivor observes a typed failure — ``RankFailed``
    from the barrier, or an error-completed shuffle read. Survivors then
    run a recovery round: they quiesce, rendezvous, compute the restore
    point ``R`` (the minimum durable checkpoint across all participants
    — always reachable, because the barrier bounds progress skew to one
    superstep), restore their own partitions (replica: local snapshot;
    coded: rebuild from any ``k`` surviving shards), and each dead
    rank's partition is *adopted* by a live rank (replica: the ring
    successor that already holds the copy; coded: a distinct live rank
    per dead rank, which reconstructs the stripe). In coded modes the
    survivors then **re-encode and re-scatter** their stripes across
    the remaining healthy peers — the dead node held shards of other
    ranks' stripes, and the re-scatter restores the coding invariant
    before execution resumes. Shuffle reads for dead partitions are
    redirected to the adopters, dead ranks are excluded from every
    barrier, and execution resumes at superstep ``R``. Re-execution is
    deterministic, so the final values are bit-for-bit identical to a
    fault-free run — in every mode, at every crash point.

    Modeled shortcuts (documented limits):

    * Snapshot captures and restores are functional (untimed) —
      checkpoint cost is dominated by the modeled remote writes.
    * One failure *incident* per run (an incident may contain several
      simultaneous crashes — coded modes survive up to ``m`` of them,
      replica exactly one that is not ring-adjacent to its checkpoint
      holder). A later second incident is rejected with
      ``RuntimeError``. In replica mode adopted partitions are not
      re-checkpointed; coded modes re-stripe them every checkpoint.
    * A restarted node rejoins the *cluster* (new incarnation/epoch) but
      not the computation; its partition stays with the adopter.
    * Recovery forces one proceed decision, so a crash landing exactly
      on the convergence boundary may re-run one extra superstep — the
      update is idempotent there, so values are unchanged.
    """

    def __init__(self, graph: Graph, num_nodes: int,
                 cluster_config: Optional[ClusterConfig] = None,
                 seed: int = 7, checkpoint_every: int = 1,
                 checkpoint_mode: str = "replica",
                 hb_interval_ns: float = 5_000.0,
                 lease_ns: Optional[float] = None, fault_seed: int = 0,
                 workers: Optional[int] = None,
                 transport: Optional[str] = None,
                 partition="contiguous",
                 crash_schedule: Optional[Sequence[Tuple]] = None,
                 plan: Optional[PartitionPlan] = None, rank: int = 0):
        if num_nodes < 2:
            raise ValueError("fault tolerance needs at least two nodes")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.checkpoint_every = checkpoint_every
        #: ("replica" | "xor" | "rs", ErasureCode-or-None); parsed
        #: before super().__init__ because _segment_bytes needs it.
        self.checkpoint_mode, self.ckpt_code = parse_checkpoint_mode(
            checkpoint_mode, num_peers=num_nodes - 1)
        #: Parallel-engine knobs: ``workers > 1`` runs the whole engine
        #: on the conservative parallel simulator (one process per
        #: rank); ``partition`` is a plan, "contiguous", or "adaptive";
        #: ``transport=None`` picks the fastest available. Crash
        #: timelines must come through ``crash_schedule`` (a sequence of
        #: ``(victim, at_ns[, restart_after_ns])``) so every rank
        #: replays the identical fault schedule.
        self.workers = int(workers) if workers else 1
        self.transport = transport
        self.partition_spec = partition
        self.crash_schedule = tuple(tuple(entry)
                                    for entry in (crash_schedule or ()))
        if (self.workers > 1 or plan is not None) \
                and self.ckpt_code is not None:
            raise PartitionError(
                "partitioned fault-tolerant BSP supports replica "
                "checkpoints only (coded stripes reconstruct by peeking "
                "remote segments)")
        if self.workers > 1:
            # Deferred: per-rank engines (plan/rank set) are built
            # inside run_partitioned's worker processes; this object is
            # only the front-end that merges their results.
            self._deferred = dict(cluster_config=cluster_config,
                                  seed=seed,
                                  hb_interval_ns=hb_interval_ns,
                                  lease_ns=lease_ns,
                                  fault_seed=fault_seed)
            self.graph = graph
            self.num_nodes = num_nodes
            self.partition = partition_random(graph, num_nodes, seed=seed)
            self.plan = None
            self.cluster = None
            self.membership = None
            self.controller = None
            self.ckpt_store = None
            self.failed_ranks: Set[int] = set()
            #: engine_stats() of the last partitioned run (transport,
            #: coordination breakdown, per-rank accounting) plus the
            #: merged membership counters.
            self.partitioned_stats: Optional[Dict[str, object]] = None
            return
        super().__init__(graph, num_nodes, cluster_config=cluster_config,
                         seed=seed, plan=plan, rank=rank)
        self.failed_ranks = set()
        self.membership = self.cluster.enable_membership(
            interval_ns=hb_interval_ns, lease_ns=lease_ns,
            on_evict=self._note_eviction)
        self.controller = self.cluster.fault_controller(seed=fault_seed)
        for entry in self.crash_schedule:
            victim, at_ns = entry[0], entry[1]
            restart_after = entry[2] if len(entry) > 2 else None
            self.controller.schedule_crash(victim, at_ns=at_ns,
                                           restart_after_ns=restart_after)
        #: Striped coded checkpoint store (None in replica mode).
        self.ckpt_store: Optional[StripedCheckpointStore] = None
        if self.ckpt_code is not None:
            self.ckpt_store = StripedCheckpointStore(
                self.cluster, _CTX, self.ckpt_code,
                num_sources=num_nodes, shard_base=self.shard_base,
                shard_stride=self.shard_stride,
                hdr_base=self.shard_hdr_base,
                membership=self.membership, controller=self.controller,
                excluded=self.failed_ranks)

    def _segment_bytes(self, max_part: int) -> int:
        """Records + checkpoint regions + the adoption region, all
        below the barrier/messaging lines. Replica mode reserves two
        local and two peer snapshot slots (plus headers); coded modes
        reserve, per source rank, two double-buffered shard slots plus
        header lines — identical offsets on every host, so shard
        placement is pure choice of destination node."""
        stride = max_part * RECORD_BYTES
        self.part_stride = stride
        if self.ckpt_code is None:
            self.local_ckpt_base = stride            # my own snapshots
            self.local_hdr_base = 3 * stride         # 2 x 64B headers
            self.peer_ckpt_base = 3 * stride + 128   # ring predecessor's
            self.peer_hdr_base = 5 * stride + 128    # 2 x 64B headers
            self.adopt_base = 5 * stride + 256       # adopted partition
            base = 6 * stride + 256
            #: Partitioned runs only: one cache line per fabric-carried
            #: control word (see _rank_worker). The serial layout is
            #: untouched so existing serial timings stay bit-identical.
            self.ctrl_base = base
            if self.plan is not None:
                base += 8 * 64
            return base + (1 << 20)
        shard_stride = -(-self.ckpt_code.shard_length(stride) // 64) * 64
        self.shard_stride = shard_stride
        self.shard_base = stride
        self.shard_hdr_base = stride + 2 * self.num_nodes * shard_stride
        self.adopt_base = (self.shard_hdr_base
                           + 2 * self.num_nodes * HEADER_BYTES)
        # Extra headroom beyond the replica layout's 1 MiB: the coded
        # scatter path allocates per-session shard staging buffers.
        return (self.adopt_base + stride + (1 << 20)
                + 2 * self.num_nodes * shard_stride)

    def _note_eviction(self, node_id: int, epoch: int) -> None:
        """Membership eviction callback: once a rank is evicted it is
        failed for the rest of the computation, even if the node later
        restarts and rejoins the cluster."""
        if node_id >= self.num_nodes or node_id in self.failed_ranks:
            return
        self.failed_ranks.add(node_id)
        for barrier in self.barriers.values():
            barrier.note_eviction(node_id)

    # -- checkpoint plumbing (functional reads of durable state) -------------

    def _peek_u64(self, nid: int, offset: int) -> int:
        return int.from_bytes(
            self.cluster.peek_segment(nid, _CTX, offset, 8), "little")

    def _durable_header(self, nid: int, hdr_base: int) -> int:
        """Highest completed checkpoint header in a 2-slot region."""
        return max(self._peek_u64(nid, hdr_base),
                   self._peek_u64(nid, hdr_base + 64))

    def _slot_with_header(self, nid: int, hdr_base: int,
                          header: int) -> int:
        for slot in (0, 1):
            if self._peek_u64(nid, hdr_base + slot * 64) == header:
                return slot
        raise RuntimeError(
            f"node {nid}: no checkpoint slot with header {header}")

    def _adopter_of(self, rank: int) -> int:
        succ = (rank + 1) % self.num_nodes
        if succ in self.failed_ranks:
            raise RuntimeError(
                f"ring-adjacent failures: rank {rank}'s checkpoint "
                f"peer {succ} is dead too (single-failure tolerance)")
        return succ

    def _assign_adopters(self, dead: List[int]) -> Dict[int, int]:
        """Coded modes: each dead rank is adopted by a *distinct* live
        rank, scanning the ring forward from its successor (so the
        single-failure assignment matches replica mode's)."""
        adopters: Dict[int, int] = {}
        used: Set[int] = set()
        for d in dead:
            for hop in range(1, self.num_nodes):
                candidate = (d + hop) % self.num_nodes
                if candidate in self.failed_ranks or candidate in used:
                    continue
                adopters[d] = candidate
                used.add(candidate)
                break
            else:
                raise RuntimeError(
                    f"no live adopter available for dead rank {d}")
        return adopters

    def _replica_peer_ok(self, succ: int) -> bool:
        """Membership-consulted placement for replica mode: never ship
        the checkpoint to a gray-degraded or non-live successor (an
        *evicted* successor is already in ``failed_ranks``; coded modes
        run the same consultation inside the store's ``place()``)."""
        if self.controller is not None and self.controller.is_gray(succ):
            return False
        return self.membership.is_live(succ)

    # -- superstep phases shared by the serial and partitioned loops --------

    def _decider(self) -> int:
        """The lowest live rank makes the collective proceed decision
        (rank 0 in fault-free runs)."""
        return min(r for r in range(self.num_nodes)
                   if r not in self.failed_ranks)

    def _replica_checkpoint(self, node_id: int, session: RMCSession,
                            hdr_buf: int, progress: int,
                            checkpoints: List[int]):
        """Timed coroutine: replica-mode checkpoint of ``node_id``'s own
        partition — a local snapshot (every survivor restores from its
        own copy, whichever node died), then a bulk one-sided write into
        the ring successor's peer region followed by its header (the
        slot is valid only once the header lands)."""
        slot = (progress // self.checkpoint_every) % 2
        nbytes = len(self.partition.members[node_id]) * RECORD_BYTES
        if nbytes == 0:
            return
        seg_base = session.ctx.segment.base_vaddr
        data = session.buffer_peek(seg_base, nbytes)
        self.cluster.poke_segment(node_id, _CTX,
                                  self.local_ckpt_base
                                  + slot * self.part_stride, data)
        self.cluster.poke_segment(node_id, _CTX,
                                  self.local_hdr_base + slot * 64,
                                  progress.to_bytes(8, "little"))
        checkpoints[0] += 1
        succ = (node_id + 1) % self.num_nodes
        if succ in self.failed_ranks or not self._replica_peer_ok(succ):
            return   # checkpoint peer is gone or degraded: keep local
            #          copies only until recovery sorts it out
        yield from session.wait_for_slot()
        yield from session.write_async(
            succ, self.peer_ckpt_base + slot * self.part_stride,
            seg_base, nbytes)
        yield from session.drain_cq()
        session.raise_errors()
        session.buffer_poke(hdr_buf, progress.to_bytes(8, "little"))
        yield from session.write_sync(
            succ, self.peer_hdr_base + slot * 64, hdr_buf, 8)
        # Same fabric-bytes accounting the coded store keeps, so the
        # modes are comparable in telemetry and ablations.
        self.cluster.resilience_counters(node_id) \
            .checkpoint_bytes_written += nbytes

    def _restore_rank(self, program: VertexProgram, rank: int, nid: int,
                      restore_pt: int) -> None:
        """Restore ``rank``'s partition at ``restore_pt`` into node
        ``nid`` (untimed): its own records when ``rank == nid``, else
        the adoption region. Replica mode reads ``nid``'s local
        snapshot (own rank) or its peer region (the adopted ring
        predecessor); coded modes rebuild from any k surviving shards.
        Restore point 0 re-initializes."""
        dst_base = 0 if rank == nid else self.adopt_base
        if restore_pt == 0:
            self._init_records(program, rank, nid, dst_base)
            return
        nbytes = len(self.partition.members[rank]) * RECORD_BYTES
        if nbytes == 0:
            return
        if self.ckpt_store is not None:
            data = self.ckpt_store.reconstruct(rank, restore_pt, nbytes)
        else:
            if rank == nid:
                src_ckpt, src_hdr = self.local_ckpt_base, self.local_hdr_base
            else:
                src_ckpt, src_hdr = self.peer_ckpt_base, self.peer_hdr_base
            slot = self._slot_with_header(nid, src_hdr, restore_pt)
            data = self.cluster.peek_segment(
                nid, _CTX, src_ckpt + slot * self.part_stride, nbytes)
        self.cluster.poke_segment(nid, _CTX, dst_base, data)

    # -- the fault-tolerant run ----------------------------------------------

    def run(self, program: VertexProgram, max_supersteps: int,
            stop_on_convergence: bool = True,
            tolerance: float = 0.0) -> BSPResult:
        if self.workers > 1:
            return self._run_partitioned(program, max_supersteps,
                                         stop_on_convergence, tolerance)
        graph, partition = self.graph, self.partition
        cluster = self.cluster
        sim = cluster.sim
        num_nodes = self.num_nodes
        every = self.checkpoint_every

        for node_id in range(num_nodes):
            self._init_records(program, node_id, node_id, 0)

        remote_reads = [0]
        steps_run = [0]
        recoveries = [0]
        checkpoints = [0]
        changed: Dict[int, bool] = {n: True for n in range(num_nodes)}
        proceed = [True]
        #: rank -> (home node, base offset of its record array). Adoption
        #: redirects a dead rank's home; single writer (the adopter).
        partition_home = {n: (n, 0) for n in range(num_nodes)}
        #: Workers still running (recovery only waits for these).
        active = set(range(num_nodes))
        #: Modeled out-of-band recovery control plane (one incident).
        recovery: Dict[str, object] = {"arrived": {}, "plan": None}
        failed = self.failed_ranks

        def write_stripes(node_id, session, progress, rebuilt=False):
            # Coded mode: no local snapshot — the scattered stripe IS
            # the checkpoint. Adopted partitions are striped too (source
            # = the adopted rank), so the coding invariant covers every
            # partition after a recovery.
            slot = (progress // every) % 2
            seg_base = session.ctx.segment.base_vaddr
            for rank in range(num_nodes):
                home, base = partition_home[rank]
                if home != node_id:
                    continue
                nbytes = len(partition.members[rank]) * RECORD_BYTES
                if nbytes == 0:
                    continue
                data = session.buffer_peek(seg_base + base, nbytes)
                wrote = yield from self.ckpt_store.write_stripe(
                    session, rank, data, progress, slot, rebuilt=rebuilt)
                if wrote and not rebuilt:
                    checkpoints[0] += 1

        def recover(node_id, session, barrier, step):
            # Quiesce: outstanding operations toward the dead node
            # error-complete once the retransmission budget runs out.
            yield from session.drain_cq()
            session.consume_errors()
            # Wait for the control plane's verdict. No eviction within
            # a few leases => the failure was transient (a link flap):
            # state is untouched, retry the same superstep.
            deadline = sim.now + 4 * self.membership.lease_ns
            while not failed and sim.now < deadline:
                yield sim.timeout(self.membership.interval_ns)
            # A live rank that already RETURNED proves the whole run
            # completed: finishing the final rendezvous requires seeing
            # every live rank's arrival there — this one's included. The
            # collective result is fully materialized, so recovery is
            # bookkeeping only: no restore, no re-execution, and no
            # further barrier (the returned rank would never answer one
            # — its arrival line is frozen at the final generation).
            # Only a rank that is actually *up* counts: a crashed worker
            # exits `active` before its eviction lands, and must not
            # masquerade as finished.
            finished = [r for r in range(num_nodes)
                        if r != node_id and r not in failed
                        and r not in active
                        and not self.controller.is_down(r)]
            if finished:
                for d in sorted(failed):
                    barrier.exclude(d)
                return None
            if not failed:
                return step
            if recovery["plan"] is not None \
                    and set(failed) - set(recovery["plan"]["dead"]):
                raise RuntimeError(
                    "second failure incident after recovery: the "
                    "rendezvous state is valid for one incident per run")
            recovery["arrived"][node_id] = barrier.generation
            while recovery["plan"] is None:
                live = [r for r in range(num_nodes)
                        if r not in failed and r in active]
                arrived = recovery["arrived"]
                # Plan only once every rank is accounted for — at the
                # rendezvous or evicted. A simultaneous multi-crash must
                # wait for ALL evictions: a crashed worker may leave
                # `active` before its lease expires, and planning around
                # it too early would treat it as a survivor.
                if node_id == min(live) \
                        and all(r in arrived or r in failed
                                for r in range(num_nodes)):
                    dead = sorted(failed)
                    if self.ckpt_store is not None:
                        # Restore point: minimum durable stripe epoch
                        # over every partition. Skew is barrier-bounded
                        # to one checkpoint, so the double-buffered
                        # slots still hold shards at this epoch.
                        adopters = self._assign_adopters(dead)
                        durables = [self.ckpt_store.durable_epoch(r)
                                    for r in live + dead]
                    else:
                        # Restore point: minimum durable header
                        # anywhere. Progress skew is barrier-bounded,
                        # so every 2-slot region still holds a snapshot
                        # with this header.
                        adopters = {d: self._adopter_of(d) for d in dead}
                        durables = [self._durable_header(
                            r, self.local_hdr_base) for r in live]
                        durables += [self._durable_header(
                            adopters[d], self.peer_hdr_base)
                            for d in dead]
                    recovery["plan"] = {
                        "restore": min(durables),
                        "generation": max(arrived[r] for r in live),
                        "dead": dead,
                        "adopters": adopters,
                    }
                    recoveries[0] += 1
                    break
                yield sim.timeout(self.membership.interval_ns)
            plan = recovery["plan"]
            restore_pt = plan["restore"]
            for d in plan["dead"]:
                barrier.exclude(d)
            if plan["generation"] > barrier.generation:
                barrier.resync_generation(plan["generation"])
            session.consume_errors()
            self._restore_rank(program, node_id, node_id, restore_pt)
            for d in plan["dead"]:
                if plan["adopters"][d] != node_id \
                        or partition_home[d][0] == node_id:
                    continue
                if any(h == node_id for r, (h, _) in partition_home.items()
                       if r != node_id and r != d):
                    raise RuntimeError("adoption region already in use: "
                                       "one adoption per surviving rank")
                self._restore_rank(program, d, node_id, restore_pt)
                partition_home[d] = (node_id, self.adopt_base)
            if self.ckpt_store is not None and restore_pt > 0:
                # Re-scatter: the dead node held shards of surviving
                # ranks' stripes. Each survivor re-encodes its restored
                # (bit-exact) state and scatters fresh shards across the
                # remaining healthy peers, restoring the coding
                # invariant before execution resumes. Shard bytes are
                # deterministic functions of the data, so reads mixing
                # old and new placements stay consistent.
                yield from write_stripes(node_id, session, restore_pt,
                                         rebuilt=True)
            changed[node_id] = True
            proceed[0] = True
            return restore_pt

        def worker(node_id):
            session = self.sessions[node_id]
            barrier = self.barriers[node_id]
            mirrors = self._alloc_mirrors(session, node_id)
            hdr_buf = session.alloc_buffer(8)

            def mark_changed():
                changed[node_id] = True

            step = 0
            try:
                while True:
                    try:
                        if step >= max_supersteps:
                            # Final rendezvous. Inside the resilient
                            # loop: a crash racing it sends every
                            # survivor through the same recovery and
                            # re-execution instead of leaving some
                            # returned and some blocked.
                            yield from barrier.wait()
                            return
                        yield from barrier.wait()  # changed[] is final
                        if node_id == self._decider():
                            proceed[0] = any(changed[n]
                                             for n in range(num_nodes))
                            for n in range(num_nodes):
                                changed[n] = False
                        yield from barrier.wait()  # decision visible
                        if stop_on_convergence and not proceed[0]:
                            yield from barrier.wait()  # final rendezvous
                            return
                        if node_id == self._decider():
                            steps_run[0] = step + 1
                        yield from self._superstep(
                            program, node_id, session, mirrors,
                            partition_home, step, tolerance, remote_reads,
                            mark_changed)
                        if (step + 1) % every == 0:
                            if self.ckpt_store is None:
                                yield from self._replica_checkpoint(
                                    node_id, session, hdr_buf, step + 1,
                                    checkpoints)
                            else:
                                yield from write_stripes(node_id, session,
                                                         step + 1)
                        step += 1
                    except (RankFailed, NodeEvicted, RemoteOpFailed):
                        if barrier.self_evicted or node_id in failed \
                                or self.controller.is_down(node_id):
                            return   # it is me who died
                        step = yield from recover(node_id, session,
                                                  barrier, step)
                        if step is None:
                            return   # run already complete (see recover)
            finally:
                active.discard(node_id)

        start = sim.now
        procs = [sim.process(worker(n), name=f"ftbsp{n}")
                 for n in range(num_nodes)]
        sim.run()
        for proc in procs:
            if not proc.ok:
                raise proc.value

        values = [0.0] * graph.num_vertices
        for vertex, value in self._collect_rank(
                steps_run[0], partition_home).items():
            values[vertex] = value
        converged = steps_run[0] < max_supersteps
        return BSPResult(values=values, supersteps_run=steps_run[0],
                         elapsed_ns=sim.now - start, converged=converged,
                         remote_reads=remote_reads[0],
                         recoveries=recoveries[0],
                         checkpoints=checkpoints[0])

    # -- the partitioned (multi-process) fault-tolerant run ------------------

    def _run_partitioned(self, program: VertexProgram, max_supersteps: int,
                         stop_on_convergence: bool,
                         tolerance: float) -> BSPResult:
        """Front-end of a ``workers > 1`` run: build one per-rank engine
        inside each worker process, execute on the conservative parallel
        simulator, and merge the per-rank results. The vertex-level model
        is identical to the serial fault-tolerant path except that the
        shared-dict control plane (``changed``/``proceed``/``recovery``)
        is carried over the fabric instead (see :meth:`_rank_worker`), so
        the computed values are bit-for-bit the serial values and the run
        itself is bit-identical across worker counts and transports."""
        deferred = self._deferred
        num_nodes = self.num_nodes
        config = paired_config(deferred["cluster_config"], num_nodes)

        def build(rank: int, build_plan: PartitionPlan):
            engine = FaultTolerantBSPEngine(
                self.graph, num_nodes, cluster_config=config,
                seed=deferred["seed"],
                checkpoint_every=self.checkpoint_every,
                checkpoint_mode="replica",
                hb_interval_ns=deferred["hb_interval_ns"],
                lease_ns=deferred["lease_ns"],
                fault_seed=deferred["fault_seed"],
                crash_schedule=self.crash_schedule,
                plan=build_plan, rank=rank)
            return engine._start_rank(program, max_supersteps,
                                      stop_on_convergence, tolerance)

        run = run_scenario(build, num_nodes, self.workers,
                           self.partition_spec, self.transport)
        parts = [run.results[r] for r in sorted(run.results)]
        values = [0.0] * self.graph.num_vertices
        for part in parts:
            for vertex, value in part["values"].items():
                values[vertex] = value
        steps_run = max(part["steps_run"] for part in parts)
        stats = run.engine_stats()
        stats["membership"] = {
            "evictions": max(part["evictions"] for part in parts),
            "rejoins": max(part["rejoins"] for part in parts),
        }
        self.partitioned_stats = stats
        return BSPResult(
            values=values, supersteps_run=steps_run,
            elapsed_ns=run.final_time,
            converged=steps_run < max_supersteps,
            remote_reads=sum(part["remote_reads"] for part in parts),
            recoveries=sum(part["recoveries"] for part in parts),
            checkpoints=sum(part["checkpoints"] for part in parts))

    def _start_rank(self, program: VertexProgram, max_supersteps: int,
                    stop_on_convergence: bool, tolerance: float):
        """Builder payload for :func:`~repro.cluster.scenario.run_scenario`:
        spawn a worker per *owned* node and return
        ``(sim, fabric, finalize)``.
        Called on per-rank engines (``plan``/``rank`` set)."""
        sim = self.cluster.sim
        st = self._rank_state = {
            #: rank -> (home node, record-array base). Updated on every
            #: rank during recovery: the adopter assignment is a pure
            #: function of the replicated dead set.
            "partition_home": {n: (n, 0) for n in range(self.num_nodes)},
            "adopted": set(),
            "steps_run": [0],
            "remote_reads": [0],
            "recoveries": [0],
            "checkpoints": [0],
            "recovery_plan": [None],
        }
        for node_id in self.owned:
            self._init_records(program, node_id, node_id, 0)
        procs = [sim.process(self._rank_worker(n, program, max_supersteps,
                                               stop_on_convergence,
                                               tolerance),
                             name=f"ftbsp{n}")
                 for n in self.owned]

        def finalize():
            check_finished(procs)
            return {
                "values": self._collect_rank(st["steps_run"][0],
                                             st["partition_home"]),
                "steps_run": st["steps_run"][0],
                "remote_reads": st["remote_reads"][0],
                "recoveries": st["recoveries"][0],
                "checkpoints": st["checkpoints"][0],
                "evictions": self.membership.evictions,
                "rejoins": self.membership.rejoins,
            }

        return sim, self.cluster.fabric, finalize

    def _collect_rank(self, steps_run: int,
                      partition_home: Dict[int, Tuple[int, int]]
                      ) -> Dict[int, float]:
        """Final values of every partition this engine is responsible
        for emitting: partitions homed on a live owned node, plus a dead
        un-adopted rank's last durable checkpoint when this engine owns
        its checkpoint holder (a serial engine owns every node)."""
        failed = self.failed_ranks
        final_epoch = steps_run % 2
        values: Dict[int, float] = {}
        for rank in range(self.num_nodes):
            home, base = partition_home[rank]
            nbytes = len(self.partition.members[rank]) * RECORD_BYTES
            raw_partition = None
            if rank in failed and home == rank:
                # Died without being adopted (i.e. after its last
                # superstep): its freshest surviving state is its last
                # durable checkpoint — the remote copy at its ring
                # successor (replica) or its reconstructed stripe
                # (coded; raises CheckpointUnrecoverable when more than
                # m shards died with it).
                if self.ckpt_store is not None:
                    durable = self.ckpt_store.durable_epoch(rank)
                else:
                    home = self._adopter_of(rank)
                    if home not in self.owned:
                        continue
                    durable = self._durable_header(home,
                                                   self.peer_hdr_base)
                if durable < steps_run:
                    raise RuntimeError(
                        f"rank {rank} died un-adopted with a stale "
                        f"checkpoint ({durable} < {steps_run})")
                if self.ckpt_store is not None:
                    raw_partition = self.ckpt_store.reconstruct(
                        rank, durable, nbytes)
                else:
                    slot = self._slot_with_header(home, self.peer_hdr_base,
                                                  durable)
                    base = self.peer_ckpt_base + slot * self.part_stride
            elif home in failed:
                raise RuntimeError(
                    f"rank {rank}'s adopter {home} failed too: a second "
                    f"failure incident (one per run)")
            elif home not in self.owned:
                continue
            for vertex in self.partition.members[rank]:
                rel = self._record_offset(vertex)
                if raw_partition is not None:
                    raw = raw_partition[rel:rel + 24]
                else:
                    raw = self.cluster.peek_segment(home, _CTX, base + rel,
                                                    24)
                values[vertex] = _unpack(raw)[final_epoch]
        return values

    def _rank_worker(self, node_id: int, program: VertexProgram,
                     max_supersteps: int, stop_on_convergence: bool,
                     tolerance: float):
        """The serial fault-tolerant worker with its shared-dict control
        plane replaced by fabric-carried control words, so it runs
        unmodified under any partitioning:

        * ``changed[n]`` -> each node's FLAG word: ``1 + s`` where ``s``
          is the last superstep whose compute changed the node. Flags
          are monotone (never reset); the decider's proceed test becomes
          ``any(flag >= step)``, which is equivalent to the serial reset
          semantics because under ``stop_on_convergence`` a partition
          unchanged at ``step - 1`` is unchanged at every later step of
          this (deterministic) execution.
        * ``proceed[0]`` -> the decider's VERDICT word, generation-
          stamped with ``step + 1`` so a reader can detect a torn round.
        * the ``recovery`` dict -> ARRIVED / DURABLE / ADOPT_DUR words
          per node plus the planner's PLAN line.

        Writes land in the writer's own segment (untimed pokes — the
        modeled out-of-band control plane, same as the serial shared
        dicts); every read of a *peer's* word is a timed one-sided
        ``read_sync`` even when the peer is simulated by this same rank,
        keeping the event timeline independent of the partitioning."""
        cluster = self.cluster
        sim = cluster.sim
        num_nodes = self.num_nodes
        failed = self.failed_ranks
        st = self._rank_state
        partition_home = st["partition_home"]
        session = self.sessions[node_id]
        barrier = self.barriers[node_id]
        mirrors = self._alloc_mirrors(session, node_id)
        hdr_buf = session.alloc_buffer(8)
        ctrl_buf = session.alloc_buffer(64)
        ctrl_base = self.ctrl_base

        def poke_word(offset: int, value: int) -> None:
            cluster.poke_segment(node_id, _CTX, ctrl_base + offset,
                                 int(value).to_bytes(8, "little"))

        def peek_word(offset: int) -> int:
            return int.from_bytes(
                cluster.peek_segment(node_id, _CTX, ctrl_base + offset, 8),
                "little")

        def read_ctrl(peer: int, offset: int, nbytes: int = 8):
            # Timed fabric read of a peer's control word — always over
            # the fabric, never a local peek, so the model is identical
            # under every partitioning.
            yield from session.wait_for_slot()
            yield from session.read_sync(peer, ctrl_base + offset,
                                         ctrl_buf, nbytes)
            return session.buffer_peek(ctrl_buf, nbytes)

        def read_ctrl_word(peer: int, offset: int):
            raw = yield from read_ctrl(peer, offset)
            return int.from_bytes(raw, "little")

        def mark_changed():
            if peek_word(_CTRL_FLAG) < step + 1:
                poke_word(_CTRL_FLAG, step + 1)

        def finished_exit():
            for d in sorted(failed):
                barrier.exclude(d)
            poke_word(_CTRL_FINISHED, 1)
            return None

        def recover(step: int):
            # Quiesce: outstanding operations toward the dead node
            # error-complete once the retransmission budget runs out.
            yield from session.drain_cq()
            session.consume_errors()
            # Wait for the eviction verdict; none within a few leases
            # means the failure was transient — retry the superstep.
            deadline = sim.now + 4 * self.membership.lease_ns
            while not failed and sim.now < deadline:
                yield sim.timeout(self.membership.interval_ns)
            # A live peer whose FINISHED word is set already returned:
            # the collective result is materialized, recovery is
            # bookkeeping only (see the serial path for the argument).
            for r in range(num_nodes):
                if r == node_id or r in failed \
                        or self.controller.is_down(r):
                    continue
                try:
                    word = yield from read_ctrl_word(r, _CTRL_FINISHED)
                except RemoteOpFailed:
                    session.consume_errors()
                    continue
                if word:
                    return finished_exit()
            if not failed:
                return step
            if st["recovery_plan"][0] is not None \
                    and set(failed) - set(st["recovery_plan"][0]["dead"]):
                raise RuntimeError(
                    "second failure incident after recovery: the "
                    "rendezvous state is valid for one incident per run")
            # Rendezvous: publish durable headers, then the arrival —
            # the planner reads them only after seeing the arrival.
            poke_word(_CTRL_DURABLE,
                      1 + self._durable_header(node_id,
                                               self.local_hdr_base))
            poke_word(_CTRL_ADOPT_DUR,
                      1 + self._durable_header(node_id,
                                               self.peer_hdr_base))
            poke_word(_CTRL_ARRIVED, 1 + barrier.generation)
            plan = None
            while plan is None:
                live = [r for r in range(num_nodes) if r not in failed]
                if node_id == min(live):
                    # Planner: wait until every live rank has arrived.
                    # A crashed-but-not-yet-evicted rank reads as 0 (or
                    # fails the read) and keeps the plan on hold — the
                    # serial "all accounted for" condition.
                    arrived = {node_id: peek_word(_CTRL_ARRIVED)}
                    waiting_on = None
                    for r in live:
                        if r == node_id:
                            continue
                        try:
                            word = yield from read_ctrl_word(
                                r, _CTRL_ARRIVED)
                        except RemoteOpFailed:
                            session.consume_errors()
                            word = 0
                        if word == 0:
                            waiting_on = r
                            break
                        arrived[r] = word
                    if waiting_on is not None:
                        # The missing rank may have returned instead
                        # (crash racing the final rendezvous).
                        try:
                            word = yield from read_ctrl_word(
                                waiting_on, _CTRL_FINISHED)
                        except RemoteOpFailed:
                            session.consume_errors()
                            word = 0
                        if word:
                            return finished_exit()
                    else:
                        dead = sorted(failed)
                        adopters = {d: self._adopter_of(d) for d in dead}
                        durables = []
                        for r in live:
                            if r == node_id:
                                durables.append(
                                    peek_word(_CTRL_DURABLE) - 1)
                            else:
                                word = yield from read_ctrl_word(
                                    r, _CTRL_DURABLE)
                                durables.append(word - 1)
                        for d in dead:
                            if adopters[d] == node_id:
                                durables.append(
                                    peek_word(_CTRL_ADOPT_DUR) - 1)
                            else:
                                word = yield from read_ctrl_word(
                                    adopters[d], _CTRL_ADOPT_DUR)
                                durables.append(word - 1)
                        plan = {"restore": min(durables),
                                "generation": max(arrived.values()) - 1,
                                "dead": dead, "adopters": adopters}
                        mask = sum(1 << d for d in dead)
                        cluster.poke_segment(
                            node_id, _CTX, ctrl_base + _CTRL_PLAN,
                            struct.pack("<3Q", (mask << 1) | 1,
                                        plan["restore"],
                                        plan["generation"]))
                        st["recoveries"][0] += 1
                        break
                else:
                    # Follower: poll the planner's PLAN line (the
                    # planner identity is recomputed each round — an
                    # eviction may change it) until it turns valid.
                    word = 0
                    try:
                        raw = yield from read_ctrl(min(live), _CTRL_PLAN,
                                                   24)
                        word, restore, generation = struct.unpack(
                            "<3Q", raw)
                    except RemoteOpFailed:
                        session.consume_errors()
                    if word:
                        dead = sorted(failed)
                        if (word >> 1) != sum(1 << d for d in dead):
                            raise RuntimeError(
                                "recovery plan covers a different dead "
                                "set than this rank observed")
                        plan = {"restore": restore,
                                "generation": generation, "dead": dead,
                                "adopters": {d: self._adopter_of(d)
                                             for d in dead}}
                        break
                    try:
                        word = yield from read_ctrl_word(
                            min(live), _CTRL_FINISHED)
                    except RemoteOpFailed:
                        session.consume_errors()
                        word = 0
                    if word:
                        return finished_exit()
                yield sim.timeout(self.membership.interval_ns)
            st["recovery_plan"][0] = plan
            restore_pt = plan["restore"]
            for d in plan["dead"]:
                barrier.exclude(d)
            if plan["generation"] > barrier.generation:
                barrier.resync_generation(plan["generation"])
            session.consume_errors()
            self._restore_rank(program, node_id, node_id, restore_pt)
            for d in plan["dead"]:
                adopter = plan["adopters"][d]
                if adopter == node_id and d not in st["adopted"]:
                    if any(h == node_id
                           for r, (h, _) in partition_home.items()
                           if r != node_id and r != d):
                        raise RuntimeError(
                            "adoption region already in use: one "
                            "adoption per surviving rank")
                    self._restore_rank(program, d, node_id, restore_pt)
                    st["adopted"].add(d)
                # Every rank redirects reads for the dead partition to
                # its adopter — the assignment is a pure function of the
                # replicated dead set, so no agreement message needed.
                partition_home[d] = (adopter, self.adopt_base)
            # Force one proceed decision after the rollback (the serial
            # path's changed/proceed := True).
            if peek_word(_CTRL_FLAG) < restore_pt:
                poke_word(_CTRL_FLAG, restore_pt)
            return restore_pt

        step = 0
        while True:
            try:
                if step >= max_supersteps:
                    yield from barrier.wait()   # final rendezvous
                    poke_word(_CTRL_FINISHED, 1)
                    return
                yield from barrier.wait()       # flags are final
                dec = self._decider()
                proceed = None
                if node_id == dec:
                    proceed = peek_word(_CTRL_FLAG) >= step
                    for r in range(num_nodes):
                        if r == node_id or r in failed:
                            continue
                        word = yield from read_ctrl_word(r, _CTRL_FLAG)
                        if word >= step:
                            proceed = True
                    poke_word(_CTRL_VERDICT,
                              ((step + 1) << 1) | int(proceed))
                yield from barrier.wait()       # verdict is visible
                if node_id != dec:
                    word = yield from read_ctrl_word(dec, _CTRL_VERDICT)
                    if (word >> 1) != step + 1:
                        raise RuntimeError(
                            f"verdict generation mismatch: "
                            f"{word >> 1} != {step + 1}")
                    proceed = bool(word & 1)
                if stop_on_convergence and not proceed:
                    yield from barrier.wait()   # final rendezvous
                    poke_word(_CTRL_FINISHED, 1)
                    return
                st["steps_run"][0] = step + 1
                yield from self._superstep(
                    program, node_id, session, mirrors, partition_home,
                    step, tolerance, st["remote_reads"], mark_changed)
                if (step + 1) % self.checkpoint_every == 0:
                    yield from self._replica_checkpoint(
                        node_id, session, hdr_buf, step + 1,
                        st["checkpoints"])
                step += 1
            except (RankFailed, NodeEvicted, RemoteOpFailed):
                if barrier.self_evicted or node_id in failed \
                        or self.controller.is_down(node_id):
                    return   # it is me who died
                step = yield from recover(step)
                if step is None:
                    return   # run already complete (see recover)
