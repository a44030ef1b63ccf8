"""Cluster-wide telemetry: aggregate and render component statistics.

Every component of the model keeps counters (cache hits, DRAM traffic,
RMC pipeline activity, NI packets, fabric deliveries, TLB behaviour).
This module gathers them into one structured snapshot per node — used
by the examples for end-of-run reports and by tests to assert on
system-level behaviour (e.g. "the server's RMC served N requests and
its core executed nothing").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["NodeSnapshot", "ClusterSnapshot", "snapshot",
           "merge_snapshots", "format_report", "LogLinearHistogram"]


class LogLinearHistogram:
    """Fixed-bucket log-linear latency histogram (HdrHistogram-style).

    The serving tier records one sample per request at rates where
    keeping raw samples (as :class:`~repro.sim.LatencyStat` does) would
    dominate memory, so quantiles come from a fixed bucket layout
    instead: values below ``min_value_ns`` share bucket 0; above it,
    each power-of-two decade is split into ``sub_buckets`` equal linear
    buckets. Relative quantile error is bounded by ``1 / sub_buckets``
    (3.1% at the default 32), every bucket count is an integer, and
    bucket boundaries depend only on the constructor arguments — so
    histograms recorded on different workers or shards :meth:`merge`
    exactly and the reported percentiles are bit-deterministic.

    Quantiles are reported as the *upper bound* of the bucket holding
    the target rank (a conservative estimate: the true quantile is never
    above the reported one by construction).
    """

    def __init__(self, min_value_ns: float = 16.0, sub_buckets: int = 32,
                 name: str = ""):
        if min_value_ns <= 0:
            raise ValueError("min_value_ns must be positive")
        if sub_buckets < 1:
            raise ValueError("need at least one sub-bucket per decade")
        self.min_value_ns = float(min_value_ns)
        self.sub_buckets = sub_buckets
        self.name = name
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.max_recorded = 0.0

    def _index(self, value: float) -> int:
        if value < self.min_value_ns:
            return 0
        ratio = value / self.min_value_ns
        mantissa, exponent = math.frexp(ratio)   # ratio = m * 2**e, m in [0.5, 1)
        decade = exponent - 1                    # floor(log2(ratio)) >= 0
        low = float(1 << decade)
        width = low / self.sub_buckets
        sub = min(int((ratio - low) / width), self.sub_buckets - 1)
        return 1 + decade * self.sub_buckets + sub

    def bucket_upper_ns(self, index: int) -> float:
        """Upper value bound of bucket ``index`` (ns)."""
        if index <= 0:
            return self.min_value_ns
        decade, sub = divmod(index - 1, self.sub_buckets)
        low = float(1 << decade)
        width = low / self.sub_buckets
        return self.min_value_ns * (low + (sub + 1) * width)

    def record(self, value_ns: float) -> None:
        """Drop one latency sample (ns) into its bucket."""
        if value_ns < 0:
            raise ValueError(f"negative latency sample: {value_ns}")
        index = self._index(value_ns)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        if value_ns > self.max_recorded:
            self.max_recorded = value_ns

    def merge(self, other: "LogLinearHistogram") -> None:
        """Fold another histogram (same layout) into this one."""
        if (other.min_value_ns != self.min_value_ns
                or other.sub_buckets != self.sub_buckets):
            raise ValueError("cannot merge histograms with different "
                             "bucket layouts")
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n
        self.count += other.count
        if other.max_recorded > self.max_recorded:
            self.max_recorded = other.max_recorded

    def quantile(self, q: float) -> float:
        """Latency (ns) at quantile ``q`` in [0, 1]: the upper bound of
        the bucket containing the ceil(q * count)-th sample."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of range: {q}")
        if self.count == 0:
            return 0.0
        target = max(1, math.ceil(q * self.count))
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= target:
                return self.bucket_upper_ns(index)
        return self.bucket_upper_ns(max(self.buckets))  # pragma: no cover

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def p999(self) -> float:
        return self.quantile(0.999)

    def as_dict(self) -> Dict[str, float]:
        """Headline percentiles for reports (all ns)."""
        return {
            "count": self.count,
            "p50_ns": self.p50,
            "p99_ns": self.p99,
            "p999_ns": self.p999,
            "max_ns": self.max_recorded,
        }


@dataclass
class NodeSnapshot:
    """One node's counters at a point in simulated time."""

    node_id: int
    rmc_counters: Dict[str, int]
    cache_stats: Dict[str, Dict[str, float]]
    tlb_hit_rate: float
    tlb_misses: int
    maq_peak: int
    itt_peak: int
    ni_packets_sent: int
    ni_packets_received: int
    ni_bytes_sent: int
    dram_bytes: int
    ct_cache_hit_rate: float
    driver_failures: int
    # Reliability counters (appended with defaults so callers that
    # construct snapshots positionally keep working).
    ni_checksum_dropped: int = 0
    ni_duplicates_dropped: int = 0
    fabric_node_stats: Dict[str, int] = field(default_factory=dict)
    suspected_nodes: int = 0
    #: Frames dropped because their sender's incarnation was fenced by
    #: the membership service (stale epoch — a dead node still talking).
    ni_epoch_fenced: int = 0
    #: Resilience counters (coded checkpoints / op log / degraded
    #: reads); empty dict when the node never touched the subsystem.
    resilience: Dict[str, int] = field(default_factory=dict)
    #: Multi-transport stack health: per-channel state/EWMAs plus
    #: failover/failback/veto counters for nodes driving a
    #: :class:`~repro.transport.session.FailoverSession`; empty dict
    #: otherwise.
    transport: Dict[str, object] = field(default_factory=dict)


@dataclass
class ClusterSnapshot:
    """All nodes plus fabric-level statistics."""

    time_ns: float
    nodes: List[NodeSnapshot]
    fabric_stats: Dict[str, int]
    #: Membership-service stats (epoch, evictions, rejoins, MTTR) when
    #: the cluster has one enabled; empty dict otherwise.
    membership_stats: Dict[str, float] = field(default_factory=dict)
    #: Engine accounting for parallel runs: per-partition
    #: ``events_processed`` / wall-clock plus totals (see
    #: :func:`merge_snapshots`). Deliberately *not* part of the model
    #: state — bit-exactness comparisons must exclude it, since wall
    #: clock differs run to run.
    engine_stats: Dict[str, object] = field(default_factory=dict)

    def node(self, node_id: int) -> NodeSnapshot:
        """One node's snapshot by id (partition-merge safe: snapshots
        of a partitioned cluster hold a subset of node ids)."""
        for node in self.nodes:
            if node.node_id == node_id:
                return node
        raise KeyError(f"no snapshot for node {node_id}")

    def total(self, attribute: str) -> int:
        """Sum a NodeSnapshot numeric field across nodes."""
        return sum(getattr(n, attribute) for n in self.nodes)


def _resilience_dict(cluster, node_id: int) -> Dict[str, int]:
    counters = getattr(cluster, "resilience", {}).get(node_id)
    return counters.as_dict() if counters is not None else {}


def _transport_dict(cluster, node_id: int) -> Dict[str, object]:
    stack = getattr(cluster, "transports", {}).get(node_id)
    return stack.stats() if stack is not None else {}


def snapshot(cluster) -> ClusterSnapshot:
    """Collect a :class:`ClusterSnapshot` from a live cluster."""
    nodes = []
    for node in cluster.nodes:
        rmc = node.rmc
        fabric = cluster.fabric
        node_stats = (fabric.node_stats(node.node_id)
                      if hasattr(fabric, "node_stats") else {})
        nodes.append(NodeSnapshot(
            node_id=node.node_id,
            rmc_counters=rmc.counters.as_dict(),
            cache_stats=node.memsys.cache_stats(),
            tlb_hit_rate=rmc.mmu.tlb.hit_rate,
            tlb_misses=rmc.mmu.tlb.misses,
            maq_peak=rmc.mmu.maq.peak_in_use,
            itt_peak=rmc.itt.peak_in_flight,
            ni_packets_sent=node.ni.packets_sent,
            ni_packets_received=node.ni.packets_received,
            ni_bytes_sent=node.ni.bytes_sent,
            dram_bytes=node.memsys.dram.bytes_transferred,
            ct_cache_hit_rate=rmc.ct_cache.hit_rate,
            driver_failures=len(node.driver.failures),
            ni_checksum_dropped=node.ni.checksum_dropped,
            ni_duplicates_dropped=node.ni.duplicates_dropped,
            fabric_node_stats=node_stats,
            suspected_nodes=len(node.driver.suspects),
            ni_epoch_fenced=getattr(node.ni, "epoch_fenced", 0),
            resilience=_resilience_dict(cluster, node.node_id),
            transport=_transport_dict(cluster, node.node_id),
        ))
    membership = getattr(cluster, "membership", None)
    return ClusterSnapshot(time_ns=cluster.sim.now, nodes=nodes,
                           fabric_stats=cluster.fabric.stats(),
                           membership_stats=(membership.stats()
                                             if membership is not None
                                             else {}))


def merge_snapshots(parts: List[ClusterSnapshot],
                    engine_stats: Optional[Dict[str, object]] = None
                    ) -> ClusterSnapshot:
    """Fold per-partition snapshots into one cluster-wide snapshot.

    Every counter increments on exactly one rank (deliveries at the
    destination's rank, drops and injector decisions at the source's),
    so fabric counters *sum* to the serial run's values and the node
    lists are disjoint — concatenation sorted by id reproduces the
    serial snapshot bit for bit. Membership stats are replicated state
    (every rank replays the same scheduled transitions), so they carry
    through as-is; two ranks reporting different non-empty stats raise
    ``ValueError``. ``engine_stats`` (typically
    ``PartitionedRun.engine_stats()``) is attached verbatim.
    """
    if not parts:
        raise ValueError("no snapshots to merge")
    nodes = sorted((n for p in parts for n in p.nodes),
                   key=lambda n: n.node_id)
    fabric: Dict[str, int] = {}
    membership: Dict[str, float] = {}
    for part in parts:
        for key, value in part.fabric_stats.items():
            fabric[key] = fabric.get(key, 0) + value
        if part.membership_stats:
            if membership and part.membership_stats != membership:
                raise ValueError(
                    f"ranks disagree on replicated membership stats: "
                    f"{part.membership_stats} != {membership}")
            membership = part.membership_stats
    return ClusterSnapshot(
        time_ns=max(p.time_ns for p in parts),
        nodes=nodes,
        fabric_stats=fabric,
        membership_stats=membership,
        engine_stats=engine_stats or {},
    )


def format_report(snap: ClusterSnapshot) -> str:
    """Human-readable end-of-run report."""
    lines = [
        f"cluster telemetry @ t={snap.time_ns / 1000:.1f} us",
        f"fabric: {snap.fabric_stats}",
    ]
    if snap.engine_stats:
        es = snap.engine_stats
        lines.append(
            f"engine: events={es.get('total_events_processed', 0)} "
            f"rounds={es.get('rounds', 0)} "
            f"wall={es.get('wall_s', 0.0):.3f}s "
            f"({es.get('events_per_sec', 0.0):,.0f} ev/s)")
        for part in es.get("partitions", []):
            nodes = part.get("nodes", [])
            lines.append(
                f"  partition {part.get('rank')}: nodes={nodes} "
                f"events={part.get('events_processed', 0)} "
                f"wall={part.get('wall_s', 0.0):.3f}s")
    if snap.membership_stats:
        ms = snap.membership_stats
        lines.append(
            f"membership: epoch={ms.get('epoch', 0)} "
            f"live={ms.get('live_members', 0)} "
            f"evictions={ms.get('evictions', 0)} "
            f"rejoins={ms.get('rejoins', 0)} "
            f"mttr={ms.get('mttr_ns', 0.0) / 1000:.1f} us")
    for node in snap.nodes:
        lines.append(f"node {node.node_id}:")
        lines.append(
            f"  rmc: served={node.rmc_counters.get('requests_served', 0)} "
            f"wq={node.rmc_counters.get('wq_requests', 0)} "
            f"lines={node.rmc_counters.get('lines_sent', 0)} "
            f"completions={node.rmc_counters.get('cq_completions', 0)}")
        lines.append(
            f"  mmu: tlb_hit={node.tlb_hit_rate:.2%} "
            f"maq_peak={node.maq_peak} itt_peak={node.itt_peak} "
            f"ct$_hit={node.ct_cache_hit_rate:.2%}")
        lines.append(
            f"  ni: tx={node.ni_packets_sent} rx={node.ni_packets_received} "
            f"tx_bytes={node.ni_bytes_sent}")
        lines.append(f"  dram bytes: {node.dram_bytes}")
        errors = {k: v for k, v in node.rmc_counters.items()
                  if k.startswith("errors_")}
        if errors:
            lines.append(f"  errors: {errors}")
        reliability = {
            "retransmissions":
                node.rmc_counters.get("retransmissions", 0),
            "lines_retransmitted":
                node.rmc_counters.get("lines_retransmitted", 0),
            "timed_out":
                node.rmc_counters.get("transactions_timed_out", 0),
            "stale_replies": node.rmc_counters.get("replies_stale", 0),
            "dup_replies": node.rmc_counters.get("replies_duplicate", 0),
            "crc_dropped": node.ni_checksum_dropped,
            "dup_frames_dropped": node.ni_duplicates_dropped,
            "link_drops": node.fabric_node_stats.get("packets_dropped", 0),
            "epoch_fenced": node.ni_epoch_fenced,
        }
        if any(reliability.values()):
            lines.append(f"  reliability: {reliability}")
        if any(node.resilience.values()):
            lines.append(f"  resilience: {node.resilience}")
        if node.transport:
            counters = node.transport.get("counters", {})
            channels = node.transport.get("channels", {})
            states = {name: ch.get("state")
                      for name, ch in channels.items()}
            lines.append(
                f"  transport: active={node.transport.get('active')} "
                f"policy={node.transport.get('policy')} "
                f"failovers={counters.get('failovers', 0)} "
                f"failbacks={counters.get('failbacks', 0)} "
                f"vetoes={counters.get('vetoes', 0)} "
                f"channels={states}")
        if node.driver_failures:
            lines.append(f"  fabric failures seen: {node.driver_failures}")
        if node.suspected_nodes:
            lines.append(f"  suspected peers: {node.suspected_nodes}")
    return "\n".join(lines)
