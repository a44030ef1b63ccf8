"""One way to build and run a partitioned soNUMA scenario.

Every scenario in the repo — PageRank, BFS, fault-tolerant BSP, and the
KV, serving, and transport-failover harnesses — is one rack described
by a *builder*::

    build(rank, plan) -> (sim, fabric, finalize)

which constructs the part of the cluster that ``rank`` simulates under
``plan`` and returns its simulator, its fabric, and a ``finalize()``
callback producing that rank's results once the run ends.
:func:`run_scenario` decides how the rack is partitioned (worker count,
plan, transport) and runs it on the conservative parallel engine; one
worker is the plain serial engine on the same configuration.

The fault-scenario harnesses share more than the runner:

* :class:`ScenarioCluster` is the per-rank preamble — the cluster with
  membership, the replicated crash schedule, an optional front-end
  :class:`LinkFlaps` schedule, the global context, and the untimed
  segment preload — taken as data, so every rank replays it identically;
* :func:`merge_outcomes` folds the per-rank ``finalize()`` dicts into one
  outcome: rank-local fields must come from exactly one rank, replicated
  fields must agree on every rank.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from ..fabric.faults import FaultInjector
from ..sim import (PartitionedRun, PartitionPlan, default_transport,
                   plan_from_spec, run_partitioned)
from .cluster import Cluster, ClusterConfig, GlobalContext

__all__ = ["paired_config", "run_scenario", "check_finished", "LinkFlaps",
           "ScenarioCluster", "probe_deadline", "merge_outcomes",
           "REPLICATED_FIELDS"]

#: Health probes keep running this long past the workload and the last
#: link flap, so a failed-over front end always sees the fabric return.
_PROBE_TAIL_NS = 30_000.0

#: Outcome fields every rank replays identically (the scheduled
#: membership service's counters); see :func:`merge_outcomes`.
REPLICATED_FIELDS = ("membership",)


def paired_config(config: Optional[ClusterConfig],
                  num_nodes: int) -> ClusterConfig:
    """``config`` (default: ``num_nodes`` stock nodes) upgraded to
    paired flow control, which the partition cut requires (see
    :mod:`repro.fabric.partition`)."""
    config = config or ClusterConfig(num_nodes=num_nodes)
    if config.fabric.flow_control != "paired":
        config = replace(config, fabric=replace(config.fabric,
                                                flow_control="paired"))
    return config


def run_scenario(build: Callable, num_nodes: int, workers: Optional[int],
                 partition, transport: Optional[str]) -> PartitionedRun:
    """Run ``build`` partitioned over ``min(workers, num_nodes)`` ranks.

    ``partition`` is a :class:`~repro.sim.PartitionPlan`,
    ``"contiguous"``, or ``"adaptive"``; ``transport=None`` picks the
    fastest available. The returned run's ``results`` map each rank to
    its ``finalize()`` value; :meth:`~repro.sim.PartitionedRun.perf` is
    the wall-clock summary."""
    plan = plan_from_spec(partition, build, num_nodes,
                          min(workers or 1, num_nodes))
    return run_partitioned(
        build, plan, transport=transport or default_transport(plan.num_parts))


def check_finished(procs) -> None:
    """For a ``finalize()``: re-raise the first worker process that
    failed, and fail loudly on one that never finished (a deadlock)."""
    for proc in procs:
        if not proc.triggered:
            raise RuntimeError(f"{proc.name} did not finish (deadlock?)")
        if not proc.ok:
            raise proc.value


@dataclass(frozen=True)
class LinkFlaps:
    """``cycles`` full outages of every link of node ``hub`` (the
    front end), each ``down_ns`` long, one per ``period_ns`` starting
    at ``start_ns``."""

    hub: int
    start_ns: float
    cycles: int
    period_ns: float
    down_ns: float

    @property
    def end_ns(self) -> float:
        """When the last outage ends (0 with no cycles)."""
        if not self.cycles:
            return 0.0
        return (self.start_ns + (self.cycles - 1) * self.period_ns
                + self.down_ns)


def probe_deadline(busy_until_ns: float,
                   flaps: Optional[LinkFlaps]) -> float:
    """Until when a front end's health probes run: a fixed tail past
    both its workload and the last scheduled link outage."""
    flap_end = flaps.end_ns if flaps is not None else 0.0
    return max(busy_until_ns, flap_end) + _PROBE_TAIL_NS


@dataclass(frozen=True)
class ScenarioCluster:
    """The per-rank cluster preamble of a fault scenario, as data.

    :meth:`instantiate` builds, on one rank: the cluster (scheduled
    membership on a partitioned plan), the fault controller with every
    ``(victim, at_ns, restart_after_ns)`` crash, the ``flaps`` schedule
    on a per-link-stream fault injector, the global context, and the
    untimed ``(node_id, offset, data)`` preloads of the nodes it owns.
    Faults and flaps are scheduled identically on every rank — the
    partitioned crossbar re-checks reachability at frame delivery — so
    the run is partition-invariant."""

    config: ClusterConfig
    ctx_id: int
    segment_size: int
    hb_interval_ns: float
    lease_ns: float
    fault_seed: int
    qps_per_node: int = 1
    crashes: Sequence[Tuple[int, float, Optional[float]]] = ()
    flaps: Optional[LinkFlaps] = None
    preload: Sequence[Tuple[int, int, bytes]] = ()

    def instantiate(self, rank: int, plan: Optional[PartitionPlan]
                    ) -> Tuple[Cluster, GlobalContext]:
        cluster = Cluster(config=self.config, partition=plan, rank=rank)
        cluster.enable_membership(interval_ns=self.hb_interval_ns,
                                  lease_ns=self.lease_ns)
        controller = cluster.fault_controller(seed=self.fault_seed)
        for victim, at_ns, restart in self.crashes:
            controller.schedule_crash(victim, at_ns=at_ns,
                                      restart_after_ns=restart)
        flaps = self.flaps
        if flaps is not None:
            injector = FaultInjector(seed=self.fault_seed,
                                     per_link_streams=True)
            cluster.fabric.install_fault_injector(injector)
            for cycle in range(flaps.cycles):
                at = flaps.start_ns + cycle * flaps.period_ns
                for peer in range(self.config.num_nodes):
                    if peer != flaps.hub:
                        injector.flap_link(flaps.hub, peer, after_ns=at,
                                           down_ns=flaps.down_ns)
        gctx = cluster.create_global_context(
            self.ctx_id, self.segment_size, qps_per_node=self.qps_per_node)
        for nid, offset, data in self.preload:
            if nid in cluster.nodes:
                cluster.poke_segment(nid, self.ctx_id, offset, data)
        return cluster, gctx


def merge_outcomes(results: Mapping[int, Mapping[str, object]]
                   ) -> Dict[str, object]:
    """Fold per-rank ``finalize()`` dicts into one outcome.

    :data:`REPLICATED_FIELDS` are state every rank replays: each rank
    must report them, with equal values. Every other field is
    rank-local and must come from exactly one rank — except a dict
    (e.g. per-node digests) split over ranks with disjoint keys, which
    is unioned. Anything else means the scenario is not
    partition-invariant, and raises ``RuntimeError``."""
    merged: Dict[str, object] = {}
    for rank in sorted(results):
        part = results[rank]
        for field in REPLICATED_FIELDS:
            if field not in part:
                raise RuntimeError(
                    f"rank {rank} did not report replicated {field!r}")
        for field, value in part.items():
            if field not in merged:
                merged[field] = value
            elif field in REPLICATED_FIELDS:
                if merged[field] != value:
                    raise RuntimeError(
                        f"replicated {field!r} differs on rank {rank}: "
                        f"{value!r} != {merged[field]!r}")
            elif isinstance(value, dict) and isinstance(merged[field],
                                                        dict) \
                    and not merged[field].keys() & value.keys():
                merged[field] = {**merged[field], **value}
            else:
                raise RuntimeError(
                    f"rank-local {field!r} reported by more than one rank")
    return merged
