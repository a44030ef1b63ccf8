"""Cluster assembly: multi-node systems, global contexts, membership,
node-level fault injection, and the partitioned scenario runner."""

from .cluster import Cluster, ClusterConfig, GlobalContext
from .failures import FaultEvent, NodeFaultController
from .membership import MemberRecord, MembershipService, MemberState
from .scenario import (LinkFlaps, ScenarioCluster, check_finished,
                       merge_outcomes, paired_config, probe_deadline,
                       run_scenario)

__all__ = [
    "Cluster",
    "ClusterConfig",
    "FaultEvent",
    "GlobalContext",
    "LinkFlaps",
    "MemberRecord",
    "MemberState",
    "MembershipService",
    "NodeFaultController",
    "ScenarioCluster",
    "check_finished",
    "merge_outcomes",
    "paired_config",
    "probe_deadline",
    "run_scenario",
]
