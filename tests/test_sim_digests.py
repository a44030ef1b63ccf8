"""Every simulated output of the benchmark workloads, pinned.

``perfbench/run.py`` prints a ``sim_digest``: a hash of every simulated
output of a run (latencies, ranks, read-back bytes, final memory, GET
outcomes, telemetry snapshots). A host-time optimisation must leave all
of them bit-identical, so a shrunk run of each workload is pinned here
against digests captured before the memory, translation and reply hot
path was reworked.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

GOLDEN_DIGESTS = {
    "kv_serving":
        "93fb1ac5e415dccb74f3f6e4f2ecf9736e63180e0d742a8e18d64282797a42ca",
    "remote_rw_stream":
        "8cdf4bb518c69458bbe4303d7b1032cdf63ed0a35d37ed8a7141bc4669c5afc9",
    "pagerank_bulk":
        "31d8696a2f5ff2f560ed86e2f3f66979d1d88cb8bb6a950b1e23628406d0bb8b",
}


@pytest.mark.parametrize("workload", sorted(GOLDEN_DIGESTS))
def test_benchmark_sim_digest_is_pinned(workload):
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0.01",
         "--scale", "0.1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.strip().splitlines()
    assert json.loads(lines[-1])["correct"] is True
    assert lines[-2] == (f"sim_digest {workload} seed=1 "
                         f"{GOLDEN_DIGESTS[workload]}")
