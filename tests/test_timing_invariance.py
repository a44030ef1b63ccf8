"""Timing invariance of the kernel fast paths and hot-path event elision.

The performance work (pooled events, the now-queue, bare-number yields,
``call_later`` elision, coalesced pipeline delays) must not move a
single simulated timestamp. These tests pin *exact float equality*
against golden values captured at the pre-optimization revision
(commit b29c655) on two end-to-end workloads:

* the chaos suite's zero-fault read/write workload (3 nodes, reliable
  transport armed, fault injector installed but silent), and
* a netpipe send/recv sweep through the full messaging stack.

Two later goldens pin the memory path (every access's completion time
and level on a small hierarchy) and the kernel's grant order (immediate
and waited :class:`~repro.sim.Resource` grants among zero-delay yields),
captured before the one-generator access path and immediate grants.

If any of these move, an "optimization" changed simulated behavior and
must be reverted — see docs/architecture.md, "Kernel fast paths".
"""

from __future__ import annotations

import hashlib

from repro.cluster import Cluster, ClusterConfig
from repro.fabric import FaultInjector, FaultPolicy
from repro.memory import CacheConfig, MemoryConfig, MemorySystem
from repro.node import NodeConfig
from repro.rmc import RMCConfig
from repro.runtime import RMCSession
from repro.sim import Resource, Simulator
from repro.vm import PAGE_SIZE, PhysicalMemory
from repro.workloads.netpipe import send_recv_latency

CTX = 1
SEG = 16 * PAGE_SIZE

# Golden timestamps from the pre-optimization kernel (exact floats).
GOLDEN_CHAOS_FINAL_NS = 50_000_000
GOLDEN_CHAOS_READ_TIMES = [
    464.6666666666667,
    464.6666666666667,
    476.1666666666667,
    799.8333333333334,
    903.3333333333334,
    914.8333333333334,
    1123.5,
    1227.0,
    1238.5000000000002,
    1458.6666666666667,
    1550.6666666666667,
    1585.166666666667,
    1793.8333333333335,
    1874.3333333333335,
    1908.8333333333337,
    2140.5,
    2209.5,
    2255.5000000000005,
    2475.6666666666665,
    2543.1666666666656,
    2590.666666666667,
    2822.333333333333,
    2889.833333333332,
    2937.3333333333335,
    3168.9999999999995,
    3231.666666666665,
    3272.5,
    3527.166666666666,
    3578.3333333333317,
    3630.999999999998,
    3885.3333333333326,
    3930.999999999999,
    3972.4999999999977,
    4185.999999999999,
    4284.666666666664,
    4289.166666666666,
]
GOLDEN_NETPIPE_LATENCY_US = [
    0.22075,
    0.9231666666666666,
    0.8973055555555535,
]


def _pattern(tag: int, length: int) -> bytes:
    return bytes((tag * 37 + i) & 0xFF for i in range(length))


def test_chaos_zero_fault_timestamps_bit_identical():
    """tests/test_chaos.py's zero-fault workload: every read completion
    time and the final clock match the pre-optimization kernel exactly."""
    rmc_cfg = RMCConfig(retransmit_timeout_ns=5000.0, max_retries=4)
    cluster = Cluster(config=ClusterConfig(
        num_nodes=3, node=NodeConfig(rmc=rmc_cfg)))
    cluster.fabric.install_fault_injector(
        FaultInjector(seed=7, default_policy=FaultPolicy()))
    gctx = cluster.create_global_context(CTX, SEG)
    sessions = {
        n: RMCSession(cluster.nodes[n].core, gctx.qp(n), gctx.entry(n))
        for n in range(3)
    }
    for peer in range(3):
        cluster.poke_segment(peer, CTX, 0, _pattern(peer, 2048))

    read_times = []

    def app(sim, n):
        session = sessions[n]
        lbuf = session.alloc_buffer(8192)
        for rnd in range(6):
            for peer in range(3):
                if peer == n:
                    continue
                size = 64 * (1 + (rnd + n + peer) % 8)
                yield from session.read_sync(peer, 0, lbuf, size)
                read_times.append(sim.now)
        sig = _pattern(0xA0 + n, 512)
        session.buffer_poke(lbuf, sig)
        for peer in range(3):
            if peer == n:
                continue
            yield from session.write_sync(peer, 4096 + n * 512, lbuf, 512)

    for n in range(3):
        cluster.sim.process(app(cluster.sim, n))
    cluster.run(until=50_000_000)

    assert cluster.sim.now == GOLDEN_CHAOS_FINAL_NS
    assert read_times == GOLDEN_CHAOS_READ_TIMES


def test_netpipe_sweep_timestamps_bit_identical():
    """A send/recv latency sweep through the full messaging stack lands
    on exactly the pre-optimization latencies."""
    results = send_recv_latency(sizes=(32, 256, 1024), threshold=256,
                                rounds=3)
    assert [r.latency_us for r in results] == GOLDEN_NETPIPE_LATENCY_US


# Golden memory-path run (see _memory_path_trace): 63 accesses.
GOLDEN_MEMORY_TRACE_SHA256 = (
    "a433c5168c9f8c194e1ecdc5e39df1342b26bb1e00641426b0065d74925a5b60")
GOLDEN_MEMORY_COUNTERS = {
    "now": 972.6666666666665, "events": 554,
    "l2": (25, 66, 17, 13, 0), "dram": (38, 13, 3264),
    "a": (42, 0, 43, 25, 2), "b": (7, 5, 13, 2, 0), "c": (14, 0, 14, 7, 6),
}


def _memory_path_trace():
    """Completion time and level of every access of a scripted mix on a
    small hierarchy (1 KB L1s, 4 KB L2), plus the final counters."""
    sim = Simulator()
    config = MemoryConfig(
        l1=CacheConfig(name="L1", size_bytes=1024, associativity=2,
                       latency_ns=1.5, mshrs=32),
        l2=CacheConfig(name="L2", size_bytes=4096, associativity=4,
                       latency_ns=3.0, mshrs=64))
    system = MemorySystem(sim, PhysicalMemory(64 * PAGE_SIZE), config)
    agents = [system.register_agent(name) for name in ("a", "b", "c")]
    trace = []

    def run(tag, agent, script):
        for delay, paddr, is_write, size, allocate in script:
            if delay:
                yield delay
            level = yield from agent.access(paddr, is_write=is_write,
                                            size=size, allocate=allocate)
            trace.append((tag, sim.now, level))

    # More than 32 concurrent misses on agent a's 32 MSHRs.
    for i in range(40):
        sim.process(run(f"burst{i}", agents[0],
                        [(0, 0x8000 + 64 * i, i % 3 == 0, 64, True)]))
    # Unaligned multi-line reads, partial and full-line writes,
    # streaming reads, and a write spanning a partial and full line.
    sim.process(run("mixed", agents[1], [
        (0, 0x1030, False, 200, True),
        (5, 0x2010, True, 16, True),
        (0, 0x2040, True, 64, True),
        (0, 0x2020, True, 160, True),
        (3, 0x3000, False, 256, False),
        (0, 0x1030, False, 200, True),
    ]))
    # Dirty L2 evictions: write-fill many lines of one L2 set.
    sim.process(run("evict", agents[2], [
        (2, 0x10000 + 1024 * k, True, 64, True) for k in range(12)]))
    # Cross-agent invalidation: c and a read a line, b writes it, then
    # both read it again.
    sim.process(run("share_c", agents[2], [
        (400, 0x5000, False, 64, True), (300, 0x5000, False, 64, True)]))
    sim.process(run("share_a", agents[0], [
        (420, 0x5000, False, 128, True), (300, 0x5000, False, 64, True)]))
    sim.process(run("share_b", agents[1], [
        (600, 0x5020, True, 32, True)]))
    sim.run()
    counters = {"now": sim.now, "events": sim.events_processed,
                "l2": (system.l2.hits, system.l2.misses, system.l2.evictions,
                       system.l2.writebacks, system.l2.invalidations),
                "dram": (system.dram.reads, system.dram.writes,
                         system.dram.bytes_transferred)}
    for agent in agents:
        counters[agent.name] = (agent.accesses, agent.l1.hits,
                                agent.l1.misses, agent.l1.evictions,
                                agent.l1.invalidations)
    return trace, counters


def test_memory_path_timestamps_bit_identical():
    """Unaligned multi-line reads, partial/full-line writes, streaming
    reads, dirty L2 evictions, MSHR contention and cross-agent
    invalidation land on exactly the golden times, levels and counters."""
    trace, counters = _memory_path_trace()
    assert len(trace) == 63
    assert trace[:2] == [("burst0", 4.5, "l2"), ("burst3", 4.5, "l2")]
    assert hashlib.sha256(repr(trace).encode()).hexdigest() \
        == GOLDEN_MEMORY_TRACE_SHA256
    assert counters == GOLDEN_MEMORY_COUNTERS


GOLDEN_GRANT_ORDER = [
    ("u0", "granted", 0.0), ("b0", "tick", 0.0), ("u1", "granted", 0.0),
    ("b1", "tick", 0.0), ("b0", "tick", 0.0), ("u1", "released", 0.0),
    ("b1", "tick", 0.0), ("b0", "tick", 0.0), ("u3", "granted", 0.0),
    ("b1", "tick", 0.0), ("b0", "woke", 0.0), ("b1", "woke", 0.0),
    ("u0", "released", 2.0), ("u3", "released", 2.0),
    ("u2", "granted", 2.0), ("u4", "granted", 2.0),
    ("u4", "released", 2.5), ("u5", "granted", 2.5),
    ("u5", "released", 2.5), ("u2", "released", 3.0),
]


def test_immediate_and_waited_grants_keep_resume_order():
    """A free slot is granted on the pooled path and a contended one
    through an event; both resume in the golden order among zero-delay
    yields and event hand-offs at equal timestamps."""
    sim = Simulator()
    res = Resource(sim, capacity=2)
    order = []

    def user(tag, hold, pre):
        if pre is not None:
            yield pre
        yield res.acquire()
        order.append((tag, "granted", sim.now))
        yield hold
        res.release()
        order.append((tag, "released", sim.now))

    def bystander(tag):
        for _ in range(3):
            yield None
            order.append((tag, "tick", sim.now))
        wake = sim.event()
        wake.succeed()
        yield wake
        order.append((tag, "woke", sim.now))

    sim.process(user("u0", 2.0, None))
    sim.process(bystander("b0"))
    sim.process(user("u1", 0, None))
    sim.process(user("u2", 1.0, 0))
    sim.process(user("u3", 2.0, None))
    sim.process(bystander("b1"))
    sim.process(user("u4", 0.5, 2.0))
    sim.process(user("u5", 0, 2.0))
    sim.run()
    assert order == GOLDEN_GRANT_ORDER
    assert sim.events_processed == 39
