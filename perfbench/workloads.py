"""The benchmark's workloads: inputs from a seed, one timed repetition,
and the checks on the program's outputs.

Each workload is a class with

* ``__init__(seed, scale)`` — derives the workload's input seeds from
  ``seed`` and fixes what the checks compare against (``scale`` < 1
  shrinks the workload for the self-test);
* ``run(clock, capture, timer, tag)`` — one repetition over every
  input. Input generation, cluster build and preload are the set-up
  phase; the phase clock switches to the run phase at the first
  ``Simulator.run`` of a program call and back when the call returns.
  Returns a :class:`Rep`;
* ``check(rep)`` — the problems with the outputs (empty if correct).

A run covers ``INPUTS`` seeded inputs so that its figures average over
the properties a single seed fixes by chance (which shard the hottest
keys land on, a graph's edge count). All modelled caches start empty:
every program call builds a new cluster.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import random
from typing import Dict, List, Optional

from repro.apps import pagerank_reference, run_sonuma_bulk, zipf_graph
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.runtime.barrier import Barrier
from repro.runtime.qp_api import RMCSession
from repro.serving import (PipelinedShardClient, TraceConfig, generate_trace,
                           run_serving, trace_digest)
from repro.sim.engine import Simulator
from repro.telemetry import LogLinearHistogram, snapshot
from repro.vm.address import CACHE_LINE_SIZE, PAGE_SIZE
from repro.workloads.pagerank_sweep import scaled_node_config

from tracer import patch

#: The serving SLO: p99 GET latency, simulated ns.
SLO_NS = 5_000.0


@dataclasses.dataclass
class Rep:
    """What one repetition produced."""

    setup_s: float
    wall_s: float
    sim_ns: float                  # simulated ns run, all clusters summed
    sim: Dict[str, float]          # the sim_* metrics
    attempted: int
    failed: int
    outputs: Dict[str, object]     # what check() inspects
    counts: Dict[str, float]       # per-layer counts (see LayerTally)
    digest: str
    extra: Dict[str, float] = dataclasses.field(default_factory=dict)


class PhaseClock:
    """Host time split into set-up and run phases.

    ``begin()`` starts a program call in the set-up phase; the first
    ``Simulator.run`` after it switches to the run phase; ``end()``
    closes the call. ``on_cut(t)`` (the tracer's cut) runs at every
    switch with the same timestamp, so the tracer's run-phase totals
    cover exactly the run-phase intervals measured here.
    """

    def __init__(self):
        self.on_cut = None
        self.reset()

    def reset(self) -> None:
        self.setup_s = 0.0
        self.wall_s = 0.0
        self.run_cuts: List[list] = []
        self._t0: Optional[float] = None
        self._running = False

    def begin(self, now: float) -> None:
        self._t0 = now
        self._running = False

    def sim_run(self, now: float) -> None:
        if self._t0 is None or self._running:
            return
        self.setup_s += now - self._t0
        self._t0 = now
        self._running = True
        self._cut(now)

    def end(self, now: float) -> None:
        if self._running:
            self.wall_s += now - self._t0
            self._cut(now)
        else:
            self.setup_s += now - self._t0
        self._t0 = None
        self._running = False

    def _cut(self, now: float) -> None:
        if self.on_cut is not None:
            self.run_cuts.append(self.on_cut(now))


def capture_instances(classes, sink: Dict[type, list]):
    """Record every instance of ``classes`` constructed from now on in
    ``sink[cls]``; returns the undo functions."""
    def make(cls):
        def wrap(init):
            def __init__(self, *args, **kwargs):
                init(self, *args, **kwargs)
                sink[cls].append(self)
            return __init__
        return wrap
    return [patch(cls, "__init__", make(cls)) for cls in classes]


def hook_sim_run(clock: PhaseClock, timer):
    """Tell ``clock`` when ``Simulator.run`` is entered; returns the
    undo function."""
    def wrap(run):
        def traced_run(self, *args, **kwargs):
            clock.sim_run(timer())
            return run(self, *args, **kwargs)
        return traced_run
    return patch(Simulator, "run", wrap)


def quantile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank quantile (the value at rank ceil(q * n))."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def digest_of(*parts) -> str:
    """sha256 of the JSON of every simulated output (floats exact)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(json.dumps(part, sort_keys=True, default=repr).encode())
    return h.hexdigest()


def telemetry_of(clusters: List[Cluster]) -> list:
    """Every cluster's telemetry snapshot as plain data."""
    out = []
    for cluster in clusters:
        snap = dataclasses.asdict(snapshot(cluster))
        snap.pop("engine_stats")
        out.append(snap)
    return out


def lines_sent(clusters: List[Cluster]) -> int:
    return sum(node.rmc.counters["lines_sent"]
               for cluster in clusters for node in cluster.nodes)


def release(capture: Dict[type, list]) -> None:
    """Drop the captured instances and collect them now, between timed
    phases: a cluster holds 32 MB per node, and its reference cycles
    would otherwise wait for a collection inside a later timed phase."""
    for instances in capture.values():
        instances.clear()
    gc.collect()


def sub_seeds(seed: int, count: int) -> List[int]:
    """``count`` input seeds for run seed ``seed``; disjoint across
    run seeds."""
    return [seed * count + j for j in range(count)]


# ---------------------------------------------------------------------------
# kv_serving
# ---------------------------------------------------------------------------

class KVServing:
    """Open-loop Zipf GETs against two shards at three offered rates."""

    name = "kv_serving"
    RATES = (8, 24, 48)
    INPUTS = 5

    def __init__(self, seed: int, scale: float = 1.0):
        self.seeds = sub_seeds(seed, self.INPUTS)
        self.params = dict(num_shards=2, duration_ns=30_000.0 * scale,
                           window=64, batch=16, num_clients=1_000_000,
                           num_keys=128, num_buckets=512, zipf_s=0.99)
        self.expected_digest = {}
        for s in self.seeds:
            for rate in self.RATES:
                trace = generate_trace(TraceConfig(
                    rate_mops=rate, duration_ns=self.params["duration_ns"],
                    num_clients=self.params["num_clients"],
                    num_keys=self.params["num_keys"],
                    zipf_s=self.params["zipf_s"], seed=s))
                self.expected_digest[s, rate] = trace_digest(trace)

    def run(self, clock: PhaseClock, capture: Dict[type, list], timer,
            tag=None) -> Rep:
        outcomes = {}
        tally = LayerTally()
        telemetry = []
        top = self.RATES[-1]
        top_lines = 0
        hists = {rate: LogLinearHistogram() for rate in self.RATES}
        for s in self.seeds:
            for rate in self.RATES:
                clock.begin(timer())
                outcomes[s, rate] = run_serving(rate_mops=rate, seed=s,
                                                **self.params)["outcome"]
                clock.end(timer())
                clusters = capture[Cluster]
                tally.add(clusters)
                telemetry.append(telemetry_of(clusters))
                if rate == top:
                    top_lines += lines_sent(clusters)
                for client in capture[PipelinedShardClient]:
                    hists[rate].merge(client.histogram)
                release(capture)
        at_top = [outcomes[s, top] for s in self.seeds]
        span_ns = sum(o["final_time"] for o in at_top)
        meets = [rate for rate in self.RATES
                 if hists[rate].p99 <= SLO_NS
                 and sum(outcomes[s, rate]["served"] for s in self.seeds)
                 >= 0.99 * sum(outcomes[s, rate]["num_requests"]
                               for s in self.seeds)]
        return Rep(
            setup_s=clock.setup_s, wall_s=clock.wall_s,
            sim_ns=sum(o["final_time"] for o in outcomes.values()),
            sim={"sim_time_us": span_ns / len(self.seeds) / 1e3,
                 "sim_mops": sum(o["served_mops"] for o in at_top)
                 / len(at_top),
                 "sim_gbytes_per_s": top_lines * CACHE_LINE_SIZE / span_ns,
                 "sim_p50_ns": hists[top].p50,
                 "sim_p99_ns": hists[top].p99},
            attempted=sum(o["num_requests"] for o in outcomes.values()),
            failed=sum(o["failed"] + o["wrong"] for o in outcomes.values()),
            outputs={"outcomes": outcomes},
            counts=tally.metrics(),
            digest=digest_of(
                {f"{s}@{rate}": o for (s, rate), o in outcomes.items()},
                {rate: h.buckets for rate, h in hists.items()},
                telemetry),
            extra={**{f"serving.p99_ns.r{rate}": hists[rate].p99
                      for rate in self.RATES},
                   "serving.slo_mops": float(max(meets, default=0))})

    def check(self, rep: Rep) -> List[str]:
        problems = []
        for (s, rate), out in rep.outputs["outcomes"].items():
            where = f"seed {s} at {rate} Mops"
            if out["wrong"]:
                problems.append(f"{where}: {out['wrong']} GETs returned a "
                                "wrong value")
            if out["served"] + out["failed"] != out["num_requests"]:
                problems.append(f"{where}: served + failed != requests")
            if out["trace_digest"] != self.expected_digest[s, rate]:
                problems.append(f"{where}: trace digest differs from the "
                                "load generator's")
        return problems


# ---------------------------------------------------------------------------
# remote_rw_stream
# ---------------------------------------------------------------------------

class RemoteRWStream:
    """Node 0 streams async one-sided reads and writes into node 1."""

    name = "remote_rw_stream"
    INPUTS = 1
    CTX = 1
    REGION = 6 * 1024 * 1024     # larger than the 4 MB modelled LLC
    WINDOW = 32
    SIZES = ((64, 0.60), (512, 0.25), (4096, 0.15))
    WRITE_SHARE = 0.3

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = sub_seeds(seed, self.INPUTS)[0]
        self.num_ops = max(20, int(1500 * scale))
        self.pattern, self.ops = self.generate()

    def generate(self):
        """The preload pattern and the op list of (kind, offset, size,
        payload). The kind and size mixes are exact and only their
        order is random, so seeds differ in order and offsets, not in
        the amount of work. Writes go to pages no other op touches, so
        every read must return the preload pattern whatever order the
        window completes in."""
        rng = random.Random(self.seed)
        pattern = rng.randbytes(self.REGION)
        pages = list(range(self.REGION // PAGE_SIZE))
        rng.shuffle(pages)
        writes = round(self.num_ops * self.WRITE_SHARE)
        kinds = ["w"] * writes + ["r"] * (self.num_ops - writes)
        rng.shuffle(kinds)
        sizes = []
        for size, share in self.SIZES[1:]:
            sizes += [size] * round(self.num_ops * share)
        sizes += [self.SIZES[0][0]] * (self.num_ops - len(sizes))
        rng.shuffle(sizes)
        write_pages = iter(pages[:writes])
        read_pages = pages[writes:]
        ops = []
        for kind, size in zip(kinds, sizes):
            if kind == "w":
                ops.append(("w", next(write_pages) * PAGE_SIZE, size,
                            rng.randbytes(size)))
            else:
                ops.append(("r", rng.choice(read_pages) * PAGE_SIZE, size,
                            None))
        return pattern, ops

    def run(self, clock: PhaseClock, capture: Dict[type, list], timer,
            tag=None) -> Rep:
        clock.begin(timer())
        pattern, ops = self.generate()
        cluster = Cluster(config=ClusterConfig(num_nodes=2))
        gctx = cluster.create_global_context(self.CTX, self.REGION)
        cluster.poke_segment(1, self.CTX, 0, pattern)
        session = RMCSession(cluster.nodes[0].core, gctx.qp(0),
                             gctx.entry(0))
        buf = session.alloc_buffer(self.WINDOW * PAGE_SIZE)
        sim = cluster.sim
        issued = [0.0] * len(ops)
        done_at: List[Optional[float]] = [None] * len(ops)
        read_back: Dict[int, bytes] = {}
        free = list(range(self.WINDOW))

        def completion(i: int, slot: int):
            def callback(cq_entry):
                done_at[i] = sim.now
                kind, _offset, size, _payload = ops[i]
                if kind == "r":
                    read_back[i] = session.buffer_peek(
                        buf + slot * PAGE_SIZE, size)
                free.append(slot)
            return callback

        def stream(sim):
            for i, (kind, offset, size, payload) in enumerate(ops):
                yield from session.wait_for_slot()
                while not free:
                    yield from session.poll_once()
                slot = free.pop()
                local = buf + slot * PAGE_SIZE
                issued[i] = sim.now
                if kind == "w":
                    session.buffer_poke(local, payload)
                    op = session.write_async(1, offset, local, size,
                                             callback=completion(i, slot))
                else:
                    op = session.read_async(1, offset, local, size,
                                            callback=completion(i, slot))
                yield from (tag(op, i) if tag is not None else op)
            yield from session.drain_cq()

        sim.process(stream(sim), name="perfbench.stream")
        cluster.run()
        final_sha = hashlib.sha256(
            cluster.peek_segment(1, self.CTX, 0, self.REGION)).hexdigest()
        clock.end(timer())
        tally = LayerTally()
        tally.add(capture[Cluster])
        telemetry = telemetry_of(capture[Cluster])
        release(capture)

        latency = [done - start for start, done in zip(issued, done_at)
                   if done is not None]
        ordered = sorted(latency)
        span_ns = sim.now
        return Rep(
            setup_s=clock.setup_s, wall_s=clock.wall_s, sim_ns=span_ns,
            sim={"sim_time_us": span_ns / 1e3,
                 "sim_mops": len(ordered) / span_ns * 1e3,
                 "sim_gbytes_per_s": sum(op[2] for op in ops) / span_ns,
                 "sim_p50_ns": quantile(ordered, 0.50),
                 "sim_p99_ns": quantile(ordered, 0.99)},
            attempted=len(ops), failed=len(ops) - len(latency),
            outputs={"read_back": read_back, "final_sha": final_sha,
                     "errors": len(session.errors)},
            counts=tally.metrics(),
            digest=digest_of(latency, final_sha, telemetry))

    def check(self, rep: Rep) -> List[str]:
        problems = []
        read_back = rep.outputs["read_back"]
        reads = [i for i, op in enumerate(self.ops) if op[0] == "r"]
        wrong = [i for i in reads
                 if read_back.get(i) != self.pattern[
                     self.ops[i][1]:self.ops[i][1] + self.ops[i][2]]]
        if wrong:
            problems.append(f"{len(wrong)} of {len(reads)} reads returned "
                            f"wrong bytes (first: op {wrong[0]})")
        region = bytearray(self.pattern)
        for kind, offset, size, payload in self.ops:
            if kind == "w":
                region[offset:offset + size] = payload
        if rep.outputs["final_sha"] != hashlib.sha256(region).hexdigest():
            problems.append("final region differs from the preload "
                            "pattern with every write applied")
        if rep.outputs["errors"]:
            problems.append(f"{rep.outputs['errors']} error completions")
        if rep.failed:
            problems.append(f"{rep.failed} ops never completed")
        return problems


# ---------------------------------------------------------------------------
# pagerank_bulk
# ---------------------------------------------------------------------------

class PageRankBulk:
    """Fig. 9 soNUMA(bulk) PageRank on two nodes with scaled caches."""

    name = "pagerank_bulk"
    INPUTS = 3
    NODES = 2
    LLC_BYTES = 16 * 1024      # per node: 32 KB aggregate, as in Fig. 9
    SUPERSTEPS = 3

    def __init__(self, seed: int, scale: float = 1.0):
        self.seeds = sub_seeds(seed, self.INPUTS)
        self.vertices = max(64, int(1024 * scale))
        self.reference = {
            s: pagerank_reference(
                zipf_graph(self.vertices, avg_degree=4, seed=s),
                self.SUPERSTEPS)
            for s in self.seeds}

    def run(self, clock: PhaseClock, capture: Dict[type, list], timer,
            tag=None) -> Rep:
        # Superstep time of a node: from its arrival at one barrier to
        # its arrival at the next (the soNUMA(bulk) worker enters one
        # barrier per superstep and one at the end).
        arrivals: Dict[int, List[float]] = {}

        def wrap(wait):
            def timed_wait(barrier):
                arrivals.setdefault(id(barrier), []).append(
                    barrier.session.core.sim.now)
                return wait(barrier)
            return timed_wait

        ranks = {}
        elapsed = {}
        tally = LayerTally()
        telemetry = []
        remote_lines = 0
        undo = patch(Barrier, "wait", wrap)
        try:
            for s in self.seeds:
                clock.begin(timer())
                graph = zipf_graph(self.vertices, avg_degree=4, seed=s)
                config = ClusterConfig(num_nodes=self.NODES,
                                       node=scaled_node_config(
                                           llc_bytes=self.LLC_BYTES))
                result = run_sonuma_bulk(graph, self.NODES,
                                         supersteps=self.SUPERSTEPS,
                                         cluster_config=config, seed=s)
                clock.end(timer())
                tally.add(capture[Cluster])
                telemetry.append(telemetry_of(capture[Cluster]))
                remote_lines += lines_sent(capture[Cluster])
                release(capture)
                ranks[s] = result.ranks
                elapsed[s] = result.elapsed_ns
        finally:
            undo()
        steps = sorted(b - a for times in arrivals.values()
                       for a, b in zip(times, times[1:]))
        span_ns = sum(elapsed.values())
        return Rep(
            setup_s=clock.setup_s, wall_s=clock.wall_s, sim_ns=span_ns,
            sim={"sim_time_us": span_ns / len(self.seeds) / 1e3,
                 "sim_mops": self.vertices * len(self.seeds)
                 * self.SUPERSTEPS / span_ns * 1e3,
                 "sim_gbytes_per_s": remote_lines * CACHE_LINE_SIZE
                 / span_ns,
                 "sim_p50_ns": quantile(steps, 0.50),
                 "sim_p99_ns": quantile(steps, 0.99)},
            attempted=self.vertices * len(self.seeds),
            failed=sum(self._wrong(s, ranks[s]) for s in self.seeds),
            outputs={"ranks": ranks, "supersteps": len(steps)},
            counts=tally.metrics(),
            digest=digest_of({str(s): r for s, r in ranks.items()},
                             {str(s): t for s, t in elapsed.items()},
                             steps, telemetry))

    def _wrong(self, seed: int, ranks: List[float]) -> int:
        reference = self.reference[seed]
        if len(ranks) != len(reference):
            return len(reference)
        return sum(1 for a, b in zip(ranks, reference)
                   if not math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0))

    def check(self, rep: Rep) -> List[str]:
        problems = [f"seed {s}: {self._wrong(s, ranks)} ranks differ from "
                    "pagerank_reference"
                    for s, ranks in rep.outputs["ranks"].items()
                    if self._wrong(s, ranks)]
        expected = len(self.seeds) * self.NODES * self.SUPERSTEPS
        if rep.outputs["supersteps"] != expected:
            problems.append(f"{rep.outputs['supersteps']} node supersteps "
                            f"timed, expected {expected}")
        return problems


WORKLOADS = {w.name: w for w in (KVServing, RemoteRWStream, PageRankBulk)}


# ---------------------------------------------------------------------------
# Per-layer counts (read from the clusters after each program call)
# ---------------------------------------------------------------------------

class LayerTally:
    """Simulated per-layer counts summed over clusters. They repeat
    exactly for a seed."""

    _RMC = ("wq_requests", "lines_sent", "requests_served",
            "retransmissions")

    def __init__(self):
        self.n = dict.fromkeys(
            ("events", "l1_hits", "l1_all", "l2_hits", "l2_all", "dram",
             "tlb_hits", "tlb_all", "ct_hits", "ct_all", "itt_peak",
             "maq_peak", "packets", "bytes", "dropped", "doorbells",
             "posted") + self._RMC, 0)

    def add(self, clusters: List[Cluster]) -> None:
        n = self.n
        for cluster in clusters:
            n["events"] += cluster.sim.events_processed
            n["dropped"] += cluster.fabric.stats().get("dropped", 0)
            for node in cluster.nodes:
                memsys = node.memsys
                for port in memsys.agents.values():
                    n["l1_hits"] += port.l1.hits
                    n["l1_all"] += port.l1.hits + port.l1.misses
                n["l2_hits"] += memsys.l2.hits
                n["l2_all"] += memsys.l2.hits + memsys.l2.misses
                n["dram"] += memsys.dram.bytes_transferred
                rmc = node.rmc
                n["tlb_hits"] += rmc.mmu.tlb.hits
                n["tlb_all"] += rmc.mmu.tlb.hits + rmc.mmu.tlb.misses
                n["ct_hits"] += rmc.ct_cache.hits
                n["ct_all"] += rmc.ct_cache.hits + rmc.ct_cache.misses
                n["itt_peak"] = max(n["itt_peak"], rmc.itt.peak_in_flight)
                n["maq_peak"] = max(n["maq_peak"], rmc.mmu.maq.peak_in_use)
                for key in self._RMC:
                    n[key] += rmc.counters[key]
                n["packets"] += node.ni.packets_sent
                n["bytes"] += node.ni.bytes_sent
                for entry in node.driver.contexts.values():
                    for qp in entry.qps:
                        n["doorbells"] += qp.wq.doorbells
                        n["posted"] += qp.wq.posted_total

    def metrics(self) -> Dict[str, float]:
        n = self.n

        def ratio(a: str, b: str) -> float:
            return n[a] / n[b] if n[b] else 0.0
        counts = {
            "sim.events": n["events"],
            "memory.accesses": n["l1_all"],
            "memory.l1_hit_rate": ratio("l1_hits", "l1_all"),
            "memory.l2_hit_rate": ratio("l2_hits", "l2_all"),
            "memory.dram_bytes": n["dram"],
            "vm.translations": n["tlb_all"],
            "vm.tlb_hit_rate": ratio("tlb_hits", "tlb_all"),
            "rmc.itt_peak": n["itt_peak"],
            "rmc.maq_peak": n["maq_peak"],
            "rmc.ct_cache_hit_rate": ratio("ct_hits", "ct_all"),
            "fabric.packets": n["packets"],
            "fabric.bytes": n["bytes"],
            "fabric.packets_dropped": n["dropped"],
            "runtime.doorbells": n["doorbells"],
            "runtime.entries_per_doorbell": ratio("posted", "doorbells"),
        }
        counts.update({f"rmc.{key}": n[key] for key in self._RMC})
        return counts
