"""Run one benchmark workload, check its outputs and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload kv_serving --seed 1 --seconds 40 --trace 0

The workload repeats until ``--seconds`` of host time have passed, each
repetition on freshly built clusters with the same seeded inputs.
Host-time metrics are medians over the repetitions; simulated metrics
repeat exactly for a seed, and every repetition must produce the same
``sim_digest`` (a hash of every simulated output), which is printed on
the line before the result. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. A failed check prints ``"correct": false`` and exits 1.

With ``--trace 1`` untraced and traced repetitions alternate: the
traced ones give each package's self time, the untraced ones the
baseline for ``trace.overhead``. The spans of the last traced
repetition are written to ``.perfbench/<workload>.spans``.

See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, os.path.join(ROOT, "src"))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from tracer import NAMES, Tracer, patch  # noqa: E402

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "sim_ns_per_host_s": "ns/s",
    "peak_rss_mb": "MB", "sim_time_us": "us", "sim_mops": "Mops",
    "sim_gbytes_per_s": "GB/s", "sim_p50_ns": "ns", "sim_p99_ns": "ns",
    "ok_frac": "fraction",
}

_COUNTS = ("sim.events", "memory.accesses", "vm.translations",
           "rmc.wq_requests", "rmc.lines_sent", "rmc.requests_served",
           "rmc.itt_peak", "rmc.maq_peak", "rmc.retransmissions",
           "fabric.packets", "fabric.packets_dropped", "runtime.doorbells",
           "runtime.entries_per_doorbell", "trace.spans")
_FRACTIONS = ("memory.l1_hit_rate", "memory.l2_hit_rate",
              "vm.tlb_hit_rate", "rmc.ct_cache_hit_rate")
#: Per-layer metrics of one workload; 0 on the others.
_SERVING = {"serving.p99_ns.r8": "ns", "serving.p99_ns.r24": "ns",
            "serving.p99_ns.r48": "ns", "serving.slo_mops": "Mops"}
#: Inclusive host time of these Cluster methods, per repetition.
_SETUP_PHASES = {"__init__": "cluster.build_s",
                 "create_global_context": "cluster.context_s",
                 "poke_segment": "cluster.preload_s"}


def per_layer_units() -> dict:
    units = {f"{name}.self_s": "s" for name in NAMES}
    units.update({name: "count" for name in _COUNTS})
    units.update({name: "fraction" for name in _FRACTIONS})
    units.update(_SERVING)
    units.update({name: "s" for name in _SETUP_PHASES.values()})
    units.update({"memory.dram_bytes": "B", "fabric.bytes": "B",
                  "sim.events_per_s": "1/s", "trace.overhead": "ratio"})
    return units


def time_calls(owner, totals: dict):
    """Add the inclusive host time of each ``owner.<name>`` call to
    ``totals[name]``; returns the undo functions."""
    def make(name):
        def wrap(func):
            def timed(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return func(*args, **kwargs)
                finally:
                    totals[name] += time.perf_counter() - t0
            return timed
        return wrap
    return [patch(owner, name, make(name)) for name in totals]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the workload (the self-test uses it)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or not 0 < args.scale <= 1:
        parser.error("need --seed >= 0, --seconds > 0, 0 < --scale <= 1")

    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (choose "
              f"from {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    timer = time.perf_counter
    clock = workloads.PhaseClock()
    capture = {workloads.Cluster: [], workloads.PipelinedShardClient: []}
    phases = dict.fromkeys(_SETUP_PHASES, 0.0)
    undo = (workloads.capture_instances(list(capture), capture)
            + [workloads.hook_sim_run(clock, timer)]
            + time_calls(workloads.Cluster, phases))

    plain, phase_rows, traced, problems = [], [], [], []
    tracer = None
    start = timer()
    try:
        # Repeat while another repetition (or traced pair) still fits
        # in --seconds; there is always at least one.
        while True:
            began = timer()
            phases.update(dict.fromkeys(phases, 0.0))
            clock.reset()
            gc.collect()
            plain.append(workload.run(clock, capture, timer))
            phase_rows.append(dict(phases))
            if args.trace:
                tracer = Tracer()
                traced.append(traced_rep(tracer, workload, clock, capture,
                                         timer, problems))
            now = timer()
            if now + (now - began) - start > args.seconds:
                break
    finally:
        for fn in reversed(undo):
            fn()

    reps = plain + [rep for rep, _ in traced]
    for rep in reps:
        problems.extend(workload.check(rep))
    if len({rep.digest for rep in reps}) != 1:
        problems.append("repetitions disagree on the sim digest")
    for problem in dict.fromkeys(problems):
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    if args.trace:
        metrics = per_layer(plain, traced, phase_rows)
        metrics["trace.spans"] = tracer.spans
        units = per_layer_units()
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"{args.workload}.spans"))
    else:
        metrics = dict(plain[0].sim)
        metrics.update({
            "wall_s": statistics.median(rep.wall_s for rep in plain),
            "setup_s": statistics.median(rep.setup_s for rep in plain),
            "sim_ns_per_host_s": statistics.median(
                rep.sim_ns / rep.wall_s for rep in plain),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
        })
        units = END_TO_END
    print(f"sim_digest {args.workload} seed={args.seed} {plain[0].digest}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if not problems else 1


def traced_rep(tracer, workload, clock, capture, timer, problems):
    """One repetition under the tracer; returns ``(rep, run_self)``
    where ``run_self[i]`` is layer ``NAMES[i]``'s self time within the
    run phase. Checks that the self times add up to the traced
    ``wall_s``."""
    gc.collect()
    tracer.install()
    clock.reset()
    clock.on_cut = tracer.cut
    tracer.open_root()
    try:
        rep = workload.run(clock, capture, timer, tag=tracer.tag)
    finally:
        clock.on_cut = None
        tracer.uninstall()
    tracer.close_root()
    # Totals at each phase switch: run phases lie between pairs.
    cuts = clock.run_cuts
    run_self = [sum(end[i] - begin[i]
                    for begin, end in zip(cuts[0::2], cuts[1::2]))
                for i in range(len(NAMES))]
    if abs(sum(run_self) - rep.wall_s) > 1e-6 * rep.wall_s:
        problems.append(f"traced self times add up to {sum(run_self):.6f}"
                        f" s, not the traced wall_s {rep.wall_s:.6f} s")
    return rep, run_self


def per_layer(plain, traced, phase_rows) -> dict:
    """The ``--trace 1`` metrics: self times are medians over the traced
    repetitions; counts are exact; set-up phases and the overhead's
    baseline come from the untraced repetitions."""
    metrics = {f"{name}.self_s": statistics.median(
        run_self[i] for _, run_self in traced)
        for i, name in enumerate(NAMES)}
    rep = plain[0]
    metrics.update(rep.counts)
    metrics["sim.events_per_s"] = (metrics["sim.events"]
                                   / metrics["sim.self_s"])
    metrics.update(dict.fromkeys(_SERVING, 0.0))
    metrics.update(rep.extra)
    for key, name in _SETUP_PHASES.items():
        metrics[name] = statistics.median(row[key] for row in phase_rows)
    metrics["trace.overhead"] = (
        statistics.median(r.wall_s for r, _ in traced)
        / statistics.median(r.wall_s for r in plain))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
