"""Self-test of the benchmark, at a tiny size.

Usage, from the root of the repository::

    python3 perfbench/selftest.py

For every workload it checks that

* an untraced and a traced run pass their checks and print exactly the
  metrics ``BENCHMARK.json`` lists, each with its unit;
* a corrupted result fails the correctness check: a wrong GET value
  (``kv_serving``), a wrong byte in remote memory
  (``remote_rw_stream``), a flipped rank (``pagerank_bulk``);
* another seed changes the generated inputs but not the set of metrics.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import run  # puts the simulator's src/ on sys.path

import workloads
from repro.apps.kvstore import BUCKET_BYTES

SCALE = "0.05"
MANIFEST = os.path.join(run.ROOT, "BENCHMARK.json")


def bench(workload: str, seed: int, trace: int = 0):
    """Run the benchmark in-process; returns (exit code, result)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "0.001", "--trace", str(trace),
                         "--scale", SCALE])
    return code, json.loads(out.getvalue().splitlines()[-1])


def declared(key: str) -> dict:
    with open(MANIFEST) as fh:
        manifest = json.load(fh)
    return {m["name"]: m["unit"] for m in manifest[key]}


def printed(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@contextlib.contextmanager
def patched(owner, name: str, make):
    undo = run.patch(owner, name, make)
    try:
        yield
    finally:
        undo()


def corrupt_kv_values(poke):
    """Flip the first value byte of every occupied bucket preloaded."""
    def poke_segment(cluster, node_id, ctx_id, offset, data):
        data = bytearray(data)
        for at in range(0, len(data), BUCKET_BYTES):
            if any(data[at:at + 8]):
                data[at + 10] ^= 0xFF
        return poke(cluster, node_id, ctx_id, offset, bytes(data))
    return poke_segment


def corrupt_read_target(seed: int):
    """Flip one preloaded byte that the first read of ``seed`` returns."""
    stream = workloads.RemoteRWStream(seed, float(SCALE))
    target = next(op[1] for op in stream.ops if op[0] == "r")

    def make(poke):
        def poke_segment(cluster, node_id, ctx_id, offset, data):
            if offset <= target < offset + len(data):
                data = bytearray(data)
                data[target - offset] ^= 0xFF
            return poke(cluster, node_id, ctx_id, offset, bytes(data))
        return poke_segment
    return make


def flip_a_rank(run_bulk):
    def run_sonuma_bulk(*args, **kwargs):
        result = run_bulk(*args, **kwargs)
        result.ranks[0] = -result.ranks[0]
        return result
    return run_sonuma_bulk


def corruptions(seed: int):
    return {
        "kv_serving": (workloads.Cluster, "poke_segment", corrupt_kv_values),
        "remote_rw_stream": (workloads.Cluster, "poke_segment",
                             corrupt_read_target(seed)),
        "pagerank_bulk": (workloads, "run_sonuma_bulk", flip_a_rank),
    }


def inputs_of(workload: str, seed: int):
    w = workloads.WORKLOADS[workload](seed, float(SCALE))
    if workload == "kv_serving":
        return w.expected_digest
    if workload == "remote_rw_stream":
        return w.ops
    return w.reference


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    end_to_end, per_layer = declared("end_to_end"), declared("per_layer")
    seed, other = 3, 4
    for name in workloads.WORKLOADS:
        code, result = bench(name, seed)
        expect(code == 0 and result["correct"], f"{name}: run passes")
        expect(printed(result) == end_to_end,
               f"{name}: prints every end-to-end metric with its unit")
        code, traced = bench(name, seed, trace=1)
        expect(code == 0 and traced["correct"], f"{name}: traced run passes")
        expect(printed(traced) == per_layer,
               f"{name}: prints every per-layer metric with its unit")

        owner, attr, make = corruptions(seed)[name]
        with patched(owner, attr, make):
            code, bad = bench(name, seed)
        expect(code == 1 and not bad["correct"],
               f"{name}: a corrupted result fails the check")

        expect(inputs_of(name, seed) != inputs_of(name, other),
               f"{name}: another seed changes the inputs")
        code, result_other = bench(name, other)
        expect(code == 0 and printed(result_other) == printed(result),
               f"{name}: another seed prints the same metrics")
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
