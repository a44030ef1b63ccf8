"""Conservative parallel discrete-event engine (node-partitioned PDES).

The cluster model partitions naturally at fabric-link boundaries: every
inter-node interaction crosses a link with a known minimum delay, which
is exactly the *lookahead* a conservative synchronization scheme needs
(DRackSim runs rack-scale simulations the same way). Each worker process
owns one or more nodes — CPU, caches, RMC, NI — plus its half of the
attached links; cross-partition packets travel as timestamped messages
injected into the destination partition at ``send_time + link_latency``.

Synchronization is a coordinator-based variant of the classic
time-window (YAWNS) protocol:

1. Every worker reports its next-event time ``NE``, its count of
   scheduled non-daemon events, whether it still holds undrained
   remote frames (*credit obligations*), and the messages it emitted.
2. The coordinator routes messages, then computes each worker's safe
   emission horizon ``lb = NE_eff + L`` where ``NE_eff`` also counts
   freshly routed inbound messages and ``L`` is the worker's minimum
   outbound latency: the credit-return latency while it owes credits,
   the full link latency otherwise.
3. The global window bound is ``min(lb)``; every worker processes all
   events strictly below it, and no message can ever arrive in a
   worker's past (``arrival >= NE_sender + L_sender >= bound``).

Windows always make global progress because the worker holding the
globally minimum ``NE`` has ``bound > NE`` whenever every lookahead is
positive — which is why a zero lookahead is rejected with
:class:`ZeroLookaheadError` instead of being allowed to deadlock.

**Overlapped windows.** Each grant is double-buffered: alongside the
window bound ``B`` the coordinator pre-authorizes a per-worker *eager
horizon* ``E_i = min(min_{j != i} lb_j, B + L_min, next until)``. After
a worker sends its report it keeps executing local events below ``E_i``
while the coordinator round-trip is in flight. This changes no horizon
math: messages from other workers arrive at ``>= lb_j >= E_i``, eager
emissions arrive at ``>= B + L_min >= E_i``, and the next bound
satisfies ``B' >= B + L_min >= E_i``, so the eager range is always a
prefix of the next window — the protocol trace (reports, outboxes,
bounds) is bit-identical with overlap on or off. Workers only run
eagerly while they still hold non-daemon events, which guarantees a
next grant exists to cover the eager range.

Determinism: with a fixed seed and partition plan the parallel engine
produces bit-identical per-node telemetry and workload results vs. the
serial engine. Partitioned runs require ``paired`` flow control (see
:class:`~repro.fabric.ni.FabricConfig`), whose end-of-instant delivery
staging orders same-timestamp frames by a canonical key on both sides
of the cut — the serial engine running the same paired configuration
executes the exact same event sequence per node.

Transports (identical protocol, identical results):

* ``shm`` — forked workers, messages in per-worker shared-memory ring
  buffers (:mod:`repro.sim.ringbuf`) with a fixed-layout binary codec;
  the fastest multi-core option (no pipe syscalls, no dataclass
  pickling on the hot path).
* ``process`` — forked workers over pipes with pickled dataclasses.
* ``inline`` — every partition round-robin in one process; useful for
  tests, profiling pre-runs, and single-core machines.
"""

from __future__ import annotations

import math
import pickle
import struct
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..protocol import VirtualLane
from .engine import SimulationError
from .ringbuf import HEADER_BYTES, SpscRing

__all__ = [
    "PartitionError",
    "ZeroLookaheadError",
    "PartitionPlan",
    "RemoteMessage",
    "PartitionedRun",
    "TRANSPORTS",
    "default_transport",
    "plan_from_spec",
    "resolve_run_options",
    "profile_weights",
    "run_partitioned",
]

#: RemoteMessage kinds.
MSG_FRAME = "frame"
MSG_CREDIT = "credit"

#: Supported transports, fastest first.
TRANSPORTS = ("shm", "process", "inline")

#: Default per-direction ring capacity for the shm transport.
DEFAULT_RING_BYTES = 1 << 20


class PartitionError(SimulationError):
    """A partitioned run was configured in an unsupported way (routed
    topology, membership service, touching a node another rank owns)."""


class ZeroLookaheadError(PartitionError):
    """Partitioned synchronization needs strictly positive link and
    credit-return latencies: with zero lookahead no worker could ever
    safely advance and the window protocol would deadlock."""


@dataclass(frozen=True)
class PartitionPlan:
    """Assignment of node ids to worker ranks.

    ``owner[node_id]`` is the rank that simulates the node. Ranks must
    be dense (0..num_parts-1) and each must own at least one node, so a
    plan fully describes the worker fleet.
    """

    owner: Tuple[int, ...]

    def __post_init__(self):
        if not self.owner:
            raise PartitionError("partition plan is empty")
        ranks = set(self.owner)
        num_parts = max(ranks) + 1
        if ranks != set(range(num_parts)):
            raise PartitionError(
                f"ranks must be dense 0..{num_parts - 1}: {sorted(ranks)}")

    @property
    def num_nodes(self) -> int:
        return len(self.owner)

    @property
    def num_parts(self) -> int:
        return max(self.owner) + 1

    @classmethod
    def contiguous(cls, num_nodes: int, num_parts: int) -> "PartitionPlan":
        """Blocks of consecutive node ids, sizes as equal as possible."""
        if not 1 <= num_parts <= num_nodes:
            raise PartitionError(
                f"need 1..{num_nodes} partitions, got {num_parts}")
        base, rem = divmod(num_nodes, num_parts)
        owner: List[int] = []
        for rank in range(num_parts):
            owner.extend([rank] * (base + (1 if rank < rem else 0)))
        return cls(owner=tuple(owner))

    @classmethod
    def single(cls, num_nodes: int) -> "PartitionPlan":
        return cls.contiguous(num_nodes, 1)

    @classmethod
    def from_profile(cls, weights, num_parts: int) -> "PartitionPlan":
        """Load-aware plan from per-node event weights.

        ``weights`` is a sequence (or node->weight mapping) of per-node
        event counts, typically from :func:`profile_weights` or a prior
        :class:`PartitionedRun`'s per-partition stats. Greedy LPT
        bin-packing: nodes in decreasing weight order, each to the
        currently lightest rank (ties broken toward the emptier, then
        lower-numbered bin). Ranks are relabeled so rank order follows
        each bin's lowest node id — the plan is a pure function of the
        weights, independent of dict ordering or float noise sources.
        """
        if isinstance(weights, Mapping):
            weights = [weights[n] for n in range(len(weights))]
        weights = [float(w) for w in weights]
        num_nodes = len(weights)
        if not 1 <= num_parts <= num_nodes:
            raise PartitionError(
                f"need 1..{num_nodes} partitions, got {num_parts}")
        if any(w < 0 or math.isnan(w) for w in weights):
            raise PartitionError(f"weights must be >= 0: {weights}")
        order = sorted(range(num_nodes), key=lambda i: (-weights[i], i))
        loads = [0.0] * num_parts
        bins: List[List[int]] = [[] for _ in range(num_parts)]
        for node in order:
            rank = min(range(num_parts),
                       key=lambda r: (loads[r], len(bins[r]), r))
            loads[rank] += weights[node]
            bins[rank].append(node)
        bins.sort(key=min)
        owner = [0] * num_nodes
        for rank, members in enumerate(bins):
            for node in members:
                owner[node] = rank
        return cls(owner=tuple(owner))

    def rank_of(self, node_id: int) -> int:
        return self.owner[node_id]

    def nodes_of(self, rank: int) -> List[int]:
        return [n for n, r in enumerate(self.owner) if r == rank]

    def balance_bound(self, weights: Sequence[float]) -> float:
        """Analytic speedup ceiling from partition balance alone:
        total weight / busiest partition's weight."""
        loads = [0.0] * self.num_parts
        for node, w in enumerate(weights):
            loads[self.owner[node]] += float(w)
        busiest = max(loads)
        return sum(loads) / busiest if busiest else float(self.num_parts)


@dataclass(frozen=True)
class RemoteMessage:
    """One cross-partition link-layer message (frame or credit).

    ``key`` is the canonical end-of-instant ordering key; messages that
    share an arrival timestamp are replayed in key order, which is the
    same order the serial engine's delivery stager uses — that is what
    keeps simultaneous arrivals at a partition boundary deterministic.
    """

    arrival: float
    dst_rank: int
    key: Tuple
    kind: str
    payload: object


# -- coordinator <-> worker protocol --------------------------------------


@dataclass(frozen=True)
class _Hello:
    frame_lookahead_ns: float
    credit_lookahead_ns: float


@dataclass(frozen=True)
class _Report:
    outbox: Tuple[RemoteMessage, ...]
    next_event: float
    pending: int
    obligations: bool
    last_real: Optional[float]


@dataclass(frozen=True)
class _RunCmd:
    bound: float
    msgs: Tuple[RemoteMessage, ...]
    #: Pre-authorized eager horizon for *after* this window's report
    #: (0.0 disables overlap for the round).
    eager: float = 0.0


@dataclass(frozen=True)
class _StopCmd:
    final_time: float


@dataclass(frozen=True)
class _Final:
    result: object = None
    events_processed: int = 0
    wall_s: float = 0.0
    error: Optional[str] = None
    #: Worker-side time breakdown (busy/eager/blocked/send/serialize).
    stats: Optional[Dict[str, float]] = None


# -- fixed-layout wire codec (shm transport) -------------------------------
#
# Every protocol object maps to [u8 type | fixed fields | messages...].
# RemoteMessages carry their canonical 5-int ordering key and arrival
# inline; credit payloads are fully binary, frame payloads (a packet +
# fault decision) travel as a length-prefixed pickle blob. Anything that
# does not fit the fixed layout falls back to a pickled record (type
# 255) so exotic messages stay correct, just slower.

_MT_HELLO, _MT_REPORT, _MT_RUN, _MT_STOP, _MT_FINAL = 1, 2, 3, 4, 5
_MK_FRAME, _MK_CREDIT, _MK_PICKLED = 0, 1, 255

_S_TYPE = struct.Struct("<B")
_S_HELLO = struct.Struct("<dd")
_S_REPORT = struct.Struct("<dqBdI")    # next_event, pending, obl, last, n
_S_RUN = struct.Struct("<ddI")         # bound, eager, n
_S_STOP = struct.Struct("<d")
_S_MSGHDR = struct.Struct("<Bdi")      # msg kind, arrival, dst_rank
_S_KEY = struct.Struct("<5q")
_S_CREDIT = struct.Struct("<4q")       # src, dst, vl, seq
_S_LEN = struct.Struct("<I")


def _encode_msg(out: bytearray, msg: RemoteMessage) -> None:
    try:
        head = (_S_MSGHDR.pack(
            _MK_CREDIT if msg.kind == MSG_CREDIT else _MK_FRAME,
            msg.arrival, msg.dst_rank) + _S_KEY.pack(*msg.key))
        if msg.kind == MSG_CREDIT:
            src, dst, vl, seq = msg.payload
            body = _S_CREDIT.pack(src, dst, int(vl.value), seq)
        elif msg.kind == MSG_FRAME:
            blob = pickle.dumps(msg.payload, pickle.HIGHEST_PROTOCOL)
            body = _S_LEN.pack(len(blob)) + blob
        else:
            raise ValueError(msg.kind)
    except (struct.error, TypeError, ValueError, AttributeError):
        blob = pickle.dumps(msg, pickle.HIGHEST_PROTOCOL)
        out += _S_MSGHDR.pack(_MK_PICKLED, 0.0, 0)
        out += _S_LEN.pack(len(blob)) + blob
        return
    out += head
    out += body


def _decode_msg(data, off: int) -> Tuple[RemoteMessage, int]:
    mkind, arrival, dst_rank = _S_MSGHDR.unpack_from(data, off)
    off += _S_MSGHDR.size
    if mkind == _MK_PICKLED:
        (n,) = _S_LEN.unpack_from(data, off)
        off += _S_LEN.size
        return pickle.loads(data[off:off + n]), off + n
    key = _S_KEY.unpack_from(data, off)
    off += _S_KEY.size
    if mkind == _MK_CREDIT:
        src, dst, vl, seq = _S_CREDIT.unpack_from(data, off)
        off += _S_CREDIT.size
        return RemoteMessage(arrival=arrival, dst_rank=dst_rank, key=key,
                             kind=MSG_CREDIT,
                             payload=(src, dst, VirtualLane(vl), seq)), off
    (n,) = _S_LEN.unpack_from(data, off)
    off += _S_LEN.size
    return RemoteMessage(arrival=arrival, dst_rank=dst_rank, key=key,
                         kind=MSG_FRAME,
                         payload=pickle.loads(data[off:off + n])), off + n


def encode_wire(obj) -> bytes:
    """Serialize one protocol object to the fixed-layout wire format."""
    out = bytearray()
    if isinstance(obj, _Report):
        out += _S_TYPE.pack(_MT_REPORT)
        last = math.nan if obj.last_real is None else obj.last_real
        out += _S_REPORT.pack(obj.next_event, obj.pending,
                              1 if obj.obligations else 0, last,
                              len(obj.outbox))
        for msg in obj.outbox:
            _encode_msg(out, msg)
    elif isinstance(obj, _RunCmd):
        out += _S_TYPE.pack(_MT_RUN)
        out += _S_RUN.pack(obj.bound, obj.eager, len(obj.msgs))
        for msg in obj.msgs:
            _encode_msg(out, msg)
    elif isinstance(obj, _Hello):
        out += _S_TYPE.pack(_MT_HELLO)
        out += _S_HELLO.pack(obj.frame_lookahead_ns, obj.credit_lookahead_ns)
    elif isinstance(obj, _StopCmd):
        out += _S_TYPE.pack(_MT_STOP)
        out += _S_STOP.pack(obj.final_time)
    elif isinstance(obj, _Final):
        blob = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
        out += _S_TYPE.pack(_MT_FINAL)
        out += _S_LEN.pack(len(blob))
        out += blob
    else:
        raise PartitionError(f"cannot encode {type(obj).__name__}")
    return bytes(out)


def decode_wire(data: bytes):
    """Inverse of :func:`encode_wire`."""
    (mtype,) = _S_TYPE.unpack_from(data, 0)
    off = _S_TYPE.size
    if mtype == _MT_REPORT:
        next_event, pending, obligations, last, n = \
            _S_REPORT.unpack_from(data, off)
        off += _S_REPORT.size
        msgs = []
        for _ in range(n):
            msg, off = _decode_msg(data, off)
            msgs.append(msg)
        return _Report(outbox=tuple(msgs), next_event=next_event,
                       pending=pending, obligations=bool(obligations),
                       last_real=None if math.isnan(last) else last)
    if mtype == _MT_RUN:
        bound, eager, n = _S_RUN.unpack_from(data, off)
        off += _S_RUN.size
        msgs = []
        for _ in range(n):
            msg, off = _decode_msg(data, off)
            msgs.append(msg)
        return _RunCmd(bound=bound, msgs=tuple(msgs), eager=eager)
    if mtype == _MT_HELLO:
        frame_ns, credit_ns = _S_HELLO.unpack_from(data, off)
        return _Hello(frame_lookahead_ns=frame_ns,
                      credit_lookahead_ns=credit_ns)
    if mtype == _MT_STOP:
        (final_time,) = _S_STOP.unpack_from(data, off)
        return _StopCmd(final_time=final_time)
    if mtype == _MT_FINAL:
        (n,) = _S_LEN.unpack_from(data, off)
        off += _S_LEN.size
        return pickle.loads(data[off:off + n])
    raise PartitionError(f"unknown wire message type {mtype}")


@dataclass
class PartitionedRun:
    """Outcome of :func:`run_partitioned`."""

    results: Dict[int, object]
    final_time: float
    rounds: int
    wall_s: float
    #: Per-rank engine accounting: ``{"rank", "nodes", "events_processed",
    #: "wall_s"}`` plus the busy/eager/blocked/send/serialize breakdown —
    #: feeds telemetry's per-partition throughput report.
    partitions: List[Dict[str, object]] = field(default_factory=list)
    transport: str = "inline"
    #: Coordinator-side overhead: grant round-trips, routing/compute
    #: time, time blocked waiting on worker reports, codec time.
    coordination: Dict[str, object] = field(default_factory=dict)

    def engine_stats(self) -> Dict[str, object]:
        """Telemetry-ready aggregation (see telemetry.merge_snapshots)."""
        total_events = sum(p["events_processed"] for p in self.partitions)
        return {
            "partitions": self.partitions,
            "total_events_processed": total_events,
            "rounds": self.rounds,
            "wall_s": self.wall_s,
            "events_per_sec": (total_events / self.wall_s
                               if self.wall_s > 0 else 0.0),
            "transport": self.transport,
            "coordination": self.coordination,
            "eager_events_total": sum(
                p.get("eager_events", 0) for p in self.partitions),
        }

    def perf(self) -> Dict[str, object]:
        """The wall-clock side of a scenario run: transport, worker
        count, coordinator rounds, wall seconds, engine accounting."""
        return {"transport": self.transport,
                "workers": len(self.partitions),
                "rounds": self.rounds,
                "wall_s": self.wall_s,
                "engine": self.engine_stats()}


# -- worker side ----------------------------------------------------------


_EMPTY_STATS = {"busy_s": 0.0, "blocked_s": 0.0, "send_s": 0.0,
                "serialize_s": 0.0, "eager_events": 0, "eager_windows": 0}


class _WorkerState:
    """One partition's engine loop, shared by all transports."""

    def __init__(self, rank: int, plan: PartitionPlan, build: Callable):
        self.rank = rank
        self.sim, self.fabric, self.finalize = build(rank, plan)
        self.wall_s = 0.0          # busy: window + eager execution
        self.blocked_s = 0.0       # waiting for the next grant
        self.send_s = 0.0          # pushing replies to the coordinator
        self.serialize_s = 0.0     # codec time (shm transport only)
        self.eager_events = 0
        self.eager_windows = 0
        self._pending_eager = 0.0
        self._eager_last: Optional[float] = None

    def hello(self) -> _Hello:
        frame_ns, credit_ns = self.fabric.lookahead()
        if frame_ns <= 0 or credit_ns <= 0:
            raise ZeroLookaheadError(
                "partitioned runs need positive link_latency_ns and "
                f"credit_return_ns (got {frame_ns}, {credit_ns})")
        return _Hello(frame_lookahead_ns=frame_ns,
                      credit_lookahead_ns=credit_ns)

    def report(self, last_real: Optional[float]) -> _Report:
        return _Report(outbox=tuple(self.fabric.drain_outbox()),
                       next_event=self.sim.peek_next_event_time(),
                       pending=self.sim._pending_real,
                       obligations=self.fabric.has_credit_obligations(),
                       last_real=last_real)

    def handle(self, cmd):
        """Execute one coordinator command; returns (reply, done)."""
        if isinstance(cmd, _StopCmd):
            self.sim.now = cmd.final_time
            result = self.finalize()
            return _Final(result=result,
                          events_processed=self.sim.events_processed,
                          wall_s=self.wall_s,
                          stats={"busy_s": self.wall_s,
                                 "blocked_s": self.blocked_s,
                                 "send_s": self.send_s,
                                 "serialize_s": self.serialize_s,
                                 "eager_events": self.eager_events,
                                 "eager_windows": self.eager_windows}), True
        t0 = time.perf_counter()
        self.fabric.inject_messages(cmd.msgs)
        last_real, _processed = self.sim.run_window(cmd.bound)
        if self._eager_last is not None:
            # Events executed eagerly after the previous report belong
            # to this window; fold their last-dispatch time in so the
            # report is identical to a non-overlapped execution.
            last_real = (self._eager_last if last_real is None
                         else max(last_real, self._eager_last))
            self._eager_last = None
        reply = self.report(last_real)
        self.wall_s += time.perf_counter() - t0
        self._pending_eager = cmd.eager
        return reply, False

    def run_eager(self) -> None:
        """Execute local events below the pre-authorized eager horizon
        while the coordinator round-trip is in flight. Only runs while
        non-daemon events remain, which guarantees another grant is
        coming whose window covers the eager range exactly."""
        eager = self._pending_eager
        self._pending_eager = 0.0
        if eager <= self.sim.now or self.sim._pending_real <= 0:
            return
        t0 = time.perf_counter()
        last_real, processed = self.sim.run_window(eager)
        self.wall_s += time.perf_counter() - t0
        if processed:
            self.eager_events += processed
            self.eager_windows += 1
        if last_real is not None:
            self._eager_last = (last_real if self._eager_last is None
                                else max(self._eager_last, last_real))


def _worker_main(conn, rank: int, plan: PartitionPlan,
                 build: Callable) -> None:
    try:
        state = _WorkerState(rank, plan, build)
        conn.send(state.hello())
        conn.send(state.report(None))
        while True:
            t0 = time.perf_counter()
            cmd = conn.recv()
            state.blocked_s += time.perf_counter() - t0
            reply, done = state.handle(cmd)
            t0 = time.perf_counter()
            conn.send(reply)
            state.send_s += time.perf_counter() - t0
            if done:
                return
            state.run_eager()
    except BaseException:
        try:
            conn.send(_Final(error=traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass


def _shm_worker_main(shm, ring_in: SpscRing, ring_out: SpscRing,
                     rank: int, plan: PartitionPlan,
                     build: Callable) -> None:
    try:
        state = _WorkerState(rank, plan, build)
        ring_out.push(encode_wire(state.hello()))
        ring_out.push(encode_wire(state.report(None)))
        while True:
            t0 = time.perf_counter()
            data = ring_in.pop()
            t1 = time.perf_counter()
            cmd = decode_wire(data)
            t2 = time.perf_counter()
            state.blocked_s += t1 - t0
            state.serialize_s += t2 - t1
            reply, done = state.handle(cmd)
            t0 = time.perf_counter()
            data = encode_wire(reply)
            t1 = time.perf_counter()
            ring_out.push(data)
            t2 = time.perf_counter()
            state.serialize_s += t1 - t0
            state.send_s += t2 - t1
            if done:
                return
            state.run_eager()
    except BaseException:
        try:
            ring_out.push(encode_wire(_Final(error=traceback.format_exc())),
                          timeout=5.0)
        except Exception:
            pass
    finally:
        ring_in.release()
        ring_out.release()
        try:
            shm.close()
        except (BufferError, OSError):
            pass


class _ProcessWorker:
    """A forked partition process on the far end of a pipe."""

    def __init__(self, ctx, rank: int, plan: PartitionPlan,
                 build: Callable):
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_worker_main,
                                args=(child, rank, plan, build),
                                daemon=True,
                                name=f"sim-partition-{rank}")
        self.proc.start()
        child.close()

    def send(self, cmd) -> None:
        self.conn.send(cmd)

    def recv(self):
        try:
            return self.conn.recv()
        except EOFError:
            return _Final(error=f"partition process {self.proc.pid} "
                                "exited without a reply")

    def close(self) -> None:
        self.conn.close()
        self.proc.join(timeout=30)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join()


class _ShmWorker:
    """A forked partition process reached through a pair of
    shared-memory rings (coordinator->worker and worker->coordinator)
    carrying the fixed-layout wire format."""

    def __init__(self, ctx, rank: int, plan: PartitionPlan,
                 build: Callable, ring_bytes: int = DEFAULT_RING_BYTES):
        from multiprocessing import shared_memory

        half = HEADER_BYTES + ring_bytes
        self.shm = shared_memory.SharedMemory(create=True, size=2 * half)
        view = self.shm.buf
        self._to_worker = SpscRing(view[:half], ring_bytes, create=True)
        self._from_worker = SpscRing(view[half:2 * half], ring_bytes,
                                     create=True)
        self.serialize_s = 0.0
        # Fork start method: the rings (and the mapping) are inherited,
        # nothing is pickled. The child closes its mapping on exit; the
        # coordinator owns the unlink.
        self.proc = ctx.Process(
            target=_shm_worker_main,
            args=(self.shm, self._to_worker, self._from_worker,
                  rank, plan, build),
            daemon=True, name=f"sim-partition-{rank}")
        self.proc.start()

    def send(self, cmd) -> None:
        t0 = time.perf_counter()
        data = encode_wire(cmd)
        self.serialize_s += time.perf_counter() - t0
        self._to_worker.push(data)

    def recv(self):
        while True:
            data = self._from_worker.pop(timeout=0.5)
            if data is not None:
                t0 = time.perf_counter()
                obj = decode_wire(data)
                self.serialize_s += time.perf_counter() - t0
                return obj
            if not self.proc.is_alive():
                return _Final(error=f"partition process {self.proc.pid} "
                                    "exited without a reply")

    def close(self) -> None:
        self.proc.join(timeout=30)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join()
        self._to_worker.release()
        self._from_worker.release()
        try:
            self.shm.close()
        except (BufferError, OSError):
            pass
        try:
            self.shm.unlink()
        except (FileNotFoundError, OSError):
            pass


class _InlineWorker:
    """Runs a partition in-process with the identical protocol (no pipes,
    no pickling) — determinism does not depend on the transport."""

    def __init__(self, rank: int, plan: PartitionPlan, build: Callable):
        self._replies: List = []
        try:
            self.state = _WorkerState(rank, plan, build)
            self._replies.append(self.state.hello())
            self._replies.append(self.state.report(None))
        except ZeroLookaheadError:
            raise
        except BaseException:
            self._replies.append(_Final(error=traceback.format_exc()))

    def send(self, cmd) -> None:
        try:
            reply, done = self.state.handle(cmd)
            self._replies.append(reply)
            if not done:
                self.state.run_eager()
        except BaseException:
            self._replies.append(_Final(error=traceback.format_exc()))

    def recv(self):
        return self._replies.pop(0)

    def close(self) -> None:
        pass


# -- coordinator ----------------------------------------------------------


def default_transport(num_parts: int = 2) -> str:
    """Best transport available on this host: ``shm`` when POSIX fork +
    shared memory are available, ``process`` without shared memory,
    ``inline`` otherwise (or for single-partition runs)."""
    if num_parts <= 1:
        return "inline"
    import multiprocessing as mp

    if "fork" not in mp.get_all_start_methods():
        return "inline"
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:
        return "process"
    return "shm"


def resolve_run_options(workers: int, transport: str = "auto",
                        partition: str = "auto"):
    """Resolve ``auto`` transport/partition choices for CLI-style entry
    points.

    Returns ``(transport, partition, note)`` where ``note`` is a
    one-line human-readable explanation when the resolution fell back
    from the preferred ``shm`` + ``adaptive`` combination (single
    worker, or a host without POSIX fork/shared memory), else ``None``.
    """
    note = None
    if transport == "auto":
        transport = default_transport(workers)
        if workers <= 1:
            note = "single worker: running serial (transport/plan moot)"
        elif transport != "shm":
            note = (f"shm transport unavailable on this host "
                    f"(no POSIX fork/shared memory); using {transport}")
    if partition == "auto":
        partition = "adaptive" if workers > 1 else "contiguous"
    return transport, partition, note


def _profiling_build(build: Callable) -> Callable:
    """Wrap a builder for a truncated profiling pre-run: the app's
    finalizer is replaced with a no-op so stopping mid-workload cannot
    trip result assembly."""
    def wrapped(rank, plan):
        sim, fabric, _finalize = build(rank, plan)
        return sim, fabric, (lambda: None)
    return wrapped


def profile_weights(build: Callable, num_nodes: int,
                    until: Optional[float] = None) -> List[int]:
    """Per-node event counts from an inline profiling pre-run.

    Runs the builder with one node per rank on the inline transport
    (no processes spawned) up to ``until`` simulated ns and returns
    each node's processed-event count — the input
    :meth:`PartitionPlan.from_profile` expects.
    """
    plan = PartitionPlan.contiguous(num_nodes, num_nodes)
    run = run_partitioned(_profiling_build(build), plan, until=until,
                          transport="inline", overlap=False)
    parts = sorted(run.partitions, key=lambda p: p["rank"])
    return [p["events_processed"] for p in parts]


#: Default simulated horizon for the adaptive plan's profiling pre-run.
#: Long enough to cover the opening communication pattern of the
#: workloads here; short enough that the pre-run stays a small fraction
#: of the real run. The plan only affects load balance, never results.
DEFAULT_PROFILE_UNTIL_NS = 50_000.0


def plan_from_spec(spec, build: Callable, num_nodes: int, num_parts: int,
                   profile_until: Optional[float] = None) -> PartitionPlan:
    """Resolve a partition spec into a concrete plan.

    ``spec`` is a :class:`PartitionPlan` (returned as-is),
    ``"contiguous"`` (static equal-size blocks), or ``"adaptive"``
    (profiling pre-run via :func:`profile_weights`, then
    :meth:`PartitionPlan.from_profile` bin-packing).
    """
    if isinstance(spec, PartitionPlan):
        return spec
    if spec == "contiguous":
        return PartitionPlan.contiguous(num_nodes, num_parts)
    if spec == "adaptive":
        if profile_until is None:
            profile_until = DEFAULT_PROFILE_UNTIL_NS
        weights = profile_weights(build, num_nodes, until=profile_until)
        return PartitionPlan.from_profile(weights, num_parts)
    raise PartitionError(
        f"unknown partition spec {spec!r} "
        "(expected a PartitionPlan, 'contiguous', or 'adaptive')")


def _fail(workers, message: str):
    for w in workers:
        try:
            w.close()
        except Exception:
            pass
    raise PartitionError(f"partitioned run failed:\n{message}")


def run_partitioned(build: Callable, plan: PartitionPlan,
                    until: Optional[float] = None,
                    transport: str = "process",
                    overlap: bool = True,
                    ring_bytes: int = DEFAULT_RING_BYTES) -> PartitionedRun:
    """Run one partitioned simulation to completion.

    ``build(rank, plan)`` constructs a partition and returns
    ``(sim, fabric, finalize)`` where ``fabric`` is a
    :class:`~repro.fabric.partition.PartitionedCrossbar` and
    ``finalize()`` produces the rank's result after the clocks stop.
    ``until`` bounds simulated time exactly like ``Simulator.run``.
    ``transport`` is ``shm``, ``process``, or ``inline`` (results are
    bit-identical across all three); ``overlap=False`` disables the
    eager window overlap (results are unchanged, only wall clock).

    With a single-partition plan the builder's simulator simply runs
    serially — the parallel layer adds zero overhead at ``workers=1``.
    """
    if transport not in TRANSPORTS:
        raise ValueError(f"unknown transport: {transport} "
                         f"(choose from {'/'.join(TRANSPORTS)})")
    t_start = time.perf_counter()
    if plan.num_parts == 1:
        state = _WorkerState(0, plan, build)
        state.hello()   # validates lookahead
        t0 = time.perf_counter()
        final = state.sim.run(until=until)
        wall = time.perf_counter() - t0
        return PartitionedRun(
            results={0: state.finalize()}, final_time=final, rounds=0,
            wall_s=time.perf_counter() - t_start,
            partitions=[dict(_EMPTY_STATS, rank=0, nodes=plan.nodes_of(0),
                             events_processed=state.sim.events_processed,
                             wall_s=wall, busy_s=wall)],
            transport=transport)

    num_parts = plan.num_parts
    if transport in ("process", "shm"):
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            raise PartitionError(
                f"{transport} transport needs the 'fork' start method "
                "(POSIX); use transport='inline' instead")
        ctx = mp.get_context("fork")
        if transport == "shm":
            workers = [_ShmWorker(ctx, r, plan, build, ring_bytes)
                       for r in range(num_parts)]
        else:
            workers = [_ProcessWorker(ctx, r, plan, build)
                       for r in range(num_parts)]
    else:
        workers = [_InlineWorker(r, plan, build) for r in range(num_parts)]

    def expect(reply, kind):
        if isinstance(reply, _Final) and reply.error is not None:
            _fail(workers, reply.error)
        if not isinstance(reply, kind):
            _fail(workers, f"protocol error: expected {kind.__name__}, "
                           f"got {type(reply).__name__}")
        return reply

    hellos = [expect(w.recv(), _Hello) for w in workers]
    frame_ns = min(h.frame_lookahead_ns for h in hellos)
    credit_ns = min(h.credit_lookahead_ns for h in hellos)
    min_lookahead = min(frame_ns, credit_ns)
    reports: List[_Report] = [expect(w.recv(), _Report) for w in workers]
    inboxes: List[List[RemoteMessage]] = [[] for _ in range(num_parts)]
    last_reals: List[Optional[float]] = [None] * num_parts
    lbs: List[float] = [math.inf] * num_parts
    horizon = (math.nextafter(until, math.inf)
               if until is not None else math.inf)
    rounds = 0
    route_s = 0.0
    wait_s = 0.0

    while True:
        t_route = time.perf_counter()
        for rep in reports:
            for msg in rep.outbox:
                inboxes[msg.dst_rank].append(msg)
        for rank, rep in enumerate(reports):
            if rep.last_real is not None:
                prev = last_reals[rank]
                if prev is None or rep.last_real > prev:
                    last_reals[rank] = rep.last_real

        bound = math.inf
        all_idle = True
        min_next = math.inf
        for rank, rep in enumerate(reports):
            inbox = inboxes[rank]
            next_event = rep.next_event
            frames_inbound = False
            for msg in inbox:
                if msg.arrival < next_event:
                    next_event = msg.arrival
                if msg.kind == MSG_FRAME:
                    frames_inbound = True
            if rep.pending or inbox:
                all_idle = False
            if next_event < min_next:
                min_next = next_event
            lookahead = (credit_ns if (rep.obligations or frames_inbound)
                         else frame_ns)
            lb = next_event + lookahead
            lbs[rank] = lb
            if lb < bound:
                bound = lb

        if all_idle:
            final = (until if until is not None
                     else max((t for t in last_reals if t is not None),
                              default=0.0))
            break
        if until is not None and min_next > until:
            final = until
            break
        bound = min(bound, horizon)

        rounds += 1
        for rank, worker in enumerate(workers):
            inbox = inboxes[rank]
            inbox.sort(key=lambda m: (m.arrival, m.key))
            eager = 0.0
            if overlap:
                # Double-buffered grant: pre-authorize execution past
                # the bound, up to where any message could possibly
                # land — other workers' current safe-emission floors
                # and the floor of everything emitted after the bound.
                others = min((lbs[j] for j in range(num_parts)
                              if j != rank), default=math.inf)
                eager = min(others, bound + min_lookahead, horizon)
                if eager <= bound:
                    eager = 0.0
            worker.send(_RunCmd(bound=bound, msgs=tuple(inbox),
                                eager=eager))
            inboxes[rank] = []
        route_s += time.perf_counter() - t_route
        t_wait = time.perf_counter()
        reports = [expect(w.recv(), _Report) for w in workers]
        wait_s += time.perf_counter() - t_wait

    for worker in workers:
        worker.send(_StopCmd(final_time=final))
    finals = [expect(w.recv(), _Final) for w in workers]
    for worker in workers:
        worker.close()

    def _row(rank: int, fin: _Final) -> Dict[str, object]:
        row = dict(_EMPTY_STATS, rank=rank, nodes=plan.nodes_of(rank),
                   events_processed=fin.events_processed,
                   wall_s=fin.wall_s)
        if fin.stats:
            row.update(fin.stats)
        return row

    return PartitionedRun(
        results={rank: f.result for rank, f in enumerate(finals)},
        final_time=final, rounds=rounds,
        wall_s=time.perf_counter() - t_start,
        partitions=[_row(rank, f) for rank, f in enumerate(finals)],
        transport=transport,
        coordination={
            "grant_roundtrips": rounds,
            "overlap": overlap,
            "route_s": route_s,
            "wait_s": wait_s,
            "serialize_s": sum(getattr(w, "serialize_s", 0.0)
                               for w in workers),
        })
