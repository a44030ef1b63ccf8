"""Discrete-event simulation kernel.

This is the substrate on which every timed component of the soNUMA model
runs: RMC pipelines, cores, links, routers, DRAM channels, and baseline
models are all :class:`Process` coroutines scheduled by a single
:class:`Simulator`.

The design is deliberately small and explicit (a few hundred lines rather
than a dependency): an event heap keyed by simulated time, generator-based
processes, and condition events. Time is measured in **nanoseconds** and
stored as a float; all component models in this repository quote their
parameters in ns so that Table 1 of the paper can be transcribed directly.

Typical usage::

    sim = Simulator()

    def worker(sim):
        yield sim.timeout(50.0)          # sleep 50 ns
        return "done"

    proc = sim.process(worker(sim))
    sim.run()
    assert proc.value == "done"

Processes may yield:

* a :class:`Timeout` (or a bare ``int``/``float`` delay, as a convenience),
* any other :class:`Event` (including another :class:`Process`),
* ``None`` to simply yield control at the same timestamp.

A process finishes when its generator returns; the generator's return value
becomes the process's :attr:`Event.value`. Exceptions raised inside a
process propagate to any process waiting on it, and to :meth:`Simulator.run`
if nobody is waiting (errors never pass silently).

Performance model (see docs/architecture.md, "Kernel fast paths"):

* **Bare-number yields are the fast path.** ``yield 0.5`` resumes the
  process through a pooled internal event — no :class:`Timeout` object is
  allocated, and the pool is recycled after every delivery. Component hot
  loops use this idiom (optionally via :meth:`Simulator.delay`, which also
  documents coalesced delays).
* **Zero-delay and same-timestamp events skip the heap.** Anything
  scheduled at the current timestamp goes onto a FIFO deque (the
  "now-queue") instead of the heap; heap entries that mature at the
  current timestamp are always drained before the now-queue, so the total
  FIFO order of equal-time events is exactly the order they were
  scheduled in — bit-identical to the heap-only kernel.
* **:meth:`Simulator.call_later` schedules a bare callback** without
  spawning a process (used for credit returns and in-flight packet
  delivery), again through the pooled-event path.

None of the fast paths changes simulated timestamps: they remove Python
objects and heap traffic, not simulated time.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Simulator",
    "SimulationError",
    "StopSimulation",
    "WakeSignal",
]

#: Upper bound on the recycled-event free list (plenty for every model in
#: the repo; merely caps memory if a workload bursts).
_POOL_LIMIT = 4096


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. double-trigger)."""


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Simulator.run` early."""


class Event:
    """A one-shot occurrence at a point in simulated time.

    An event starts *pending*, is *triggered* exactly once via
    :meth:`succeed` or :meth:`fail`, and then notifies its callbacks.
    Processes wait on events by yielding them.

    A *daemon* event (watchdog timers, heartbeat ticks) does not keep the
    simulation alive: :meth:`Simulator.run` returns once only daemon
    events remain in the heap, so background reliability machinery never
    extends a run past its last piece of real work.
    """

    __slots__ = ("sim", "callbacks", "_triggered", "_ok", "value", "daemon",
                 "_pooled", "_cb")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._triggered = False
        self._ok = True
        self.value: Any = None
        self.daemon = False
        self._pooled = False

    @property
    def triggered(self) -> bool:
        """Whether the event has already fired."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """Whether the event fired successfully (vs. with an exception)."""
        return self._ok

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._triggered = True
        self._ok = True
        self.value = value
        self.sim._queue_event(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception; waiters will re-raise it."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self.value = exception
        self.sim._queue_event(self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<{type(self).__name__} {state} at t={self.sim.now:.1f}>"


class Timeout(Event):
    """An event that fires automatically after a fixed delay.

    Hot paths should prefer yielding the bare delay (``yield 0.5``), which
    goes through the simulator's pooled-event fast path; a :class:`Timeout`
    object is for when the event itself is needed (``any_of`` arms,
    carrying a ``value``, daemon timers).
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None,
                 daemon: bool = False):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Inlined Event.__init__ (this constructor is hot).
        self.sim = sim
        self.callbacks = []
        self._triggered = True  # scheduled immediately, fires at now+delay
        self._ok = True
        self.value = value
        self.daemon = daemon
        self._pooled = False
        self.delay = delay
        sim._schedule_at(sim.now + delay, self)


def _run_deferred(event: Event) -> None:
    """Delivery callback for :meth:`Simulator.call_later`: the scheduled
    function rides in ``event.value``."""
    event.value()


class Process(Event):
    """A generator-based coroutine driven by the simulator.

    The process is itself an :class:`Event` that fires when the generator
    returns (successfully) or raises (failure). Other processes can wait
    for it by yielding it.
    """

    __slots__ = ("generator", "name", "_waiting_on", "_send", "_throw",
                 "_resume_cb")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "",
                 daemon: bool = False):
        if not hasattr(generator, "send"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        super().__init__(sim)
        # A daemon process's *completion* event does not keep the run
        # alive (nor count as real work): background timers that happen
        # to return (a retransmission watchdog standing down) must not
        # extend the run past its last piece of real work.
        self.daemon = daemon
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        # Bound once: resumed on every event the process waits for (a
        # fresh bound method per wait would be an allocation each).
        self._send = generator.send
        self._throw = generator.throw
        self._resume_cb = self._resume
        sim._schedule_resume(self, sim.now)

    @property
    def is_alive(self) -> bool:
        """Whether the underlying generator has not yet finished."""
        return not self._triggered

    def _resume(self, trigger: Event) -> None:
        """Advance the generator with the value (or exception) of `trigger`."""
        self._waiting_on = None
        sim = self.sim
        sim._active_process = self
        try:
            if trigger._ok:
                target = self._send(trigger.value)
            else:
                target = self._throw(trigger.value)
        except StopIteration as stop:
            sim._active_process = None
            # Drop the bound methods: _resume_cb would keep this
            # finished process in a reference cycle with itself.
            self._resume_cb = self._send = self._throw = None
            self._triggered = True
            self._ok = True
            self.value = stop.value
            sim._queue_event(self)
            return
        except BaseException as exc:
            sim._active_process = None
            self._resume_cb = self._send = self._throw = None
            self._triggered = True
            self._ok = False
            self.value = exc
            sim._queue_event(self)
            return
        sim._active_process = None

        # Wait on whatever the process yielded. Bare numbers and ``None``
        # take the pooled fast path: no Timeout object, no heap traffic
        # for zero delays. The scheduling is inlined (vs. calling
        # _schedule_resume) because this is the hottest branch in the
        # repository.
        cls = target.__class__
        if cls is float or cls is int or target is None:
            pool = sim._pool
            if pool:
                event = pool.pop()
                event._ok = True
                event.value = None
                event.daemon = False
            else:
                event = sim._pooled_event()
            event._cb = self._resume_cb
            self._waiting_on = event
            sim._pending_real += 1
            if target:
                if target < 0:
                    raise ValueError(f"negative timeout delay: {target}")
                heapq.heappush(sim._heap,
                               (sim.now + target, next(sim._counter), event))
            else:
                sim._now_queue.append(event)
        elif isinstance(target, Event):
            if target.callbacks is None:
                # Already processed: resume at the current time with the
                # event's outcome (success value or failure exception).
                sim._schedule_resume(self, sim.now, target.value, target._ok)
            else:
                target.callbacks.append(self._resume_cb)
                self._waiting_on = target
        elif isinstance(target, (int, float)):
            # Numeric subclasses (bool, numpy scalars) missed the exact-
            # type fast path above; honour them like the bare numbers.
            delay = float(target)
            if delay < 0:
                raise ValueError(f"negative timeout delay: {delay}")
            sim._schedule_resume(self, sim.now + delay)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"
            )


class _Condition(Event):
    """Base for AnyOf / AllOf composite events."""

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._count = 0
        for event in self.events:
            if not isinstance(event, Event):
                # E.g. the None of an immediate Resource grant.
                raise TypeError(f"condition over a non-event: {event!r}")
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _results(self) -> dict:
        return {
            i: ev.value
            for i, ev in enumerate(self.events)
            if ev.triggered and ev.callbacks is None
        }


class AnyOf(_Condition):
    """Fires as soon as any of the given events fires."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
        else:
            self.succeed(self._results())


class AllOf(_Condition):
    """Fires once all of the given events have fired."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed({i: ev.value for i, ev in enumerate(self.events)})


class WakeSignal:
    """A level-triggered wake-up for polling loops.

    Hardware that continuously polls a memory location (the RGP sweeping
    its WQs) would swamp a discrete-event simulation with no-op events.
    A :class:`WakeSignal` gives the same semantics event-efficiently: the
    poller waits on :meth:`wait`; producers call :meth:`trigger`. A
    trigger with no waiter is latched (level- rather than edge-
    triggered), so a wake between two ``wait`` calls is never lost.
    """

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._event: Optional[Event] = None
        self._latched = False

    def wait(self) -> Event:
        """An event that fires at the next (or a latched) trigger."""
        if self._latched:
            self._latched = False
            fired = self.sim.event()
            fired.succeed()
            return fired
        if self._event is None or self._event.triggered:
            self._event = self.sim.event()
        return self._event

    def trigger(self) -> None:
        """Wake the waiter, or latch the wake if nobody waits yet."""
        if self._event is not None and not self._event.triggered:
            self._event.succeed()
        else:
            self._latched = True


class Simulator:
    """The event loop: a heap of (time, tiebreak, event) triples plus a
    FIFO "now-queue" for events at the current timestamp.

    All timestamps are nanoseconds. Events scheduled at equal times fire
    in FIFO order of scheduling: heap entries that matured to the current
    timestamp were necessarily scheduled before anything appended to the
    now-queue at that timestamp, so draining matured heap entries first
    and the now-queue second reproduces the exact total order a pure
    (time, tiebreak) heap would give, while zero-delay traffic — the bulk
    of all events — never touches the heap.
    """

    def __init__(self):
        self.now: float = 0.0
        self._heap: List = []
        self._now_queue: deque = deque()
        self._counter = itertools.count()
        self._active_process: Optional[Process] = None
        self._stopped = False
        self._pending_real = 0   # scheduled non-daemon events
        self._pool: List[Event] = []   # recycled internal events
        self.events_processed = 0      # lifetime dispatch count

    # -- scheduling ------------------------------------------------------

    def _schedule_at(self, when: float, event: Event) -> None:
        if not event.daemon:
            self._pending_real += 1
        if when <= self.now:
            if when < self.now:
                raise SimulationError("time went backwards")
            self._now_queue.append(event)
        else:
            heapq.heappush(self._heap, (when, next(self._counter), event))

    def _queue_event(self, event: Event) -> None:
        """Queue an already-triggered event for callback delivery *now*."""
        if not event.daemon:
            self._pending_real += 1
        self._now_queue.append(event)

    def _pooled_event(self) -> Event:
        """An internal one-callback event from the free list.

        Pooled events never escape the kernel: their ``callbacks`` stays
        ``None`` (they dispatch through the ``_cb`` slot instead) and
        they return to the pool right after delivery, with ``_cb``
        cleared so the pool keeps no finished process alive.
        """
        pool = self._pool
        if pool:
            return pool.pop()
        event = Event.__new__(Event)
        event.sim = self
        event.callbacks = None
        event._triggered = True
        event._ok = True
        event.value = None
        event.daemon = False
        event._pooled = True
        return event

    def _schedule_resume(self, process: Process, when: float,
                         value: Any = None, ok: bool = True) -> None:
        """Resume ``process`` at ``when`` through a pooled event (the
        bare-delay / already-processed-event fast path)."""
        event = self._pooled_event()
        event._ok = ok
        event.value = value
        event.daemon = False
        event._cb = process._resume_cb
        process._waiting_on = event
        self._pending_real += 1
        if when <= self.now:
            self._now_queue.append(event)
        else:
            heapq.heappush(self._heap, (when, next(self._counter), event))

    def call_later(self, delay: float, fn: Callable[[], None],
                   daemon: bool = False) -> None:
        """Run ``fn()`` after ``delay`` ns without spawning a process.

        The bookkeeping fast path: credit returns, in-flight packet
        delivery, and similar fire-and-forget actions cost one pooled
        event instead of a process + generator + completion event. ``fn``
        must not yield; it runs synchronously at dispatch time.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        event = self._pooled_event()
        event._ok = True
        event.value = fn
        event.daemon = daemon
        event._cb = _run_deferred
        if not daemon:
            self._pending_real += 1
        when = self.now + delay
        if when <= self.now:
            self._now_queue.append(event)
        else:
            heapq.heappush(self._heap, (when, next(self._counter), event))

    # -- public factory helpers -----------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None,
                daemon: bool = False) -> Timeout:
        """Create an event that fires ``delay`` ns from now.

        ``daemon`` timers do not keep :meth:`run` alive (used by
        retransmission watchdogs and failure detectors)."""
        return Timeout(self, delay, value, daemon=daemon)

    @staticmethod
    def delay(ns: float) -> float:
        """A coalesced fixed delay for the pooled fast path.

        ``yield sim.delay(a + b)`` is the idiom for back-to-back fixed
        delays that used to be separate ``timeout`` yields: one pooled
        event replaces N Timeout objects, and simulated time is identical
        because nothing observable happens between the legs. Returns the
        bare number — the kernel's resume path does the rest.
        """
        if ns < 0:
            raise ValueError(f"negative timeout delay: {ns}")
        return ns

    def process(self, generator: Generator, name: str = "",
                daemon: bool = False) -> Process:
        """Register a generator as a new process starting immediately.

        ``daemon`` marks the process's completion event as a daemon
        event: background machinery (per-transaction watchdogs) that
        finishes by *returning* then cannot keep the run alive on its
        own, mirroring the daemon-timer semantics of :meth:`timeout`.
        """
        return Process(self, generator, name=name, daemon=daemon)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event firing when any child event fires."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when all child events have fired."""
        return AllOf(self, events)

    def stop(self) -> None:
        """Request that :meth:`run` return at the end of the current step."""
        self._stopped = True

    # -- the event loop --------------------------------------------------

    def _next_when(self) -> float:
        """Timestamp of the next event to dispatch (heap or now-queue)."""
        if self._heap and self._heap[0][0] <= self.now:
            return self.now
        if self._now_queue:
            return self.now
        return self._heap[0][0]

    def _dispatch(self, event: Event) -> None:
        if not event.daemon:
            self._pending_real -= 1
        self.events_processed += 1
        if event._pooled:
            event._cb(event)
            if len(self._pool) < _POOL_LIMIT:
                event.value = event._cb = None
                self._pool.append(event)
            return
        callbacks = event.callbacks
        event.callbacks = None  # marks the event as fully processed
        if callbacks:
            for callback in callbacks:
                callback(event)
        elif not event._ok:
            # A failed event nobody waited for: surface it.
            raise event.value

    def _step(self) -> None:
        heap = self._heap
        if heap and heap[0][0] <= self.now:
            # Matured heap entries predate anything in the now-queue.
            event = heapq.heappop(heap)[2]
        elif self._now_queue:
            event = self._now_queue.popleft()
        else:
            when, _tiebreak, event = heapq.heappop(heap)
            if when < self.now:
                raise SimulationError("time went backwards")
            self.now = when
        self._dispatch(event)

    def run(self, until: Optional[float] = None) -> float:
        """Run until the heap drains, ``until`` is reached, or :meth:`stop`.

        Daemon events alone do not sustain the run: once no non-daemon
        event remains, the run ends as if the heap had drained.

        Returns the simulated time at which the run ended.
        """
        self._stopped = False
        # The dispatch loop is inlined (vs. calling _step per event):
        # local bindings of the heap, now-queue, and pool cut attribute
        # lookups on the hottest path in the repository.
        heap = self._heap
        nowq = self._now_queue
        pop = heapq.heappop
        pool = self._pool
        processed = 0
        try:
            while not self._stopped and self._pending_real > 0:
                if heap and heap[0][0] <= self.now:
                    event = pop(heap)[2]
                elif nowq:
                    event = nowq.popleft()
                elif heap:
                    when = heap[0][0]
                    if until is not None and when > until:
                        self.now = until
                        return self.now
                    self.now = when
                    event = pop(heap)[2]
                else:
                    break
                if not event.daemon:
                    self._pending_real -= 1
                processed += 1
                if event._pooled:
                    event._cb(event)
                    if len(pool) < _POOL_LIMIT:
                        event.value = event._cb = None
                        pool.append(event)
                    continue
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)
                elif not event._ok:
                    raise event.value
        finally:
            self.events_processed += processed
        if until is not None and self.now < until:
            self.now = until
        return self.now

    # -- windowed execution (conservative parallel engine support) -------

    def peek_next_event_time(self) -> float:
        """Timestamp of the earliest pending event (daemons included),
        or ``inf`` when nothing is scheduled.

        Used by the conservative parallel runner to compute each
        partition's earliest possible next action. Daemon events count:
        a retransmission watchdog can fire and *emit* real traffic, so
        the lower bound must cover it.
        """
        if self._now_queue:
            return self.now
        if self._heap:
            return self._heap[0][0]
        return float("inf")

    def run_window(self, bound: float):
        """Process every pending event strictly before ``bound``.

        The conservative-window primitive: unlike :meth:`run`, the loop
        does not stop when real work drains (another partition may still
        revive this one through a message) and never advances ``now`` to
        ``bound`` — it stays at the last dispatched event so repeated
        windows compose into exactly one serial execution.

        Returns ``(last_real, processed)``: the timestamp of the last
        non-daemon event dispatched in this window (``None`` if none
        was) and the number of events processed.
        """
        if bound <= self.now:
            return None, 0
        heap = self._heap
        nowq = self._now_queue
        pop = heapq.heappop
        pool = self._pool
        processed = 0
        last_real = None
        try:
            while True:
                if heap and heap[0][0] <= self.now:
                    event = pop(heap)[2]
                elif nowq:
                    event = nowq.popleft()
                elif heap:
                    when = heap[0][0]
                    if when >= bound:
                        break
                    self.now = when
                    event = pop(heap)[2]
                else:
                    break
                if not event.daemon:
                    self._pending_real -= 1
                    last_real = self.now
                processed += 1
                if event._pooled:
                    event._cb(event)
                    if len(pool) < _POOL_LIMIT:
                        event.value = event._cb = None
                        pool.append(event)
                    continue
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)
                elif not event._ok:
                    raise event.value
        finally:
            self.events_processed += processed
        return last_real, processed

    def run_until_process(self, process: Process, limit: float = 1e15) -> Any:
        """Run until ``process`` completes; return its value.

        ``limit`` guards against runaway simulations (raises if exceeded).
        Mirrors :meth:`run`'s daemon accounting: if only daemon events
        remain (e.g. a watchdog-only heap), the process can never
        complete, so a deadlock error is raised instead of spinning the
        daemon timers forever.
        """
        while not process.triggered:
            if not self._heap and not self._now_queue:
                raise SimulationError(
                    f"deadlock: no events pending but {process.name!r} "
                    "has not completed"
                )
            if self._pending_real <= 0:
                raise SimulationError(
                    f"deadlock: only daemon events remain but "
                    f"{process.name!r} has not completed"
                )
            if self._next_when() > limit:
                raise SimulationError(
                    f"simulation exceeded time limit {limit} ns"
                )
            self._step()
        # Drain same-timestamp callbacks associated with completion.
        if not process.ok:
            raise process.value
        return process.value
