"""Queueing primitives built on the simulation kernel.

Three primitives cover every queueing structure in the soNUMA model:

* :class:`Store` — a FIFO buffer of items with optional capacity. Used for
  NI queues, router input buffers, and pipeline hand-off queues.
* :class:`Resource` — a counting semaphore with FIFO granting. Used for
  MSHR/MAQ occupancy limits and DRAM channel arbitration.
* :class:`Channel` — a latency + bandwidth pipe (items appear at the far
  end after serialization + propagation delay). Used for fabric links.

All waiting is expressed as events, so processes compose them freely with
timeouts via :meth:`Simulator.any_of`.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Deque, Optional

from .engine import Event, Simulator

__all__ = ["Store", "Resource", "Channel"]


class Store:
    """FIFO item buffer with optional capacity.

    ``put(item)`` returns an event that fires when the item has been
    accepted (immediately if below capacity). ``get()`` returns an event
    that fires with the next item in FIFO order.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None,
                 name: str = ""):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()  # (event, item)
        self.peak_occupancy = 0
        self.total_puts = 0

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self.items) >= self.capacity

    def put(self, item: Any) -> Event:
        """Offer an item; the returned event fires once it is enqueued."""
        event = self.sim.event()
        if self._getters:
            # Hand the item straight to the oldest waiting consumer.
            getter = self._getters.popleft()
            getter.succeed(item)
            event.succeed()
        elif not self.is_full:
            self._enqueue(item)
            event.succeed()
        else:
            self._putters.append((event, item))
        return event

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False if the store is full."""
        if self._getters:
            self._getters.popleft().succeed(item)
            return True
        if self.is_full:
            return False
        self._enqueue(item)
        return True

    def get(self) -> Event:
        """Take the next item; the returned event fires with the item."""
        event = self.sim.event()
        if self.items:
            event.succeed(self.items.popleft())
            self._admit_waiting_putter()
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> tuple:
        """Non-blocking get; returns (ok, item)."""
        if self.items:
            item = self.items.popleft()
            self._admit_waiting_putter()
            return True, item
        return False, None

    def _enqueue(self, item: Any) -> None:
        self.items.append(item)
        self.total_puts += 1
        if len(self.items) > self.peak_occupancy:
            self.peak_occupancy = len(self.items)

    def _admit_waiting_putter(self) -> None:
        if self._putters and not self.is_full:
            event, item = self._putters.popleft()
            self._enqueue(item)
            event.succeed()


class Resource:
    """Counting semaphore with FIFO grant order.

    ``acquire()`` grants a free slot at once and returns ``None``; when
    every slot is taken (or others already wait) it returns an event
    that fires when the slot is granted. Either way the caller yields
    the result: a yielded ``None`` resumes the caller through the
    kernel's now-queue exactly where an already-succeeded grant event
    would. ``release()`` frees a slot. Used to bound concurrency (e.g.
    the RMC's 32-entry MAQ limits in-flight memory accesses).
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: Deque[Event] = deque()
        self.peak_in_use = 0
        self.total_acquires = 0

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def acquire(self) -> Optional[Event]:
        """Request a slot: ``None`` if granted now, else an event that
        fires when granted. Yield the result."""
        if self.in_use < self.capacity and not self._waiters:
            self.in_use += 1
            self.total_acquires += 1
            if self.in_use > self.peak_in_use:
                self.peak_in_use = self.in_use
            return None
        event = Event(self.sim)
        self._waiters.append(event)
        return event

    def try_acquire(self) -> bool:
        """Take a slot immediately if one is free; never blocks."""
        if self.in_use < self.capacity and not self._waiters:
            self.acquire()   # granted at once
            return True
        return False

    def release(self) -> None:
        """Free a slot, granting the oldest waiter if any."""
        if self.in_use <= 0:
            raise RuntimeError(f"resource {self.name!r}: release without acquire")
        if self._waiters:
            # The slot passes straight to the oldest waiter.
            self.total_acquires += 1
            self._waiters.popleft().succeed()
        else:
            self.in_use -= 1


class Channel:
    """A latency/bandwidth pipe between a producer and a consumer.

    An item of ``size`` bytes put at time *t* becomes available to
    ``get()`` at ``t + size/bandwidth + latency``. Serialization is
    modeled on the sender side: the next item cannot begin transmission
    before the previous one finished serializing (a busy line).

    ``bandwidth`` is in bytes/ns (i.e. GB/s); ``latency`` in ns.
    """

    def __init__(self, sim: Simulator, latency: float,
                 bandwidth: Optional[float] = None, name: str = ""):
        if latency < 0:
            raise ValueError("latency must be >= 0")
        self.sim = sim
        self.latency = latency
        self.bandwidth = bandwidth
        self.name = name
        self._line_free_at = 0.0
        self._delivery = Store(sim, name=f"{name}.delivery")
        self.bytes_sent = 0

    def put(self, item: Any, size: int = 0) -> float:
        """Send an item; returns the delivery time. Never blocks the caller
        (flow control is the responsibility of the link layer above)."""
        now = self.sim.now
        serialize = (size / self.bandwidth) if (self.bandwidth and size) else 0.0
        start = max(now, self._line_free_at)
        self._line_free_at = start + serialize
        deliver_at = self._line_free_at + self.latency
        self.bytes_sent += size
        # Elision: delivery is a deferred callback, not a spawned process,
        # so each item in flight costs one kernel event instead of two.
        self.sim.call_later(deliver_at - now,
                            partial(self._delivery.try_put, item))
        return deliver_at

    def get(self) -> Event:
        """Receive the next delivered item (FIFO)."""
        return self._delivery.get()

    def __len__(self) -> int:
        return len(self._delivery)
