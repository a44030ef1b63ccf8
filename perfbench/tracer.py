"""Per-package span tracer for the traced run of the benchmark.

The tracer wraps, from outside the program, every public function and
method of the ``repro`` packages named in :data:`LAYERS`, plus each
class's ``__init__``. A call that crosses from one layer into another
opens a *span*: layer id, start, end, parent span and, when the
benchmark issued the operation itself, that operation's index. Calls
inside one layer open no span, so a layer's time is charged to the
span of the call that entered it.

Many entry points return generators that the simulation kernel or a
caller resumes later (``AgentPort.access``, the RMC pipeline loops, the
``RMCSession`` operations). A returned generator is wrapped in
:class:`TracedGen`, which opens a span around each resume and passes
``send``, ``throw`` and ``close`` through unchanged. Generators handed
to ``Simulator.process`` and callbacks handed to
``Simulator.call_later`` are charged to the layer whose module defined
them, so a private RMC pipeline loop resumed by the kernel counts as
``rmc``, not ``sim``.

A layer's *self time* is its spans' time minus the time of their child
spans. It is accumulated when a span closes; :meth:`Tracer.cut` closes
and reopens every open span at one instant, which splits the totals
between the set-up and run phases of a workload exactly.
"""

from __future__ import annotations

import enum
import functools
import sys
import time
import types
from array import array
from typing import Callable, Dict, List, Optional

LAYERS = ("sim", "sim.parallel", "memory", "vm", "rmc", "fabric",
          "protocol", "node", "runtime", "apps", "serving", "cluster")
#: Span name 0 is the root: the benchmark's own code and every module
#: outside the layers (``repro.telemetry``, ``repro.workloads``, ...).
OTHER = "other"
NAMES = (OTHER,) + LAYERS
_ID = {name: i for i, name in enumerate(NAMES)}

_GEN = types.GeneratorType


def layer_of(module: Optional[str]) -> Optional[str]:
    """The layer a ``repro`` module belongs to, or ``None``."""
    if not module or not module.startswith("repro."):
        return None
    parts = module.split(".")
    if parts[1] == "sim" and len(parts) > 2 \
            and parts[2] in ("parallel", "ringbuf"):
        return "sim.parallel"
    return parts[1] if parts[1] in LAYERS else None


def _module_of_callable(fn) -> Optional[str]:
    while isinstance(fn, functools.partial):
        fn = fn.func
    fn = getattr(fn, "__func__", fn)
    return getattr(fn, "__module__", None) or type(fn).__module__


def _module_of_generator(gen) -> Optional[str]:
    frame = getattr(gen, "gi_frame", None)
    return frame.f_globals.get("__name__") if frame is not None else None


def patch(owner, name: str, make: Callable):
    """Replace ``owner.name`` by ``make(original)``; returns the undo."""
    original = owner.__dict__[name]
    setattr(owner, name, make(original))
    return lambda: setattr(owner, name, original)


class Tracer:
    """Spans in compact arrays plus per-layer self time (seconds)."""

    def __init__(self):
        self.self_s = [0.0] * len(NAMES)
        # One entry per span: name id, start, end, parent span, op index.
        self.span_name = array("B")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        # Open spans, innermost last: [name id, span index, start,
        # child time, op index].
        self.stack: List[list] = []
        self._undo: List[Callable] = []
        self.TracedGen = None

    # -- spans ---------------------------------------------------------

    def open_root(self) -> None:
        """Open the root span; everything until :meth:`close_root`
        nests under it."""
        if self.stack:
            raise RuntimeError("root span already open")
        t = time.perf_counter()
        self._record(0, t, -1, -1)
        self.stack.append([0, len(self.span_name) - 1, t, 0.0, -1])

    def close_root(self) -> None:
        if len(self.stack) != 1:
            raise RuntimeError(
                f"{len(self.stack) - 1} spans still open at the end")
        self.cut(time.perf_counter())
        self.span_end[self.stack[0][1]] = self.stack[0][2]
        self.stack.clear()

    def _record(self, name: int, start: float, parent: int,
                op: int) -> None:
        self.span_name.append(name)
        self.span_start.append(start)
        self.span_end.append(0.0)
        self.span_parent.append(parent)
        self.span_op.append(op)

    def cut(self, t: float) -> List[float]:
        """Charge every open span's self time up to ``t`` as if it
        closed there and reopened; returns a copy of the totals."""
        self_s = self.self_s
        carry = 0.0
        for frame in reversed(self.stack):
            elapsed = t - frame[2]
            self_s[frame[0]] += elapsed - frame[3] - carry
            carry = elapsed
            frame[2] = t
            frame[3] = 0.0
        return list(self_s)

    @property
    def spans(self) -> int:
        return len(self.span_name)

    def write(self, path: str) -> None:
        """Dump the spans: a text header, then the five arrays."""
        with open(path, "wb") as fh:
            fh.write((" ".join(NAMES) + f"\n{self.spans}\n").encode())
            for column in (self.span_name, self.span_start, self.span_end,
                           self.span_parent, self.span_op):
                column.tofile(fh)

    # -- wrapping --------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every loaded layer module."""
        modules = {name: module for name, module in sys.modules.items()
                   if name.startswith("repro.") and module is not None}
        stack = self.stack
        self_s = self.self_s
        record = self._record
        names = self.span_name
        ends = self.span_end
        clock = time.perf_counter

        def enter(lid: int, op: int) -> None:
            top = stack[-1]
            t = clock()
            if op < 0:
                op = top[4]
            record(lid, t, top[1], op)
            stack.append([lid, len(names) - 1, t, 0.0, op])

        def leave() -> None:
            t = clock()
            frame = stack.pop()
            ends[frame[1]] = t
            elapsed = t - frame[2]
            self_s[frame[0]] += elapsed - frame[3]
            stack[-1][3] += elapsed

        class TracedGen:
            """A generator whose every resume is a span of its layer."""

            __slots__ = ("gen", "lid", "op")

            def __init__(self, gen, lid: int, op: int = -1):
                self.gen = gen
                self.lid = lid
                self.op = op

            def __iter__(self):
                return self

            def __next__(self):
                return self.send(None)

            def send(self, value):
                if stack[-1][0] == self.lid:
                    return self.gen.send(value)
                enter(self.lid, self.op)
                try:
                    return self.gen.send(value)
                finally:
                    leave()

            def throw(self, *args):
                if stack[-1][0] == self.lid:
                    return self.gen.throw(*args)
                enter(self.lid, self.op)
                try:
                    return self.gen.throw(*args)
                finally:
                    leave()

            def close(self):
                return self.gen.close()

            def __getattr__(self, name):
                return getattr(self.gen, name)

        self.TracedGen = TracedGen

        def wrap(func: Callable, lid: int) -> Callable:
            @functools.wraps(func)
            def traced(*args, **kwargs):
                if stack[-1][0] == lid:
                    return func(*args, **kwargs)
                enter(lid, -1)
                try:
                    result = func(*args, **kwargs)
                finally:
                    leave()
                if type(result) is _GEN:
                    return TracedGen(result, lid)
                return result
            return traced

        def owner_id(module: Optional[str]) -> int:
            return _ID.get(layer_of(module) or OTHER, 0)

        replaced: Dict[int, Callable] = {}
        for modname, module in sorted(modules.items()):
            layer = layer_of(modname)
            if layer is None:
                continue
            lid = _ID[layer]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(value, types.FunctionType) \
                        and value.__module__ == modname:
                    replaced[id(value)] = wrap(value, lid)
                elif isinstance(value, type) and value.__module__ == modname \
                        and not issubclass(value, enum.Enum):
                    self._wrap_class(value, lid, wrap)

        # Module-level functions are imported by name into other modules,
        # the benchmark's own included: replace every reference.
        for module in list(sys.modules.values()):
            if module is None:
                continue
            for attr, value in list(vars(module).items()):
                wrapped = replaced.get(id(value))
                if wrapped is not None:
                    self._undo.append(
                        patch(module, attr, lambda _, w=wrapped: w))

        from repro.sim.engine import Simulator

        def owned_process(process):
            @functools.wraps(process)
            def traced_process(sim, generator, *args, **kwargs):
                if type(generator) is _GEN:
                    generator = TracedGen(generator, owner_id(
                        _module_of_generator(generator)))
                return process(sim, generator, *args, **kwargs)
            return traced_process

        def owned_call_later(call_later):
            @functools.wraps(call_later)
            def traced_call_later(sim, delay, fn, *args, **kwargs):
                lid = owner_id(_module_of_callable(fn))

                def callback():
                    if stack[-1][0] == lid:
                        return fn()
                    enter(lid, -1)
                    try:
                        return fn()
                    finally:
                        leave()
                return call_later(sim, delay, callback, *args, **kwargs)
            return traced_call_later

        self._undo.append(patch(Simulator, "process", owned_process))
        self._undo.append(patch(Simulator, "call_later", owned_call_later))

    def _wrap_class(self, cls: type, lid: int, wrap) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__",
                                                     "__call__"):
                continue
            if isinstance(value, types.FunctionType):
                make = functools.partial(wrap, lid=lid)
            elif isinstance(value, (staticmethod, classmethod)):
                def make(method, kind=type(value)):
                    return kind(wrap(method.__func__, lid))
            else:
                continue
            self._undo.append(patch(cls, attr, make))

    def tag(self, gen, op: int):
        """Mark a generator the benchmark issued as operation ``op``:
        every span of its resumes, and their children, carry ``op``."""
        if isinstance(gen, self.TracedGen):
            gen.op = op
        return gen

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
