"""Unit tests for the discrete-event simulation kernel."""

import gc
import weakref

import pytest

from repro.node.core import Core
from repro.sim import AnyOf, Simulator, SimulationError, WakeSignal


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(10)
        yield sim.timeout(5.5)
        return sim.now

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == pytest.approx(15.5)
    assert sim.now == pytest.approx(15.5)


def test_bare_number_yield_is_a_timeout():
    sim = Simulator()

    def proc(sim):
        yield 42
        return sim.now

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == pytest.approx(42.0)


def test_process_return_value_propagates_to_waiter():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(3)
        return "payload"

    def parent(sim):
        result = yield sim.process(child(sim))
        return result

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == "payload"


def test_waiting_on_already_completed_process():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1)
        return 7

    def parent(sim, child_proc):
        yield sim.timeout(10)  # child completes long before we wait
        value = yield child_proc
        return value

    child_proc = sim.process(child(sim))
    p = sim.process(parent(sim, child_proc))
    sim.run()
    assert p.value == 7
    assert sim.now == pytest.approx(10.0)


def test_exception_propagates_to_waiter():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1)
        raise ValueError("boom")

    def parent(sim):
        try:
            yield sim.process(child(sim))
        except ValueError as exc:
            return f"caught {exc}"

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == "caught boom"


def test_unhandled_process_exception_surfaces_from_run():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1)
        raise RuntimeError("unhandled")

    sim.process(child(sim))
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_events_fire_in_fifo_order_at_equal_times():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(5)
        order.append(tag)

    for tag in range(4):
        sim.process(proc(sim, tag))
    sim.run()
    assert order == [0, 1, 2, 3]


def test_run_until_limits_time():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(100)

    sim.process(proc(sim))
    sim.run(until=50)
    assert sim.now == pytest.approx(50.0)
    sim.run()
    assert sim.now == pytest.approx(100.0)


def test_manual_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = sim.event()
    log = []

    def waiter(sim):
        value = yield gate
        log.append((sim.now, value))

    def opener(sim):
        yield sim.timeout(20)
        gate.succeed("open")

    sim.process(waiter(sim))
    sim.process(opener(sim))
    sim.run()
    assert log == [(20.0, "open")]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_any_of_fires_on_first():
    sim = Simulator()

    def proc(sim):
        first = yield AnyOf(sim, [sim.timeout(5, "fast"), sim.timeout(50, "slow")])
        return first

    p = sim.process(proc(sim))
    sim.run()
    assert "fast" in p.value.values()
    # The slow timeout still exists but the process resumed at t=5.


def test_all_of_waits_for_everything():
    sim = Simulator()

    def proc(sim):
        results = yield sim.all_of([sim.timeout(5, "a"), sim.timeout(9, "b")])
        return sim.now, results

    p = sim.process(proc(sim))
    sim.run()
    at, results = p.value
    assert at == pytest.approx(9.0)
    assert set(results.values()) == {"a", "b"}


def test_run_until_process_detects_deadlock():
    sim = Simulator()

    def stuck(sim):
        yield sim.event()  # never triggered

    p = sim.process(stuck(sim))
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_process(p)


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_stop_halts_run():
    sim = Simulator()

    def proc(sim):
        for _ in range(100):
            yield sim.timeout(1)
            if sim.now >= 5:
                sim.stop()

    sim.process(proc(sim))
    sim.run()
    assert sim.now == pytest.approx(5.0)


# -- satellite regressions: tracebacks, daemon accounting, latches -------


def test_process_exception_carries_traceback():
    """The frames that raised inside the process survive to the caller
    of run_until_process (regression for a dropped-traceback no-op)."""
    import traceback

    sim = Simulator()

    def deep_helper():
        raise ValueError("boom with context")

    def proc(sim):
        yield sim.timeout(1)
        deep_helper()

    p = sim.process(proc(sim))
    with pytest.raises(ValueError, match="boom with context") as excinfo:
        sim.run_until_process(p)
    frames = [f.name for f in
              traceback.extract_tb(excinfo.value.__traceback__)]
    assert "deep_helper" in frames
    assert "proc" in frames


def test_run_until_process_stops_on_daemon_only_heap():
    """A watchdog-only heap can never complete the target process:
    run_until_process must deadlock-error, not spin the timers forever."""
    sim = Simulator()

    def watchdog(sim):
        while True:
            yield sim.timeout(10, daemon=True)

    def stuck(sim):
        yield sim.event()  # never triggered

    sim.process(watchdog(sim))
    p = sim.process(stuck(sim))
    with pytest.raises(SimulationError, match="daemon"):
        sim.run_until_process(p)


def test_wake_signal_trigger_before_wait_is_latched():
    sim = Simulator()
    signal = WakeSignal(sim)
    signal.trigger()  # nobody waiting: must latch
    log = []

    def waiter(sim):
        yield signal.wait()
        log.append(sim.now)

    sim.process(waiter(sim))
    sim.run()
    assert log == [0.0]


def test_wake_signal_double_trigger_coalesces():
    """Two triggers with no waiter latch a single wake: the second
    wait() has nothing to consume and deadlocks."""
    sim = Simulator()
    signal = WakeSignal(sim)
    signal.trigger()
    signal.trigger()

    def waiter(sim):
        yield signal.wait()  # consumes the (single) latched wake
        yield signal.wait()  # never fires

    p = sim.process(waiter(sim))
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_process(p)


def test_wake_signal_rewait_after_fire():
    sim = Simulator()
    signal = WakeSignal(sim)
    wakes = []

    def waiter(sim):
        yield signal.wait()
        wakes.append(sim.now)
        yield signal.wait()
        wakes.append(sim.now)

    def producer(sim):
        yield sim.timeout(5)
        signal.trigger()
        yield sim.timeout(10)
        signal.trigger()

    sim.process(waiter(sim))
    sim.process(producer(sim))
    sim.run()
    assert wakes == [5.0, 15.0]


def test_any_of_with_already_processed_event():
    sim = Simulator()

    def proc(sim):
        early = sim.timeout(1, "early")
        yield sim.timeout(5)  # `early` fires and is fully processed
        result = yield AnyOf(sim, [early, sim.timeout(50, "late")])
        return sim.now, result

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == (5.0, {0: "early"})


def test_all_of_with_already_processed_events():
    sim = Simulator()

    def proc(sim):
        a = sim.timeout(1, "a")
        b = sim.timeout(2, "b")
        yield sim.timeout(5)  # both children already processed
        results = yield sim.all_of([a, b])
        return sim.now, results

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == (5.0, {0: "a", 1: "b"})


def test_call_later_runs_deferred_callback():
    sim = Simulator()
    fired = []

    sim.call_later(7.5, lambda: fired.append(sim.now))
    sim.call_later(0.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [0.0, 7.5]


def test_call_later_daemon_does_not_sustain_run():
    sim = Simulator()
    fired = []

    def proc(sim):
        yield sim.timeout(3)

    sim.call_later(100.0, lambda: fired.append(sim.now), daemon=True)
    sim.process(proc(sim))
    sim.run()
    assert sim.now == pytest.approx(3.0)
    assert fired == []


def test_any_of_rejects_none():
    """An immediate grant (``None``) is not an event: passing one to
    ``any_of`` is a caller bug and fails loudly."""
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.any_of([sim.timeout(1), None])


def test_negative_compute_fails_the_calling_process():
    sim = Simulator()
    core = Core(sim, 0, port=None)

    def app(sim):
        try:
            yield core.compute(-1)
        except ValueError:
            return "rejected"
        return "ran"

    proc = sim.process(app(sim))
    sim.run()
    assert proc.value == "rejected"
    assert sim.now == 0


def test_finished_process_is_freed_without_cyclic_gc():
    """A finished process is not part of a reference cycle: dropping
    the last reference frees it (and its return value) at once."""

    class Result:
        pass

    sim = Simulator()

    def worker(sim):
        yield 1.0
        yield sim.timeout(2.0)
        return Result()

    gc.disable()
    try:
        proc = sim.process(worker(sim))
        sim.run()
        # Process has no __weakref__ slot; its return value stands in.
        ref = weakref.ref(proc.value)
        del proc
        assert ref() is None
    finally:
        gc.enable()
