"""Unit tests for the discrete-event kernel."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.simnet.engine import Engine


class TestScheduling:
    def test_runs_single_event(self, engine):
        fired = []
        engine.schedule(1.5, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [1.5]

    def test_clock_starts_at_zero(self, engine):
        assert engine.now == 0.0

    def test_events_fire_in_time_order(self, engine):
        order = []
        engine.schedule(2.0, lambda: order.append("b"))
        engine.schedule(1.0, lambda: order.append("a"))
        engine.schedule(3.0, lambda: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_fifo_tie_break_at_equal_times(self, engine):
        order = []
        for tag in range(5):
            engine.schedule(1.0, lambda t=tag: order.append(t))
        engine.run()
        assert order == [0, 1, 2, 3, 4]

    def test_priority_orders_same_timestamp(self, engine):
        order = []
        engine.schedule(1.0, lambda: order.append("late"), priority=10)
        engine.schedule(1.0, lambda: order.append("early"), priority=-10)
        engine.run()
        assert order == ["early", "late"]

    def test_schedule_after_uses_relative_delay(self, engine):
        seen = []
        engine.schedule(1.0, lambda: engine.schedule_after(0.5, lambda: seen.append(engine.now)))
        engine.run()
        assert seen == [1.5]

    def test_schedule_into_past_raises(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule(0.5, lambda: None)

    def test_negative_delay_raises(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule_after(-1.0, lambda: None)

    def test_non_finite_time_raises(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule(math.nan, lambda: None)
        with pytest.raises(SimulationError):
            engine.schedule(math.inf, lambda: None)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, engine):
        fired = []
        handle = engine.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        engine.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_is_idempotent(self, engine):
        handle = engine.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        engine.run()

    def test_other_events_survive_cancellation(self, engine):
        fired = []
        engine.schedule(1.0, lambda: fired.append("a"))
        victim = engine.schedule(1.0, lambda: fired.append("b"))
        engine.schedule(1.0, lambda: fired.append("c"))
        victim.cancel()
        engine.run()
        assert fired == ["a", "c"]


class TestRunControl:
    def test_run_until_stops_before_future_events(self, engine):
        fired = []
        engine.schedule(5.0, lambda: fired.append(1))
        engine.run(until=2.0)
        assert fired == []
        assert engine.now == 2.0
        engine.run()
        assert fired == [1]

    def test_step_returns_false_when_empty(self, engine):
        assert engine.step() is False

    def test_events_processed_counter(self, engine):
        for t in (1.0, 2.0, 3.0):
            engine.schedule(t, lambda: None)
        engine.run()
        assert engine.events_processed == 3

    def test_max_events_guard(self, engine):
        def reschedule():
            engine.schedule_after(1.0, reschedule)

        engine.schedule(0.0, reschedule)
        with pytest.raises(SimulationError, match="max_events"):
            engine.run(max_events=10)

    def test_peek_time_skips_cancelled(self, engine):
        victim = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        victim.cancel()
        assert engine.peek_time() == 2.0

    def test_nested_scheduling_during_event(self, engine):
        seen = []

        def outer():
            engine.schedule(engine.now, lambda: seen.append("inner"))
            seen.append("outer")

        engine.schedule(1.0, outer)
        engine.run()
        assert seen == ["outer", "inner"]


# One step of a kernel script: schedule an event (delay from now,
# priority, priorities of same-time children it schedules when it
# fires), cancel an earlier top-level event, or run(until=now + dt).
_SCHEDULE = st.tuples(
    st.just("schedule"),
    st.sampled_from([0.0, 0.5, 1.0, 2.5]),
    st.integers(-1, 1),
    st.lists(st.integers(-1, 1), max_size=2),
)
_CANCEL = st.tuples(st.just("cancel"), st.integers(0, 40))
_RUN = st.tuples(st.just("run"), st.sampled_from([0.0, 0.5, 1.0, 3.0]))
_SCRIPT = st.lists(st.one_of(_SCHEDULE, _CANCEL, _RUN), max_size=40)


def _run_kernel(script):
    """Drive the real engine; returns the (label, time) firing log."""
    engine = Engine()
    fired = []
    handles = []

    def event(label, children):
        def callback():
            fired.append((label, engine.now))
            for j, priority in enumerate(children):
                engine.schedule(
                    engine.now, event(f"{label}.{j}", ()), priority=priority
                )

        return callback

    for step in script:
        if step[0] == "schedule":
            _, delay, priority, children = step
            handles.append(
                engine.schedule(
                    engine.now + delay, event(str(len(handles)), children),
                    priority=priority,
                )
            )
        elif step[0] == "cancel":
            if handles:
                handles[step[1] % len(handles)].cancel()
        else:
            engine.run(until=engine.now + step[1])
    engine.run()
    return fired, engine.events_processed


def _run_reference(script):
    """The same script against a sorted-list model of the kernel."""
    now = 0.0
    seq = 0
    pending = []  # dicts: key (time, priority, seq), label, children, live
    fired = []
    top_level = []

    def push(time, priority, label, children):
        nonlocal seq
        entry = {"key": (time, priority, seq), "label": label,
                 "children": children, "live": True}
        seq += 1
        pending.append(entry)
        return entry

    def run(until):
        nonlocal now
        while True:
            live = [e for e in pending if e["live"]]
            if not live:
                return
            entry = min(live, key=lambda e: e["key"])
            if entry["key"][0] > until:
                now = until
                return
            entry["live"] = False
            now = entry["key"][0]
            fired.append((entry["label"], now))
            for j, priority in enumerate(entry["children"]):
                push(now, priority, f"{entry['label']}.{j}", ())

    for step in script:
        if step[0] == "schedule":
            _, delay, priority, children = step
            top_level.append(
                push(now + delay, priority, str(len(top_level)), children)
            )
        elif step[0] == "cancel":
            if top_level:
                top_level[step[1] % len(top_level)]["live"] = False
        else:
            run(now + step[1])
    run(math.inf)
    return fired


class TestKernelProperties:
    @given(_SCRIPT)
    def test_fires_in_time_priority_fifo_order(self, script):
        fired, processed = _run_kernel(script)
        assert fired == _run_reference(script)
        # Cancelled events never count as processed.
        assert processed == len(fired)

    @given(_SCRIPT)
    def test_handles_report_fired_and_cancelled_events(self, script):
        engine = Engine()
        handles = [
            engine.schedule(engine.now + step[1], lambda: None, priority=step[2])
            for step in script
            if step[0] == "schedule"
        ]
        for step in script:
            if step[0] == "cancel" and handles:
                handles[step[1] % len(handles)].cancel()
        live = sum(not h.cancelled for h in handles)
        engine.run()
        assert engine.events_processed == live
        assert all(h.cancelled for h in handles)
        assert engine.pending == 0
