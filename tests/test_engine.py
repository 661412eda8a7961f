"""Unit tests for the discrete-event kernel."""

import itertools
import math
from array import array

import pytest
from hypothesis import given, settings
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
# priority, children it schedules when it fires), schedule a bulk entry
# (per member its delay, its children, and whether a single event is
# scheduled just before the member's seq is reserved, at a delay of its
# own or, for None, at the member's time; members fire at priority 0),
# cancel an earlier top-level single event, or run(until=now + dt).  A
# child is a same-time single event at priority -1, 0 or +1, or a new
# bulk entry (its members' delays from now).  A member's same-time
# children are at priority 0 or +1: the kernel refuses -1 there.
_DELAYS = st.sampled_from([0.0, 0.5, 1.0, 2.5])
_BULK_CHILD = st.lists(st.sampled_from([0.0, 0.0, 0.5]), min_size=1, max_size=3)
_CHILDREN = st.lists(st.one_of(st.integers(-1, 1), _BULK_CHILD), max_size=2)
_MEMBER_CHILDREN = st.lists(st.one_of(st.integers(0, 1), _BULK_CHILD), max_size=2)
_SCHEDULE = st.tuples(st.just("schedule"), _DELAYS, st.integers(-1, 1), _CHILDREN)
_BULK = st.tuples(
    st.just("bulk"),
    st.lists(
        st.tuples(
            _DELAYS, _MEMBER_CHILDREN,
            st.one_of(
                st.none(),
                st.tuples(st.one_of(st.none(), _DELAYS), st.integers(-1, 1)),
            ),
        ),
        min_size=1, max_size=5,
    ),
)
_CANCEL = st.tuples(st.just("cancel"), st.integers(0, 40))
_RUN = st.tuples(st.just("run"), st.sampled_from([0.0, 0.5, 1.0, 3.0]))
_SCRIPT = st.lists(st.one_of(_SCHEDULE, _BULK, _CANCEL, _RUN), max_size=40)


def _single_delay(single, member_delay):
    """Delay of the single event scheduled before a bulk member."""
    return member_delay if single[0] is None else single[0]


def _drive_kernel(engine, script):
    """Apply *script* to the real engine, without the final drain.

    Returns the (label, time) firing log and ``(fired so far, now,
    pending)`` after each run step.
    """
    fired = []
    handles = []
    checkpoints = []
    counter = itertools.count()

    def event(label, children):
        def callback():
            fired.append((label, engine.now))
            for j, child in enumerate(children):
                if isinstance(child, int):
                    engine.schedule(
                        engine.now, event(f"{label}.{j}", ()), priority=child
                    )
                    continue
                engine.schedule_batch(
                    [engine.now + delay for delay in child],
                    [engine.reserve() for _ in child],
                    lambda run: fired.extend((member, engine.now) for member in run),
                    [f"{label}.{j}.{k}" for k in range(len(child))],
                )

        return callback

    for step in script:
        if step[0] == "schedule":
            _, delay, priority, children = step
            handles.append(
                engine.schedule(
                    engine.now + delay, event(f"s{next(counter)}", children),
                    priority=priority,
                )
            )
        elif step[0] == "bulk":
            _, members = step
            times, seqs, labels = [], [], []
            children_of = {}
            for delay, children, single in members:
                if single is not None:
                    handles.append(
                        engine.schedule(
                            engine.now + _single_delay(single, delay),
                            event(f"s{next(counter)}", ()),
                            priority=single[1],
                        )
                    )
                label = f"b{next(counter)}"
                times.append(engine.now + delay)
                seqs.append(engine.reserve())
                labels.append(label)
                children_of[label] = children

            def fire(run, children_of=children_of):
                for label in run:
                    event(label, children_of[label])()

            engine.schedule_batch(times, seqs, fire, labels)
        elif step[0] == "cancel":
            if handles:
                handles[step[1] % len(handles)].cancel()
        else:
            engine.run(until=engine.now + step[1])
            checkpoints.append((len(fired), engine.now, engine.pending))
    return fired, checkpoints


def _run_kernel(script):
    """Drive the real engine; returns its firing log, event count and
    run-step checkpoints."""
    engine = Engine()
    fired, checkpoints = _drive_kernel(engine, script)
    engine.run()
    return fired, engine.events_processed, checkpoints


def _run_reference(script):
    """The same script against a sorted-list model of the kernel, in
    which every bulk member is an entry of its own."""
    now = 0.0
    seq = itertools.count()
    pending = []  # dicts: key (time, priority, seq), label, children, live
    fired = []
    singles = []
    checkpoints = []
    counter = itertools.count()

    def push(time, priority, label, children):
        entry = {
            "key": (time, priority, next(seq)),
            "label": label, "children": children, "live": True,
        }
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
            for j, child in enumerate(entry["children"]):
                if isinstance(child, int):
                    push(now, child, f"{entry['label']}.{j}", ())
                    continue
                for k, delay in enumerate(child):
                    push(now + delay, 0, f"{entry['label']}.{j}.{k}", ())

    for step in script:
        if step[0] == "schedule":
            _, delay, priority, children = step
            singles.append(
                push(now + delay, priority, f"s{next(counter)}", children)
            )
        elif step[0] == "bulk":
            _, members = step
            for delay, children, single in members:
                if single is not None:
                    singles.append(
                        push(
                            now + _single_delay(single, delay), single[1],
                            f"s{next(counter)}", (),
                        )
                    )
                push(now + delay, 0, f"b{next(counter)}", children)
        elif step[0] == "cancel":
            if singles:
                singles[step[1] % len(singles)]["live"] = False
        else:
            run(now + step[1])
            unfired = sum(e["live"] for e in pending)
            checkpoints.append((len(fired), now, unfired))
    run(math.inf)
    return fired, checkpoints


def _has_cancel(script):
    return any(step[0] == "cancel" for step in script)


class TestKernelProperties:
    """The kernel, runs and all, against a model that fires one event
    per member."""

    @settings(max_examples=300)
    @given(_SCRIPT)
    def test_fires_in_time_priority_fifo_order(self, script):
        fired, processed, checkpoints = _run_kernel(script)
        expected, expected_checkpoints = _run_reference(script)
        assert fired == expected
        # Cancelled events never count as processed; members count one
        # each.
        assert processed == len(fired)
        # run(until=) stops at the same place, between members too.  A
        # cancelled event stays pending until the heap drops it, so
        # pending is compared on scripts without cancellations.
        assert [c[:2] for c in checkpoints] == [c[:2] for c in expected_checkpoints]
        if not _has_cancel(script):
            assert checkpoints == expected_checkpoints

    @settings(max_examples=300)
    @given(_SCRIPT)
    def test_step_and_peek_walk_members_one_event_at_a_time(self, script):
        engine = Engine()
        fired, _ = _drive_kernel(engine, script)
        seen = len(fired)
        expected, _ = _run_reference(script)
        while (time := engine.peek_time()) is not None:
            assert engine.step() is True
            assert len(fired) == seen + 1 and fired[-1] == (expected[seen][0], time)
            seen += 1
        assert engine.step() is False
        assert fired == expected
        assert engine.events_processed == len(fired)

    @settings(max_examples=300)
    @given(_SCRIPT, st.integers(1, 12))
    def test_max_events_counts_members(self, script, budget):
        engine = Engine()
        fired, _ = _drive_kernel(engine, script)
        before = len(fired)
        expected = _run_reference(script)[0]
        left = len(expected) - before
        # The guard trips once the budget-th event has run, and that
        # event is the reference's.
        if left >= budget:
            with pytest.raises(SimulationError, match="max_events"):
                engine.run(max_events=budget)
            assert fired == expected[:before + budget]
            # The events after it are still queued, in order.
            engine.run()
        else:
            engine.run(max_events=budget)
        assert fired == expected
        assert engine.events_processed == len(fired)

    @settings(max_examples=300)
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


class TestBulkEntries:
    def test_members_fire_with_their_args_in_time_seq_order(self, engine):
        fired = []
        seqs = [engine.reserve() for _ in range(4)]
        engine.schedule_batch(
            [2.0, 1.0, 2.0, 1.0], seqs, fired.extend, ["a", "b", "c", "d"]
        )
        engine.run()
        assert fired == ["b", "d", "a", "c"]
        assert engine.events_processed == 4

    def test_typed_array_runs_are_views(self, engine):
        runs = []
        times = array("d", [1.0, 0.5, 1.0])
        seqs = array("q", [engine.reserve() for _ in range(3)])
        mids = array("q", [7, 9, 11])
        engine.schedule_batch(times, seqs, runs.append, mids)
        engine.run()
        assert [list(run) for run in runs] == [[9], [7, 11]]
        # Sorting copied the columns; each run is a slice of that copy.
        assert all(isinstance(run, memoryview) for run in runs)
        assert runs[0].obj is runs[1].obj
        assert all(type(arg) is int for run in runs for arg in run)

    def test_ordered_typed_columns_are_kept(self, engine):
        runs = []
        mids = array("q", [7, 9])
        engine.schedule_batch(
            array("d", [1.0, 1.0]), array("q", [engine.reserve(), engine.reserve()]),
            runs.append, mids,
        )
        engine.run()
        assert len(runs) == 1 and runs[0].obj is mids

    def test_lone_entry_hands_over_one_run_per_timestamp(self, engine):
        runs = []
        engine.schedule_batch(
            [1.0, 1.0, 1.0, 2.0, 2.0, 3.0], [engine.reserve() for _ in range(6)],
            runs.append, list("abcdef"),
        )
        engine.run()
        assert runs == [["a", "b", "c"], ["d", "e"], ["f"]]
        assert engine.events_processed == 6

    def test_reserved_seq_orders_members_among_single_events(self, engine):
        runs = []
        first, second = engine.reserve(), engine.reserve()
        engine.schedule(1.0, lambda: runs.append("single"))
        last = engine.reserve()
        engine.schedule_batch(
            [1.0, 1.0, 1.0], [first, second, last], runs.append, ["m0", "m1", "m2"]
        )
        engine.run()
        # The single event's seq falls between m1's and m2's: it cuts the run.
        assert runs == [["m0", "m1"], "single", ["m2"]]

    def test_max_events_trips_inside_a_run(self, engine):
        runs = []
        engine.schedule_batch(
            [1.0] * 5, [engine.reserve() for _ in range(5)], runs.append, list(range(5))
        )
        with pytest.raises(SimulationError, match="max_events"):
            engine.run(max_events=3)
        assert runs == [[0, 1, 2]]
        assert engine.events_processed == 3 and engine.pending == 2
        engine.run()
        assert runs == [[0, 1, 2], [3, 4]]

    def test_step_hands_over_runs_of_one(self, engine):
        runs = []
        engine.schedule_batch(
            [1.0] * 3, [engine.reserve() for _ in range(3)], runs.append, [0, 1, 2]
        )
        while engine.step():
            assert engine.events_processed == len(runs)
        assert runs == [[0], [1], [2]]

    def test_pending_counts_unfired_members(self, engine):
        engine.schedule_batch(
            [1.0, 2.0, 3.0], [engine.reserve() for _ in range(3)],
            lambda run: None, [0, 1, 2],
        )
        victim = engine.schedule(2.5, lambda: None)
        assert engine.pending == 4
        engine.run(until=2.0)
        assert engine.pending == 2
        victim.cancel()
        # A cancelled single event counts until the heap drops it.
        assert engine.pending == 2
        engine.run()
        assert engine.pending == 0 and engine.events_processed == 3

    def test_empty_batch_schedules_nothing(self, engine):
        engine.schedule_batch([], [], lambda run: None, [])
        assert engine.pending == 0 and engine.peek_time() is None

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_member_time_raises(self, engine, bad):
        with pytest.raises(SimulationError, match="non-finite"):
            engine.schedule_batch(
                [1.0, bad], [engine.reserve(), engine.reserve()],
                lambda run: None, [0, 1],
            )
        assert engine.pending == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_lone_non_finite_member_raises(self, engine, bad):
        with pytest.raises(SimulationError, match="non-finite"):
            engine.schedule_batch([bad], [engine.reserve()], lambda run: None, [0])
        assert engine.pending == 0

    def test_member_in_the_past_raises(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError, match="past"):
            engine.schedule_batch(
                [2.0, 0.5], [engine.reserve(), engine.reserve()],
                lambda run: None, [0, 1],
            )
        assert engine.pending == 0

    def test_first_bad_member_names_the_error(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError, match=r"past: t=0\.5 "):
            engine.schedule_batch(
                [2.0, 0.5, math.nan], [engine.reserve() for _ in range(3)],
                lambda run: None, [0, 1, 2],
            )

    def test_member_child_at_negative_priority_raises(self, engine):
        def member(run):
            engine.schedule(engine.now + 1.0, lambda: None, priority=-1)
            engine.schedule(engine.now, lambda: None, priority=-1)

        engine.schedule_batch(
            [1.0, 1.0], [engine.reserve(), engine.reserve()], member, ["a", "b"]
        )
        with pytest.raises(SimulationError, match="negative priority"):
            engine.run()
        # A single event's same-time child at -1 is fine.
        fired = []
        engine.schedule(
            3.0, lambda: engine.schedule(3.0, lambda: fired.append(1), priority=-1)
        )
        engine.run()
        assert fired == [1]

    def test_member_children_fire_after_the_run(self, engine):
        fired = []

        def member(run):
            fired.append(list(run))
            engine.schedule(1.0, lambda: fired.append("a0"))
            engine.schedule(1.0, lambda: fired.append("a+1"), priority=1)
            engine.schedule_batch(
                [1.0, 1.0], [engine.reserve(), engine.reserve()],
                fired.extend, ["a.0", "a.1"],
            )

        engine.schedule_batch(
            [1.0, 1.0, 1.0], [engine.reserve() for _ in range(3)],
            member, ["a", "b", "c"],
        )
        engine.run()
        assert fired == [["a", "b", "c"], "a0", "a.0", "a.1", "a+1"]
        assert engine.events_processed == 7

    def test_a_raising_callback_consumes_its_run(self, engine):
        fired = []

        def member(run):
            fired.extend(run)
            if 1 in run:
                raise RuntimeError("member failed")

        engine.schedule_batch(
            [1.0, 1.0, 2.0], [engine.reserve() for _ in range(3)],
            member, [0, 1, 2],
        )
        with pytest.raises(RuntimeError, match="member failed"):
            engine.run()
        assert engine.pending == 1 and engine.events_processed == 2
        engine.run()
        assert fired == [0, 1, 2] and engine.now == 2.0

    def test_columns_of_unequal_length_raise(self, engine):
        with pytest.raises(ValueError, match="one time, seq and arg"):
            engine.schedule_batch([1.0], [engine.reserve()], lambda run: None, [])
