"""Discrete-event engine: ordering, cancellation, budgets."""

from __future__ import annotations

import math
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Engine


class TestScheduling:
    def test_time_order(self):
        eng = Engine()
        hits = []
        eng.schedule(3.0, lambda e, ev: hits.append("c"))
        eng.schedule(1.0, lambda e, ev: hits.append("a"))
        eng.schedule(2.0, lambda e, ev: hits.append("b"))
        eng.run()
        assert hits == ["a", "b", "c"]
        assert eng.now == 3.0

    def test_fifo_ties(self):
        eng = Engine()
        hits = []
        for tag in "abc":
            eng.schedule(1.0, lambda e, ev, t=tag: hits.append(t))
        eng.run()
        assert hits == ["a", "b", "c"]

    def test_rejects_past(self):
        eng = Engine()
        eng.schedule(5.0, lambda e, ev: None)
        eng.step()
        with pytest.raises(SimulationError):
            eng.schedule(1.0, lambda e, ev: None)

    def test_rejects_nan_time(self):
        # NaN compares False with everything, so it used to pass the
        # past-time check and silently corrupt the heap order.
        eng = Engine()
        with pytest.raises(SimulationError, match="NaN"):
            eng.schedule(float("nan"), lambda e, ev: None)
        assert eng.pending() == 0

    def test_payload_and_kind(self):
        eng = Engine()
        got = []
        eng.schedule(1.0, lambda e, ev: got.append((ev.payload, ev.kind)),
                     payload=42, kind="test")
        eng.run()
        assert got == [(42, "test")]


class TestReservedSequence:
    """``reserve`` takes an event's FIFO number when its time is decided;
    ``queue`` puts it on the heap later under that number."""

    def test_queue_refuses_past_and_nan_times(self):
        eng = Engine()
        seq = eng.reserve(5.0)
        eng.schedule(5.0, lambda e, ev: None)
        eng.step()
        with pytest.raises(SimulationError, match="past"):
            eng.queue(1.0, seq, lambda e, ev: None)
        with pytest.raises(SimulationError, match="NaN"):
            eng.queue(float("nan"), seq, lambda e, ev: None)
        assert eng.pending() == 0

    def test_reserve_refuses_past_and_nan_times(self):
        eng = Engine()
        eng.schedule(5.0, lambda e, ev: None)
        eng.step()
        with pytest.raises(SimulationError, match="past"):
            eng.reserve(1.0)
        with pytest.raises(SimulationError, match="NaN"):
            eng.reserve(float("nan"))

    def test_equal_times_fire_in_reservation_order(self):
        eng = Engine()
        hits = []
        first = eng.reserve(2.0)
        eng.schedule(2.0, lambda e, ev: hits.append("scheduled"))
        last = eng.reserve(2.0)
        # Queued in the opposite order, at the same instant.
        eng.queue(2.0, last, lambda e, ev: hits.append("last"),
                  payload=7, kind="late")
        event = eng.queue(2.0, first, lambda e, ev: hits.append("first"))
        assert (event.time, event.seq) == (2.0, first)
        eng.run()
        assert hits == ["first", "scheduled", "last"]
        assert eng.executed == 3

    def test_queue_from_a_callback_keeps_the_reserved_place(self):
        # A number reserved before an event at the same instant was
        # scheduled still wins the tie when it is queued while that
        # event's predecessor fires.
        eng = Engine()
        hits = []
        seq = eng.reserve(3.0)
        eng.schedule(3.0, lambda e, ev: hits.append("scheduled"))
        eng.schedule(1.0, lambda e, ev: e.queue(
            3.0, seq, lambda e2, ev2: hits.append("reserved")))
        eng.run()
        assert hits == ["reserved", "scheduled"]

    @given(ops=st.lists(st.tuples(st.sampled_from([0.0, 1.0, 1.5, 2.0]),
                                  st.booleans()), min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_reserved_events_fire_where_schedule_would(self, ops):
        """Each op either schedules at once or reserves and queues at the
        end; the firing order is that of scheduling every op in turn."""
        eng = Engine()
        fired = []
        later = []
        for i, (t, deferred) in enumerate(ops):
            if deferred:
                later.append((t, eng.reserve(t), i))
            else:
                eng.schedule(t, lambda e, ev, i=i: fired.append(i))
        for t, seq, i in reversed(later):
            eng.queue(t, seq, lambda e, ev, i=i: fired.append(i))
        eng.run()
        assert fired == sorted(range(len(ops)), key=lambda i: ops[i][0])


class TestCancellation:
    def test_cancelled_event_skipped(self):
        eng = Engine()
        hits = []
        ev = eng.schedule(1.0, lambda e, v: hits.append("x"))
        Engine.cancel(ev)
        eng.run()
        assert hits == []

    def test_cancel_from_callback(self):
        eng = Engine()
        hits = []
        later = eng.schedule(2.0, lambda e, v: hits.append("later"))
        eng.schedule(1.0, lambda e, v: Engine.cancel(later))
        eng.run()
        assert hits == []

    def test_pending_counts_live_only(self):
        eng = Engine()
        ev1 = eng.schedule(1.0, lambda e, v: None)
        eng.schedule(2.0, lambda e, v: None)
        Engine.cancel(ev1)
        assert eng.pending() == 1


class TestRunControl:
    def test_until_advances_clock(self):
        eng = Engine()
        eng.schedule(10.0, lambda e, v: None)
        eng.run(until=5.0)
        assert eng.now == 5.0
        assert eng.pending() == 1

    def test_until_executes_boundary(self):
        eng = Engine()
        hits = []
        eng.schedule(5.0, lambda e, v: hits.append(1))
        eng.run(until=5.0)
        assert hits == [1]

    def test_stop(self):
        eng = Engine()
        hits = []
        eng.schedule(1.0, lambda e, v: (hits.append(1), e.stop()))
        eng.schedule(2.0, lambda e, v: hits.append(2))
        eng.run()
        assert hits == [1]

    def test_event_budget(self):
        eng = Engine()

        def reschedule(e, v):
            e.schedule(e.now + 1.0, reschedule)

        eng.schedule(0.0, reschedule)
        with pytest.raises(SimulationError):
            eng.run(max_events=100)

    def test_not_reentrant(self):
        eng = Engine()
        errors = []

        def nested(e, v):
            try:
                e.run()
            except SimulationError as exc:
                errors.append(exc)

        eng.schedule(1.0, nested)
        eng.run()
        assert len(errors) == 1

    def test_executed_counter(self):
        eng = Engine()
        for t in (1.0, 2.0, 3.0):
            eng.schedule(t, lambda e, v: None)
        eng.run()
        assert eng.executed == 3

    def test_peek_time(self):
        eng = Engine()
        assert eng.peek_time() is None
        ev = eng.schedule(4.0, lambda e, v: None)
        assert eng.peek_time() == 4.0
        Engine.cancel(ev)
        assert eng.peek_time() is None

    def test_clear_releases_the_queued_callbacks(self):
        # A callback that is a bound method of an object holding the
        # engine makes a cycle; once cleared, refcounting frees it.
        class Machine:
            def __init__(self, engine):
                self.engine = engine
                engine.schedule(5.0, self.on_event)
                Engine.cancel(engine.schedule(6.0, self.on_event))

            def on_event(self, engine, event):
                engine.stop()

        eng = Engine()
        machine = Machine(eng)
        eng.schedule(1.0, lambda e, v: None)
        eng.run(until=2.0)
        assert eng.pending() == 1
        alive = weakref.ref(machine)
        eng.clear()
        assert eng.pending() == 0 and eng.peek_time() is None
        assert (eng.now, eng.executed) == (2.0, 1)
        del machine, eng
        assert alive() is None
        # A cleared engine stays usable.
        eng = Engine()
        eng.clear()
        eng.schedule(1.0, lambda e, v: None)
        eng.run()
        assert eng.executed == 1


class TestWalkWindow:
    """Unqueued events may fire in place only while each would fire
    next: :meth:`Engine.walk_window` bounds the walk, and one
    :meth:`Engine.commit_walk` books its clock and count."""

    @staticmethod
    def _probe(eng, at, *times, answers=None, **run):
        """Run ``eng`` and, from an event at ``at``, walk each of
        ``times`` in one window, as a state machine would; returns
        whether each fit and the (now, executed) it would leave."""
        answers = [] if answers is None else answers

        def probe(e, ev):
            next_time, until, left = e.walk_window()
            now, steps = e.now, 0
            for t in times:
                fits = t < next_time and t <= until and steps < left
                if fits:
                    now, steps = t, steps + 1
                answers.append((fits, now, e.executed + steps))
            e.commit_walk(now, steps)
            assert (e.now, e.executed) == answers[-1][1:]

        eng.schedule(at, probe)
        eng.run(**run)
        return answers

    def test_empty_outside_run(self):
        eng = Engine()
        eng.schedule(4.0, lambda e, v: None)
        next_time, until, left = eng.walk_window()
        assert not 0.0 < next_time and not 0.0 <= until and left == 0
        assert (eng.now, eng.executed) == (0.0, 0)

    def test_window_reads_the_queue_horizon_and_budget(self):
        eng = Engine()
        windows = []
        eng.schedule(1.0, lambda e, v: windows.append(e.walk_window()))
        eng.schedule(5.0, lambda e, v: windows.append(e.walk_window()))
        eng.run(until=9.0, max_events=10)
        # At t=1 the t=5 event is next; at t=5 the queue is empty.
        assert windows == [(5.0, 9.0, 9), (math.inf, 9.0, 8)]
        eng.schedule(10.0, lambda e, v: windows.append(e.walk_window()))
        eng.run()
        assert windows[-1] == (math.inf, math.inf, math.inf)

    def test_strictly_before_the_next_queued_event(self):
        eng = Engine()
        eng.schedule(5.0, lambda e, v: None)
        answers = self._probe(eng, 1.0, 2.0, 5.0, 6.0)
        # 2 fires in place; 5 ties the queued event (FIFO: the queued one
        # goes first), 6 comes after it: both must be scheduled instead.
        assert answers == [(True, 2.0, 2), (False, 2.0, 2), (False, 2.0, 2)]
        assert eng.executed == 3

    def test_cancelled_events_do_not_block(self):
        eng = Engine()
        Engine.cancel(eng.schedule(3.0, lambda e, v: None))
        assert self._probe(eng, 1.0, 4.0) == [(True, 4.0, 2)]

    def test_within_until(self):
        eng = Engine()
        answers = self._probe(eng, 1.0, 3.0, 3.0, 3.5, until=3.0)
        assert answers == [(True, 3.0, 2), (True, 3.0, 3), (False, 3.0, 3)]

    def test_within_budget(self):
        eng = Engine()
        answers = []
        with pytest.raises(SimulationError, match="budget exhausted"):
            self._probe(eng, 1.0, 2.0, 3.0, 4.0, answers=answers,
                        max_events=3)
        # Walked events count against the budget like queued ones.
        assert answers == [(True, 2.0, 2), (True, 3.0, 3), (False, 3.0, 3)]

    def test_empty_after_stop(self):
        eng = Engine()
        windows = []

        def stop_then_probe(e, ev):
            e.stop()
            windows.append(e.walk_window())

        eng.schedule(1.0, stop_then_probe)
        eng.schedule(2.0, lambda e, v: None)
        eng.run()
        (next_time, until, left), = windows
        assert not 1.0 < next_time and not 1.0 <= until and left == 0

    def test_commit_cannot_move_the_clock_back(self):
        eng = Engine()
        eng.schedule(2.0, lambda e, v: e.commit_walk(1.0, 1))
        with pytest.raises(SimulationError, match="move the clock back"):
            eng.run()
        assert (eng.now, eng.executed) == (2.0, 1)


#: A coarse time grid so random schedules collide often — the interesting
#: case for tie-breaking is many events at the identical timestamp.
_tick = st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0])


class TestDeterminismProperties:
    """Property-based guarantees the simulators lean on.

    Bit-reproducibility of every DES (and therefore of the parallel
    campaign engine) rests on two engine facts: same-timestamp events fire
    in scheduling order, and cancellation is a safe idempotent no-op.
    """

    @given(times=st.lists(_tick, min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_same_timestamp_fires_in_scheduling_order(self, times):
        eng = Engine()
        fired = []
        for i, t in enumerate(times):
            eng.schedule(t, lambda e, ev, i=i: fired.append((ev.time, i)))
        eng.run()
        # Stable sort of (time, scheduling index) == actual firing order.
        assert fired == sorted(
            ((t, i) for i, t in enumerate(times)),
            key=lambda pair: pair[0],
        )

    @given(times=st.lists(_tick, min_size=1, max_size=30), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_cancel_is_safe_and_exact(self, times, data):
        """Cancelling any subset (with repeats) removes exactly that subset."""
        eng = Engine()
        fired = []
        events = [
            eng.schedule(t, lambda e, ev, i=i: fired.append(i))
            for i, t in enumerate(times)
        ]
        doomed = data.draw(st.lists(
            st.integers(0, len(events) - 1), max_size=len(events) * 2
        ))
        for idx in doomed:
            Engine.cancel(events[idx])  # duplicates: idempotent no-op
        eng.run()
        survivors = [i for i in range(len(events)) if i not in set(doomed)]
        assert sorted(fired) == survivors
        assert eng.executed == len(survivors)

    @given(times=st.lists(_tick, min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_cancel_after_firing_is_a_noop(self, times):
        eng = Engine()
        events = [eng.schedule(t, lambda e, ev: None) for t in times]
        eng.run()
        executed = eng.executed
        for ev in events:
            Engine.cancel(ev)  # already fired: must not corrupt anything
            Engine.cancel(ev)
        assert eng.executed == executed == len(times)
        assert eng.pending() == 0
        # The engine remains usable after post-hoc cancels.
        eng.schedule(eng.now + 1.0, lambda e, ev: None)
        eng.run()
        assert eng.executed == executed + 1
