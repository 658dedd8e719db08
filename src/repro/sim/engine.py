"""Minimal discrete-event simulation engine.

A deliberately small, dependency-free core: a time-ordered event queue with
stable FIFO tie-breaking and O(log n) schedule/cancel.  Protocol state
machines register callbacks; the engine owns nothing else (no processes,
no resources) — the checkpointing protocols are *explicit* state machines,
which keeps their failure-handling logic auditable against the paper.

Cancellation uses the standard lazy-deletion idiom: :meth:`Engine.cancel`
marks the event; the main loop skips dead entries.  This keeps the heap
simple and is O(1) per cancel.

Determinism: two events at the same timestamp fire in scheduling order
(monotonic sequence number), so simulations are bit-reproducible.  The
heap holds ``(time, seq, event)`` tuples, so ordering is the built-in
tuple comparison and never reaches the event itself.

Reserved sequence numbers: a state machine that keeps some of its future
events off the heap (the platform's per-replica failure cursor queues
only the earliest of its nodes' next failures) takes each one's sequence
number when it decides the event's time, with :meth:`Engine.reserve`,
and queues it later under that number with :meth:`Engine.queue`.  Among
equal times the event then fires where :meth:`Engine.schedule` at
reservation time would have put it: before everything scheduled after
the reservation, after everything scheduled before it.  Each reserved
number is queued at most once, so no two heap entries share a
``(time, seq)`` key.

Walk windows: a state machine whose next transitions are fixed and land
*strictly* before every queued event need not queue them.  While
:meth:`Engine.run` is running, :meth:`Engine.walk_window` tells it how
far it may go in place: the next live queued time, the run's ``until``
and the events left in its budget.  The machine applies the transitions
that fit (each strictly before the queued time, at or before ``until``,
one budget event each) on its own, then hands the final clock and the
number of transitions to :meth:`Engine.commit_walk` in one call — the
same clock and executed count as those events firing one by one.  What
stays an event is everything that can interleave: anything at or after
the next queued time (equal times keep their FIFO order on the heap),
past the horizon, or past the budget.  Outside a run, or after
:meth:`Engine.stop`, the window is empty and every transition is queued.

After a run, the engine's owner calls :meth:`Engine.clear`: an event
left queued holds its callback, often a bound method of the machine that
holds the engine, a cycle only the garbage collector would free.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, NoReturn

from ..errors import SimulationError

__all__ = ["Event", "Engine"]

#: The window of no walk: no time lies before ``-inf``, no event fits in 0.
_EMPTY_WINDOW = (-math.inf, -math.inf, 0)


@dataclass(slots=True)
class Event:
    """A scheduled callback, fired in (time, sequence) order."""

    time: float
    seq: int
    callback: Callable[["Engine", "Event"], None]
    #: Free-form payload for the callback (e.g. node id).
    payload: Any = None
    #: Category tag for introspection/tracing ("failure", "phase-end", ...).
    kind: str = ""
    cancelled: bool = False


class Engine:
    """Time-ordered event loop.

    Examples
    --------
    >>> eng = Engine()
    >>> hits = []
    >>> eng.schedule(2.0, lambda e, ev: hits.append(ev.time), kind="a")  # doctest: +ELLIPSIS
    Event(...)
    >>> eng.run()
    >>> hits
    [2.0]
    """

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self.now: float = 0.0
        #: Number of events executed (diagnostics / perf counters).
        self.executed: int = 0
        self._running = False
        self._stopped = False
        #: The running ``run``'s horizon and event budget (walks must
        #: stay within both).
        self._until = math.inf
        self._budget = math.inf

    # ------------------------------------------------------------------
    def schedule(
        self,
        time: float,
        callback: Callable[["Engine", Event], None],
        payload: Any = None,
        kind: str = "",
    ) -> Event:
        """Schedule ``callback(engine, event)`` at absolute ``time``."""
        if not time >= self.now:  # also refuses NaN, which breaks heap order
            self._refuse(time)
        time = float(time)
        seq = next(self._seq)
        event = Event(time, seq, callback, payload, kind)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def reserve(self, time: float) -> int:
        """Take the FIFO sequence number of an event at ``time`` now, to
        :meth:`queue` it later; refuses the times :meth:`schedule` does."""
        if not time >= self.now:
            self._refuse(time)
        return next(self._seq)

    def queue(
        self,
        time: float,
        seq: int,
        callback: Callable[["Engine", Event], None],
        payload: Any = None,
        kind: str = "",
    ) -> Event:
        """Queue ``callback(engine, event)`` at absolute ``time`` under
        ``seq``, a number from :meth:`reserve` not queued before: at
        equal times it fires in reservation order."""
        if not time >= self.now:
            self._refuse(time)
        time = float(time)
        event = Event(time, seq, callback, payload, kind)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def _refuse(self, time: float) -> NoReturn:
        if time != time:
            raise SimulationError("cannot schedule at a NaN time")
        raise SimulationError(
            f"cannot schedule into the past: t={time} < now={self.now}"
        )

    @staticmethod
    def cancel(event: Event) -> None:
        """Cancel a pending event (no-op if it already fired)."""
        event.cancelled = True

    # ------------------------------------------------------------------
    def peek_time(self) -> float | None:
        """Timestamp of the next live event, or ``None`` if empty."""
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        return queue[0][0] if queue else None

    def step(self) -> bool:
        """Execute the next live event.  Returns False when queue is empty."""
        while self._queue:
            time, _, event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            if time < self.now:  # pragma: no cover - defensive
                raise SimulationError("event queue corrupted: time went backwards")
            self.now = time
            self.executed += 1
            event.callback(self, event)
            return True
        return False

    def walk_window(self) -> tuple[float, float, float]:
        """How far a state machine may walk without queuing events.

        ``(next_time, until, left)``: unqueued events may fire in place
        while each lands strictly before ``next_time`` (the next live
        queued event, ``inf`` when none), at or before ``until`` (the
        running ``run``'s horizon) and while fewer than ``left`` have
        fired (what is left of its ``max_events``).  Nothing is queued
        or fires during the walk, so the window holds for all of it.
        Empty (nothing fits) when no run is in progress or the run was
        stopped.  Report the walk with :meth:`commit_walk`.
        """
        if not self._running or self._stopped:
            return _EMPTY_WINDOW
        next_time = self.peek_time()
        return (
            math.inf if next_time is None else next_time,
            self._until,
            self._budget - self.executed,
        )

    def commit_walk(self, now: float, steps: int) -> None:
        """Record a walk of ``steps`` in-place events ending at ``now``.

        The clock moves to ``now`` and the executed count grows by
        ``steps``, as if each walked event had fired through :meth:`step`;
        the caller ran their effects itself.
        """
        if not now >= self.now:
            raise SimulationError(
                f"walk cannot move the clock back: {now} < now={self.now}"
            )
        self.now = now
        self.executed += steps

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the queue empties, ``until`` is reached, or the budget.

        ``until`` advances the clock to exactly ``until`` if the simulation
        outlives it.  ``max_events`` guards against runaway state machines;
        events walked in place (:meth:`commit_walk`) count against it.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        self._stopped = False
        budget = max_events if max_events is not None else float("inf")
        self._until = until if until is not None else math.inf
        self._budget = budget
        try:
            while not self._stopped:
                if self.executed >= budget:
                    raise SimulationError(
                        f"event budget exhausted ({max_events} events); "
                        "likely a protocol state-machine livelock"
                    )
                next_time = self.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    self.now = until
                    break
                self.step()
        finally:
            self._running = False

    def stop(self) -> None:
        """Stop the run loop after the current event (e.g. on fatal failure)."""
        self._stopped = True

    def clear(self) -> None:
        """Drop every queued event (and the callback it holds)."""
        self._queue.clear()

    def pending(self) -> int:
        """Number of live events still queued."""
        return sum(1 for _, _, e in self._queue if not e.cancelled)
