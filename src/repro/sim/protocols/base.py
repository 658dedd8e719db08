"""The coordinated-platform state machine driving every protocol.

All protocols in the paper are *coordinated*: nodes move through period
phases in lockstep, and a failure anywhere stops the whole application
until the faulty node recovered (§II).  The timeline therefore alternates:

``RUNNING``
    Periodic phases (3 per period).  Work advances at a phase-specific
    rate: 0 during blocking checkpoints, ``(θ−φ)/θ`` during overlapped
    exchanges, 1 during pure computation.
``BLOCK`` (failure handling)
    Rollback to the last committed snapshot, then a recovery block of
    ``recovery_stall + re_exec`` seconds: dead time (downtime ``D`` +
    blocking restore ``R`` + any blocking-on-failure resends) followed by
    the re-execution segment whose duration is the protocol's
    offset-resolved ``RE`` (§III-A).  When the block ends the platform is
    *exactly* where it was at the failure instant (same work, same period
    offset) — the block-insertion semantics that make the simulator
    directly comparable with the analytical ``F = A + P/2``.

Failures arriving during a block roll the work back again (uncommitted
re-execution is lost) and restart the block from the new failure time.
Risk windows are independent of blocks: each failure opens a window of the
protocol's risk duration on its group; a *different* member of a group
failing inside the window is **fatal** (§III-C).  Windows can outlast the
block (e.g. TRIPLE's ``2θ`` resend vs a short phase-1 re-execution) — the
platform may be RUNNING with groups still at risk.

The same machine runs the centralised baseline (no risk windows) and the
no-checkpointing baseline (rollback to zero), so cross-protocol
comparisons share one execution engine.

What is an engine event: each replica's earliest pending failure, every
risk-window end, recovery-block end and completion, plus each phase end
that ties or follows the next queued event or lies past the run's
``until`` or ``max_events``.  The nodes' other pending failures wait in
the platform's failure cursor (a small heap of ``(time, seq, node)``),
each holding the FIFO number it reserved when its delay was drawn
(:meth:`~repro.sim.engine.Engine.reserve`); the cursor queues its head
under that number (:meth:`~repro.sim.engine.Engine.queue`), and the next
head once that one fires, so a failure wins or loses a tie with a phase,
risk or block end exactly as if every failure were queued.  Any
other phase end — most of them, since phases are short against the
time between failures — is walked in place: :meth:`PlatformSim._enter_phase`
opens one engine window per walk (:meth:`~repro.sim.engine.Engine.walk_window`),
applies the phase ends that fit in local variables, and hands the final
clock and count back in one :meth:`~repro.sim.engine.Engine.commit_walk`.
The same float operations run in the same order, with the same clock
and executed count as the events they replace, so results are
byte-identical to queuing them.
"""

from __future__ import annotations

import heapq
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from ...errors import SimulationError
from ..application import Application
from ..cluster import Cluster
from ..engine import Engine, Event
from ..failures import NEVER, FailureInjector

__all__ = ["PhasePlan", "SimProtocol", "PlatformSim"]


@dataclass(frozen=True)
class PhasePlan:
    """One period phase as executed by the platform machine."""

    name: str
    length: float  #: seconds (may be ``inf`` for the no-checkpoint baseline)
    rate: float  #: application progress per second in [0, 1]

    def __post_init__(self) -> None:
        if self.length < 0:
            raise SimulationError(f"phase length must be >= 0: {self}")
        if not 0.0 <= self.rate <= 1.0 + 1e-12:
            raise SimulationError(f"phase rate must lie in [0, 1]: {self}")


class SimProtocol(ABC):
    """What the platform machine needs to know about a protocol.

    :meth:`phase_plan` and :meth:`commit_phase` are read once per run,
    when :class:`PlatformSim` is built: the machine walks the phases from
    constants resolved then, so both must describe a fixed period.
    The failure-path methods are called per failure.
    """

    key: str = "abstract"
    #: Buddy-group size, or 0 when the protocol has no buddy groups
    #: (centralised / no checkpointing — failures are never fatal).
    group_size: int = 0

    @abstractmethod
    def phase_plan(self) -> tuple[PhasePlan, ...]:
        """The period's phases, in order."""

    @abstractmethod
    def commit_phase(self) -> int | None:
        """Index of the phase whose *end* commits the period's snapshot.

        ``None`` = the protocol never commits (no checkpointing).
        """

    @abstractmethod
    def recovery_stall(self) -> float:
        """Dead time per failure before re-execution starts (D + R + ...)."""

    @abstractmethod
    def risk_duration(self) -> float | None:
        """Risk-window length per failure; ``None`` = failures never fatal."""

    @abstractmethod
    def re_exec_time(self, phase: int, offset: float, lost_work: float) -> float:
        """Re-execution segment duration for a failure at this position."""


class PlatformSim:
    """Executes one application run under a :class:`SimProtocol`.

    Parameters
    ----------
    protocol:
        Protocol adapter.
    injector:
        Per-node failure processes.  A node whose next delay is
        :data:`~repro.sim.failures.NEVER` never fails again, so it leaves
        the failure cursor.
    application:
        Work target and progress tracking.
    engine:
        Event engine (owned by the caller so several platforms could share
        a timeline in future extensions).
    cluster:
        Buddy groups and risk bookkeeping; required iff
        ``protocol.group_size > 0``.
    """

    _RUNNING = "running"
    _BLOCK = "block"

    def __init__(
        self,
        protocol: SimProtocol,
        injector: FailureInjector,
        application: Application,
        engine: Engine,
        cluster: Cluster | None = None,
    ):
        if protocol.group_size > 0 and cluster is None:
            raise SimulationError(f"{protocol.key} needs a cluster (buddy groups)")
        self.protocol = protocol
        self.injector = injector
        self.app = application
        self.engine = engine
        self.cluster = cluster
        self.phases = protocol.phase_plan()
        if not self.phases:
            raise SimulationError("protocol has no phases")
        # Phase constants of the walk, resolved once: a fully executed
        # phase credits ``gain`` (the ``length * rate`` that crediting it
        # computes), none when it has no length or no rate.
        self._lengths = tuple(plan.length for plan in self.phases)
        self._rates = tuple(plan.rate for plan in self.phases)
        self._gains = tuple(
            plan.length * plan.rate if plan.rate > 0 and plan.length > 0
            else 0.0
            for plan in self.phases
        )
        self._commit_idx = protocol.commit_phase()

        self.mode = self._RUNNING
        self.status: str | None = None  # "completed" | "fatal" after stop
        self.phase_idx = 0
        self.phase_start = 0.0
        #: Offset at which the current phase was (re-)entered; work before
        #: it was already credited (restored by the recovery block).
        self._phase_entry_offset = 0.0
        self.period_start_work = 0.0
        #: (phase_idx, offset, lost_work) while in a BLOCK.
        self._resume: tuple[int, float, float] | None = None
        self._pending: Event | None = None  # PHASE_END or COMPLETE
        self._block_event: Event | None = None
        #: The failure cursor: every node's next failure as a heap of
        #: ``(time, reserved seq, node)``; only its head is queued, as
        #: ``_failure_event``.
        self._failures: list[tuple[float, int, int]] = []
        self._failure_event: Event | None = None
        self._node_gen = [0] * injector.n_nodes
        self.fatal_time = float("nan")
        self.fatal_group: tuple[int, ...] = ()
        self.failures_seen = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Draw every node's first failure, queue the earliest, and enter
        the first phase at t=0."""
        engine = self.engine
        failures = self._failures
        for node in range(self.injector.n_nodes):
            delay = self.injector.next_failure_delay(node)
            if delay != NEVER:  # an exhausted node's failure could never fire
                failures.append((delay, engine.reserve(delay), node))
        heapq.heapify(failures)
        self._arm_failure()
        self._enter_phase(0)

    def _arm_failure(self) -> None:
        """Queue the failure cursor's head (none queued yet), if any."""
        failures = self._failures
        if failures:
            time, seq, node = failures[0]
            self._failure_event = self.engine.queue(
                time, seq, self._on_failure, payload=node, kind="failure")

    # ------------------------------------------------------------------
    # RUNNING mode
    # ------------------------------------------------------------------
    def _enter_phase(self, idx: int, offset: float = 0.0) -> None:
        """Enter phase ``idx`` at ``offset`` seconds into it (0 normally;
        >0 when resuming after a recovery block).

        Phase ends that would fire before anything queued are walked
        here, in a loop over local clock, work, phase index and
        period-start work, within one engine window
        (:meth:`Engine.walk_window`): nothing can happen between such a
        phase end and the next phase entry, so the walk reproduces the
        fired events' state, clock and count.  State is written back
        where the walk stops — the first phase end that reaches the next
        queued event, the run's horizon or its budget (it becomes an
        event), completion, an infinite phase, or an error.
        """
        engine = self.engine
        app = self.app
        lengths = self._lengths
        rates = self._rates
        gains = self._gains
        commit_idx = self._commit_idx
        n_phases = len(lengths)
        target = app.work_target
        done_at = target - 1e-9  # Application.complete's threshold
        next_time, until, left = engine.walk_window()
        now = t_end = engine.now
        work = app.work_done
        period_start_work = self.period_start_work
        steps = 0
        try:
            while True:
                if idx == 0 and offset == 0.0:
                    period_start_work = work
                remaining_phase = lengths[idx] - offset
                if remaining_phase < -1e-9:
                    raise SimulationError("resume offset beyond phase length")
                if work >= done_at:
                    # Recovery restored exactly the target amount of work
                    # (a failure struck at the completion instant): finish
                    # now.
                    t_event, callback, kind = now, self._on_complete, "complete"
                    break
                # Completion may land inside this phase.  The two
                # ``max`` calls of Application.remaining and of the
                # phase's rest are spelled out: the same floats, NaN and
                # -0.0 included, without two builtin calls per phase.
                rate = rates[idx]
                remaining_work = target - work
                if remaining_work > 0.0 and rate > 0:
                    t_complete = now + remaining_work / rate
                else:
                    t_complete = math.inf
                t_end = now + (0.0 if remaining_phase < 0.0 else remaining_phase)
                if t_complete <= t_end + 1e-12:
                    t_event, callback, kind = (
                        t_complete, self._on_complete, "complete")
                    break
                if not math.isfinite(t_end):
                    # Infinite compute phase; completion is the exit.
                    t_event = callback = None
                    break
                if not (t_end < next_time and t_end <= until
                        and steps < left):
                    t_event, callback, kind = (
                        t_end, self._on_phase_end, "phase-end")
                    break
                # The phase end fires in place: credit the phase's work,
                # commit on the commit phase, enter the next phase.
                steps += 1
                if offset == 0.0:
                    work += gains[idx]
                else:
                    if rate > 0 and remaining_phase > 0:
                        work += remaining_phase * rate
                    offset = 0.0
                if idx == commit_idx:
                    app.work_done = work
                    app.commit_snapshot(t_end, period_start_work)
                idx += 1
                if idx == n_phases:
                    idx = 0
                now = t_end
        except BaseException:
            # ``t_end`` is the clock of the last phase end fired (the
            # phase's own end when its commit raised).
            self._park(idx, now, offset, work, period_start_work)
            engine.commit_walk(t_end, steps)
            raise
        self._park(idx, now, offset, work, period_start_work)
        engine.commit_walk(now, steps)
        self._pending = None if callback is None else engine.schedule(
            t_event, callback, kind=kind)

    def _park(self, idx: int, now: float, offset: float, work: float,
              period_start_work: float) -> None:
        """Write a walk's locals back: in phase ``idx``, entered at
        ``now`` with ``offset`` seconds of it already credited."""
        self.mode = self._RUNNING
        self.phase_idx = idx
        self.phase_start = now - offset
        self._phase_entry_offset = offset
        self.period_start_work = period_start_work
        self.app.work_done = work

    def _advance_partial(self) -> float:
        """Credit work executed since the phase was (re-)entered.

        Work before ``_phase_entry_offset`` was already restored by the
        recovery block, so only the stretch since entry counts.  Returns
        the absolute offset into the current phase.
        """
        plan = self.phases[self.phase_idx]
        offset = self.engine.now - self.phase_start
        if offset < -1e-9:  # pragma: no cover - defensive
            raise SimulationError("time went backwards within a phase")
        offset = max(offset, 0.0)
        executed = min(offset, plan.length) - self._phase_entry_offset
        if plan.rate > 0 and executed > 0:
            self.app.advance(executed * plan.rate)
        return offset

    def _end_phase(self) -> int:
        """Credit the current phase's work, commit if it is the commit
        phase, and return the next phase's index (a queued phase end;
        :meth:`_enter_phase` walks the rest in place)."""
        plan = self.phases[self.phase_idx]
        executed = plan.length - self._phase_entry_offset
        if plan.rate > 0 and executed > 0:
            self.app.advance(executed * plan.rate)
        if self._commit_idx == self.phase_idx:
            self.app.commit_snapshot(self.engine.now, self.period_start_work)
        return (self.phase_idx + 1) % len(self.phases)

    def _on_phase_end(self, engine: Engine, event: Event) -> None:
        self._enter_phase(self._end_phase())

    def _on_complete(self, engine: Engine, event: Event) -> None:
        self.app.advance(self.app.remaining)
        self.status = "completed"
        engine.stop()

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _on_failure(self, engine: Engine, event: Event) -> None:
        node = event.payload
        # Renewal process: the (replacement) node's next failure.
        delay = self.injector.next_failure_delay(node)
        if event is self._failure_event:  # the cursor's head fired
            if delay != NEVER:
                time = engine.now + delay
                heapq.heapreplace(self._failures,
                                  (time, engine.reserve(time), node))
            else:
                heapq.heappop(self._failures)
            self._arm_failure()
        elif delay != NEVER:
            # A failure fired from outside the cursor: its node's next
            # failure is an event of its own, off the cursor.
            engine.schedule(engine.now + delay, self._on_failure,
                            payload=node, kind="failure")
        if self.status is not None:
            return
        self.failures_seen += 1
        self._node_gen[node] += 1

        risk = self.protocol.risk_duration()
        if self.cluster is not None and risk is not None:
            fatal = self.cluster.on_failure(node, engine.now, risk)
            if fatal:
                self.status = "fatal"
                self.fatal_time = engine.now
                self.fatal_group = self.cluster.group_of(node).members
                engine.stop()
                return
            self.engine.schedule(
                engine.now + risk,
                self._on_risk_end,
                payload=(node, self._node_gen[node]),
                kind="risk-end",
            )

        if self.mode == self._RUNNING:
            offset = self._advance_partial()
            if self._pending is not None:
                Engine.cancel(self._pending)
                self._pending = None
            lost = self.app.rollback()
            self._resume = (self.phase_idx, offset, lost)
        else:
            # Failure during a recovery block: discard re-execution
            # progress (none was committed) and restart the block; the
            # resume target is unchanged.
            if self._block_event is not None:
                Engine.cancel(self._block_event)
                self._block_event = None
            self.app.rollback()  # no-op on work (already at snapshot), counts it

        phase_idx, offset, lost = self._resume
        duration = self.protocol.recovery_stall() + self.protocol.re_exec_time(
            phase_idx, offset, lost
        )
        self.mode = self._BLOCK
        self._block_event = self.engine.schedule(
            engine.now + duration, self._on_block_end, kind="block-end"
        )

    def _on_block_end(self, engine: Engine, event: Event) -> None:
        phase_idx, offset, lost = self._resume
        self._resume = None
        self._block_event = None
        # Re-execution restored exactly the lost progress.
        self.app.advance(lost)
        self._enter_phase(phase_idx, offset=offset)

    def _on_risk_end(self, engine: Engine, event: Event) -> None:
        node, gen = event.payload
        if self.cluster is None:
            return
        if self._node_gen[node] != gen:
            return  # superseded by a newer failure of the same node
        group = self.cluster.group_of(node)
        if group.recovering == node:
            self.cluster.on_risk_end(node, engine.now)

    # ------------------------------------------------------------------
    def finalize(self) -> str:
        """Resolve the run status after the engine stopped, and drop the
        event handles: each holds a bound method of this platform, a
        cycle the collector would otherwise have to free."""
        self._pending = self._block_event = self._failure_event = None
        if self.status is None:
            self.status = "timeout"
        if self.cluster is not None:
            self.cluster.abort_risk_windows(self.engine.now)
        return self.status
