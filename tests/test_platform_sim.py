"""Platform state machine: deterministic failure scenarios, verified by hand.

These tests drive :class:`PlatformSim` with scripted failure times and check
makespans against closed-form expectations — the ground truth for the DES's
block-insertion semantics.
"""

from __future__ import annotations

import gc
import math
import weakref
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro import DOUBLE_NBL, TRIPLE, Parameters
from repro.errors import SimulationError
from repro.experiments.scenarios import CAMPAIGN_PRESETS
from repro.sim.application import Application
from repro.sim.backends import run_cell
from repro.sim.cluster import Cluster
from repro.sim.engine import Engine
from repro.sim.executor import CampaignSession, plan_cells
from repro.sim.failures import TraceInjector, TraceSchedule
from repro.sim.protocols.base import PlatformSim
from repro.sim.protocols.buddy import BuddySimProtocol
from repro.sim.protocols.coordinated import CoordinatedSimProtocol
from repro.sim.protocols.none import NoCheckpointSimProtocol
from repro.sim.topology import contiguous_groups

PARAMS = Parameters(D=0, delta=2, R=4, alpha=10, M=10_000, n=4)
PHI = 1.0           # θ = 34
PERIOD = 100.0      # phases: 2 / 34 / 64, W = 97
THETA = 34.0
NEVER = 1e15


class ScriptedInjector:
    """Failure process with explicit per-node failure schedules."""

    def __init__(self, n_nodes: int, schedules: dict[int, list[float]]):
        self.n_nodes = n_nodes
        # Convert absolute times to successive inter-arrival delays.
        self._delays = {}
        for node, times in schedules.items():
            prev, delays = 0.0, []
            for t in times:
                delays.append(t - prev)
                prev = t
            self._delays[node] = delays

    def next_failure_delay(self, node: int) -> float:
        queue = self._delays.get(node, [])
        return queue.pop(0) if queue else NEVER


def run_platform(spec, work, schedules, n=None, phi=PHI, period=PERIOD,
                 params=PARAMS, until=1e9):
    if n is None:
        n = 6 if spec.group_size == 3 else 4
    protocol = BuddySimProtocol(spec, params, phi, period)
    cluster = Cluster(contiguous_groups(n, spec.group_size))
    injector = ScriptedInjector(n, schedules)
    app = Application(work_target=work)
    engine = Engine()
    sim = PlatformSim(protocol, injector, app, engine, cluster)
    sim.start()
    engine.run(until=until, max_events=100_000)
    status = sim.finalize()
    return status, engine.now, app, sim


class TestFaultFree:
    def test_exact_makespan_double(self):
        # 3 full periods of work (97 each) finish exactly at t = 300.
        status, makespan, app, _ = run_platform(DOUBLE_NBL, 3 * 97.0, {})
        assert status == "completed"
        assert makespan == pytest.approx(300.0)
        assert app.work_done == pytest.approx(291.0)

    def test_completion_mid_compute_phase(self):
        # 97 + 50 work: period 1 (97) + δ + exchange work 33 + 18 at speed 1
        # inside phase 2 ... completion inside the second period.
        status, makespan, app, _ = run_platform(DOUBLE_NBL, 97.0 + 50.0, {})
        assert status == "completed"
        # Second period: phase0 ends t=102 (0 work), phase1 ends t=136
        # (+33), needs 17 more at full speed -> t = 153.
        assert makespan == pytest.approx(153.0)

    def test_completion_mid_exchange_phase(self):
        # Needs 10 work units in the second period's exchange phase:
        # rate 33/34 ⇒ 10/(33/34) seconds after t=102.
        status, makespan, _, _ = run_platform(DOUBLE_NBL, 97.0 + 10.0, {})
        assert makespan == pytest.approx(102.0 + 10.0 * 34.0 / 33.0)

    def test_commits_at_exchange_end(self):
        _, _, app, _ = run_platform(DOUBLE_NBL, 3 * 97.0, {})
        # Commits at t = 36, 136, 236 capture work 0, 97, 194.
        assert app.commits[:3] == [(36.0, 0.0), (136.0, 97.0), (236.0, 194.0)]

    def test_triple_fault_free(self):
        # TRIPLE: phases 34/34/32, W = 98 at phi=1.
        status, makespan, app, _ = run_platform(TRIPLE, 2 * 98.0, {})
        assert status == "completed"
        assert makespan == pytest.approx(200.0)
        # Commit at end of phase 0 (t=34) captures work 0.
        assert app.commits[0] == (34.0, 0.0)


class TestSingleFailure:
    def test_failure_in_compute_phase(self):
        """Failure at t=50 (phase 2, offset 14): block = D+R+θ+offset."""
        status, makespan, app, _ = run_platform(
            DOUBLE_NBL, 3 * 97.0, {0: [50.0]}
        )
        assert status == "completed"
        block = 0.0 + 4.0 + (THETA + 14.0)  # D + R + re_time(2, 14)
        assert makespan == pytest.approx(300.0 + block)
        assert app.rollbacks == 1
        # Lost work: exchange work 33 + 14 s of compute.
        assert app.work_lost == pytest.approx(33.0 + 14.0)

    def test_failure_during_local_checkpoint(self):
        """Failure at t=101 (period 2, phase 0, offset 1).

        Rollback to commit(t=36) = work 0; block = D+R+re_time(0, 1)
        = 4 + (θ+σ+1) = 4 + 99; all of period 1's work re-executed.
        """
        status, makespan, app, _ = run_platform(
            DOUBLE_NBL, 3 * 97.0, {0: [101.0]}
        )
        assert status == "completed"
        assert makespan == pytest.approx(300.0 + 4.0 + 34.0 + 64.0 + 1.0)
        assert app.work_lost == pytest.approx(97.0)

    def test_failure_during_exchange(self):
        """Failure at t=110 (period 2, phase 1, offset 8).

        Lost work: period-1 W plus 8s at exchange rate 33/34.
        Block: D+R + re_time(1, 8) = 4 + (θ+σ+δ+8).
        """
        status, makespan, app, _ = run_platform(
            DOUBLE_NBL, 3 * 97.0, {0: [110.0]}
        )
        assert status == "completed"
        assert makespan == pytest.approx(300.0 + 4.0 + (34 + 64 + 2 + 8))
        assert app.work_lost == pytest.approx(97.0 + 8.0 * 33.0 / 34.0)

    def test_triple_failure_in_second_exchange_cheap(self):
        """TRIPLE failure in phase 1 rolls back only to the new snapshot."""
        status, makespan, app, _ = run_platform(
            TRIPLE, 2 * 98.0, {0: [140.0]}  # period 2, phase 1, offset 6
        )
        assert status == "completed"
        # re_time(1, 6) = θ + 6 = 40; block = D+R+40 = 44.
        assert makespan == pytest.approx(200.0 + 44.0)
        # Lost work: 33 (phase 0 of period 2) ... no — commit at end of
        # phase 0 captured *period-start* work; phase-0 work plus 6 s of
        # phase-1 exchange work is volatile.
        assert app.work_lost == pytest.approx(33.0 + 6.0 * 33.0 / 34.0)

    def test_work_conserved_after_recovery(self):
        _, makespan, app, _ = run_platform(DOUBLE_NBL, 3 * 97.0, {0: [50.0]})
        assert app.work_done == pytest.approx(3 * 97.0)


class TestFatalAndRisk:
    def test_buddy_failure_in_risk_window_fatal(self):
        # Risk = D+R+θ = 38 for NBL at phi=1; second failure 10 s later.
        status, _, _, sim = run_platform(
            DOUBLE_NBL, 10 * 97.0, {0: [50.0], 1: [60.0]}
        )
        assert status == "fatal"
        assert sim.fatal_time == pytest.approx(60.0)
        assert sim.fatal_group == (0, 1)

    def test_buddy_failure_after_window_survives(self):
        status, _, app, _ = run_platform(
            DOUBLE_NBL, 10 * 97.0, {0: [50.0], 1: [50.0 + 39.0]}
        )
        assert status == "completed"
        assert app.rollbacks == 2

    def test_unrelated_node_failure_not_fatal(self):
        status, _, app, _ = run_platform(
            DOUBLE_NBL, 10 * 97.0, {0: [50.0], 2: [55.0]}
        )
        assert status == "completed"
        assert app.rollbacks == 2

    def test_same_node_refailure_restarts_block(self):
        # Node 0 fails at 50 and again at 60 (inside its own block).
        status, makespan, app, _ = run_platform(
            DOUBLE_NBL, 3 * 97.0, {0: [50.0, 60.0]}
        )
        assert status == "completed"
        # Second block replaces the first: ends at 60 + 4 + 48.
        assert makespan == pytest.approx(300.0 + (60.0 + 52.0 - 50.0))
        assert app.rollbacks == 2

    def test_risk_time_recorded(self):
        _, _, _, sim = run_platform(DOUBLE_NBL, 3 * 97.0, {0: [50.0]})
        total_risk = sum(g.risk_time for g in sim.cluster.groups)
        assert total_risk == pytest.approx(38.0)  # D+R+θ at phi=1


class TestBaselines:
    def test_coordinated_failure_never_fatal(self):
        protocol = CoordinatedSimProtocol(
            checkpoint_time=10.0, downtime=0.0, recovery=5.0, period=100.0
        )
        injector = ScriptedInjector(2, {0: [150.0], 1: [152.0]})
        app = Application(work_target=3 * 90.0)
        engine = Engine()
        sim = PlatformSim(protocol, injector, app, engine, cluster=None)
        sim.start()
        engine.run(until=1e9)
        assert sim.finalize() == "completed"
        assert app.rollbacks == 2

    def test_coordinated_block_length(self):
        protocol = CoordinatedSimProtocol(10.0, 0.0, 5.0, 100.0)
        injector = ScriptedInjector(1, {0: [150.0]})  # compute phase, offset 40
        app = Application(work_target=3 * 90.0)
        engine = Engine()
        sim = PlatformSim(protocol, injector, app, engine)
        sim.start()
        engine.run(until=1e9)
        # Fault-free makespan 300; block = D+R+lost(=40) = 45.
        assert engine.now == pytest.approx(345.0)

    def test_no_checkpoint_restarts_from_zero(self):
        protocol = NoCheckpointSimProtocol(downtime=2.0)
        injector = ScriptedInjector(1, {0: [70.0]})
        app = Application(work_target=100.0)
        engine = Engine()
        sim = PlatformSim(protocol, injector, app, engine)
        sim.start()
        engine.run(until=1e9)
        assert sim.finalize() == "completed"
        # Block-insertion semantics: 100s of work + a (2 + 70)-second
        # recovery block that re-executes the 70 lost work units.
        assert engine.now == pytest.approx(100.0 + 2.0 + 70.0)
        assert app.work_lost == pytest.approx(70.0)

    def test_buddy_protocol_requires_cluster(self):
        protocol = BuddySimProtocol(DOUBLE_NBL, PARAMS, PHI, PERIOD)
        with pytest.raises(SimulationError):
            PlatformSim(protocol, ScriptedInjector(4, {}),
                        Application(work_target=1.0), Engine(), cluster=None)


class TestTimeout:
    def test_unfinished_run_times_out(self):
        status, makespan, _, _ = run_platform(DOUBLE_NBL, 1e9, {}, until=5000.0)
        assert status == "timeout"
        assert makespan == pytest.approx(5000.0)


class TestExhaustedNodes:
    """A node whose schedule is exhausted gets no failure event: it could
    never fire, and dropping it keeps every other event's order."""

    def _platform(self, trace):
        protocol = BuddySimProtocol(DOUBLE_NBL, PARAMS, PHI, PERIOD)
        engine = Engine()
        sim = PlatformSim(
            protocol, TraceInjector(4, TraceSchedule(4, trace)),
            Application(work_target=3 * 97.0), engine,
            Cluster(contiguous_groups(4, 2)),
        )
        return sim, engine

    def test_start_schedules_only_the_phase_event(self):
        sim, engine = self._platform([])
        sim.start()
        assert [event.kind for _, _, event in engine._queue] == ["phase-end"]

    def test_last_failure_is_not_rescheduled(self):
        sim, engine = self._platform([(50.0, 0)])
        sim.start()
        assert sorted(event.kind for _, _, event in engine._queue) \
            == ["failure", "phase-end"]
        engine.run(until=60.0)
        assert "failure" not in {event.kind for _, _, event in engine._queue}
        engine.run(until=1e9)
        # Same makespan as a scripted run whose exhausted nodes keep a
        # far-future event queued (TestSingleFailure).
        _, makespan, _, _ = run_platform(DOUBLE_NBL, 3 * 97.0, {0: [50.0]})
        assert sim.finalize() == "completed"
        assert engine.now == makespan


class TestInlinePhaseWalk:
    """Phase ends that fire before anything queued are walked in place
    (within one :meth:`Engine.walk_window`) instead of being queued.
    Every case here pins what the per-event machine did: state, clock,
    executed count and tie order."""

    def _platform(self, schedules, work=3 * 97.0):
        protocol = BuddySimProtocol(DOUBLE_NBL, PARAMS, PHI, PERIOD)
        engine = Engine()
        app = Application(work_target=work)
        sim = PlatformSim(protocol, ScriptedInjector(4, schedules), app,
                          engine, Cluster(contiguous_groups(4, 2)))
        return sim, engine, app

    @staticmethod
    def _queued_phase_ends(engine):
        return [event.time for _, _, event in engine._queue
                if event.kind == "phase-end" and not event.cancelled]

    def test_fault_free_run_counts_every_phase_end(self):
        sim, engine, app = self._platform({})
        sim.start()
        engine.run(until=1e9, max_events=100)
        assert sim.finalize() == "completed"
        # Eight phase ends, then completion at the end of the third
        # period's compute phase: nine events, as if each were queued.
        assert engine.executed == 9
        assert engine.now == 300.0
        assert app.commits == [(36.0, 0.0), (136.0, 97.0), (236.0, 194.0)]

    def test_failure_queued_before_phase_entry_wins_the_tie(self):
        # Node 0 fails at t=136, the instant its exchange phase ends.
        # The failure was queued first, so it fires first: the period's
        # snapshot is never committed and the failure re-executes it.
        sim, engine, app = self._platform({0: [136.0]})
        sim.start()
        engine.run(until=1e9, max_events=100)
        assert sim.finalize() == "completed"
        assert app.commits[:2] == [(36.0, 0.0), (136.0 + 4.0 + 134.0, 97.0)]
        assert app.work_lost == pytest.approx(97.0 + 33.0)
        # Block: D + R + re_time(1, 34) = 4 + (θ + σ + δ + 34).
        assert engine.now == pytest.approx(300.0 + 4.0 + 134.0)

    def test_failure_queued_after_phase_entry_loses_the_tie(self):
        # A failure queued while the exchange phase runs, for the instant
        # it ends: the phase end was queued first (a probe at t=120 was
        # pending when the phase began), so it fires first and commits.
        sim, engine, app = self._platform({})
        sim.start()

        def probe(eng, event):
            eng.schedule(136.0, sim._on_failure, payload=0, kind="failure")

        engine.schedule(120.0, probe, kind="probe")
        engine.run(until=1e9, max_events=100)
        assert sim.finalize() == "completed"
        assert app.commits[:2] == [(36.0, 0.0), (136.0, 97.0)]
        # The rollback loses only the exchange work done since the
        # period began; the compute phase resumes at offset 0.
        assert app.work_lost == pytest.approx(33.0)
        assert engine.now == pytest.approx(300.0 + 4.0 + 34.0)

    def test_until_exactly_on_a_phase_end_fires_it(self):
        sim, engine, app = self._platform({})
        sim.start()
        engine.run(until=36.0)
        assert engine.now == 36.0
        assert engine.executed == 2
        assert app.commits == [(36.0, 0.0)]
        assert sim.phase_idx == 2
        # The next phase end is queued, not walked past the horizon.
        assert self._queued_phase_ends(engine) == [100.0]
        engine.run(until=1e9)
        assert sim.finalize() == "completed"
        assert engine.now == 300.0
        assert engine.executed == 9

    def test_until_between_phase_ends_stops_on_until(self):
        sim, engine, app = self._platform({})
        sim.start()
        engine.run(until=120.0)
        assert engine.now == 120.0
        assert engine.executed == 4  # t = 2, 36, 100, 102
        assert app.commits == [(36.0, 0.0)]
        assert sim.phase_idx == 1

    def test_budget_exhausts_at_the_same_event(self):
        sim, engine, app = self._platform({}, work=1e9)
        sim.start()
        with pytest.raises(SimulationError, match="budget exhausted"):
            engine.run(until=1e9, max_events=5)
        # Phase ends at t = 2, 36, 100, 102, 136 fired; the sixth (t=200)
        # is queued and never runs.
        assert engine.executed == 5
        assert engine.now == 136.0
        assert app.commits == [(36.0, 0.0), (136.0, 97.0)]
        assert self._queued_phase_ends(engine) == [200.0]

    def test_resume_offset_after_a_block(self):
        # Failure at t=50: compute phase, offset 14.  The block (D + R +
        # θ + 14 = 52 s) ends at t=102, re-entering the compute phase at
        # offset 14; its end (t=152) and the next periods walk from there.
        sim, engine, app = self._platform({0: [50.0]})
        sim.start()
        engine.run(until=102.0)
        assert engine.now == 102.0
        assert sim.phase_idx == 2
        assert sim.phase_start == 102.0 - 14.0
        engine.run(until=1e9)
        assert sim.finalize() == "completed"
        assert app.commits == [(36.0, 0.0), (188.0, 97.0), (288.0, 194.0)]
        assert engine.now == 352.0


def _queue_every_phase_end(monkeypatch):
    """Force every walk window empty: each phase end becomes an event,
    as in the machine before phase ends were walked in place."""
    monkeypatch.setattr(Engine, "walk_window",
                        lambda self: (-math.inf, -math.inf, 0))


class TestQueuedPhaseEnds(TestInlinePhaseWalk):
    """The walk cases again with every phase end queued: the expected
    clocks, counts, commits and tie orders above are the per-event
    machine's own."""

    @pytest.fixture(autouse=True)
    def _queued(self, monkeypatch):
        _queue_every_phase_end(monkeypatch)


def _queue_every_failure(monkeypatch):
    """Queue each drawn failure as its own event the moment it is drawn,
    as the machine did before the failure cursor: one pending failure
    per node on the engine heap, in draw order."""

    def schedule_every_draw(self):
        for time, _, node in sorted(self._failures,
                                    key=lambda entry: entry[1]):
            self.engine.schedule(time, self._on_failure, payload=node,
                                 kind="failure")
        self._failures.clear()

    monkeypatch.setattr(PlatformSim, "_arm_failure", schedule_every_draw)


def _observe(monkeypatch):
    """Record each run's ``engine.executed``, the platform state each
    failure finds, how many phase ends were walked in place, and how
    many failure events were queued."""
    seen = {"executed": [], "failures": [], "walked": 0, "queued": 0}
    run, on_failure = Engine.run, PlatformSim._on_failure
    commit_walk = Engine.commit_walk
    schedule, queue = Engine.schedule, Engine.queue

    def recorded_run(self, *args, **kwargs):
        try:
            run(self, *args, **kwargs)
        finally:
            seen["executed"].append(self.executed)

    def recorded_failure(self, engine, event):
        seen["failures"].append((
            engine.now, self.mode, self.phase_idx, self.phase_start,
            self._phase_entry_offset, self.period_start_work,
            self.app.work_done,
        ))
        on_failure(self, engine, event)

    def recorded_commit_walk(self, now, steps):
        seen["walked"] += steps
        commit_walk(self, now, steps)

    def counted(push):
        def pushed(self, *args, **kwargs):
            event = push(self, *args, **kwargs)
            seen["queued"] += event.kind == "failure"
            return event
        return pushed

    monkeypatch.setattr(Engine, "run", recorded_run)
    monkeypatch.setattr(Engine, "commit_walk", recorded_commit_walk)
    monkeypatch.setattr(Engine, "schedule", counted(schedule))
    monkeypatch.setattr(Engine, "queue", counted(queue))
    monkeypatch.setattr(PlatformSim, "_on_failure", recorded_failure)
    return seen


def _differential(monkeypatch, run, reference):
    """``run()`` as shipped, then again after ``reference(monkeypatch)``:
    the same output, ``engine.executed`` per run and platform state at
    every failure.  Returns both observations."""
    seen = _observe(monkeypatch)
    shipped_out = run()
    shipped = dict(seen)
    seen.update(executed=[], failures=[], walked=0, queued=0)
    reference(monkeypatch)
    reference_out = run()
    assert shipped_out == reference_out
    assert shipped["executed"] == seen["executed"]
    assert shipped["failures"] == seen["failures"]
    return shipped, seen


def _preset_run(key, tmp_path):
    """A ``run()`` for :func:`_differential`: the preset's campaign (4
    replicas) into a fresh results file, returning its record lines."""
    spec = CAMPAIGN_PRESETS[key].spec(replicas=4, seed=4242)
    paths = iter([tmp_path / "shipped.jsonl", tmp_path / "reference.jsonl"])

    def run():
        path = next(paths)
        for _ in CampaignSession(spec, results_path=path).events():
            pass
        return path.read_bytes().splitlines()

    return run, 4 * len(plan_cells(spec.config()))


class TestWalkMatchesQueuedMachine:
    """Differential check of the walk: the same runs with the walk and
    with every phase end queued give the same records, the same
    ``engine.executed`` per replica, and the same platform state at
    every failure (the walk writes its locals back where it stops)."""

    def _both(self, monkeypatch, run):
        """``run()`` with the walk, then with every phase end queued."""
        walked, queued = _differential(monkeypatch, run,
                                       _queue_every_phase_end)
        assert walked["walked"] > 0 and queued["walked"] == 0
        return walked

    @pytest.mark.parametrize("key", sorted(CAMPAIGN_PRESETS))
    def test_preset_records(self, key, tmp_path, monkeypatch):
        run, replicas = _preset_run(key, tmp_path)
        seen = self._both(monkeypatch, run)
        # One DES run per replica, all in this process.
        assert len(seen["executed"]) == replicas

    def test_state_at_failures_during_walks_and_blocks(self, monkeypatch):
        # Node 0 fails mid-compute, node 2 inside node 0's recovery
        # block, then both again and node 3 later on, each interrupting
        # a walk of several periods; buddies never overlap.
        schedules = {0: [50.0, 150.0, 420.5], 2: [60.0, 333.3],
                     3: [610.25]}

        def run():
            status, now, app, sim = run_platform(
                DOUBLE_NBL, 10 * 97.0, {k: list(v)
                                        for k, v in schedules.items()})
            return (status, now, sim.engine.executed, app.work_done,
                    app.commits, app.work_lost, sim.phase_idx,
                    sim.phase_start, sim.period_start_work)

        seen = self._both(monkeypatch, run)
        assert len(seen["failures"]) == 6

    def test_state_when_a_commit_raises(self, monkeypatch):
        # The third commit refuses; the walk applying it writes back what
        # the queued machine leaves when its phase-end event raises.
        commit = Application.commit_snapshot

        def refusing_commit(app, now, work_level=None):
            if len(app.commits) == 2:
                raise SimulationError("commit refused")
            commit(app, now, work_level)

        monkeypatch.setattr(Application, "commit_snapshot", refusing_commit)

        def run():
            protocol = BuddySimProtocol(DOUBLE_NBL, PARAMS, PHI, PERIOD)
            engine = Engine()
            app = Application(work_target=10 * 97.0)
            sim = PlatformSim(protocol, ScriptedInjector(4, {0: [50.0]}),
                              app, engine, Cluster(contiguous_groups(4, 2)))
            sim.start()
            with pytest.raises(SimulationError, match="commit refused"):
                engine.run(until=1e9, max_events=100)
            return (engine.now, engine.executed, sim.mode, sim.phase_idx,
                    sim.phase_start, sim._phase_entry_offset,
                    sim.period_start_work, app.work_done, app.commits)

        self._both(monkeypatch, run)



class TestCursorMatchesPerNodeQueue:
    """Differential check of the failure cursor: the same runs with only
    each replica's earliest pending failure queued and with one queued
    failure per node (every draw scheduled as it is made) give the same
    records, the same ``engine.executed`` per replica, and the same
    platform state at every failure: a failure keeps the tie order of
    the FIFO number it reserved when its delay was drawn."""

    @pytest.mark.parametrize("key", sorted(CAMPAIGN_PRESETS))
    def test_preset_records(self, key, tmp_path, monkeypatch):
        run, replicas = _preset_run(key, tmp_path)
        cursor, per_node = _differential(monkeypatch, run,
                                         _queue_every_failure)
        assert len(cursor["executed"]) == replicas
        # Each replica's drawn-but-unfired failures never reached the
        # heap (every preset has nodes with failures left at the end).
        assert cursor["queued"] < per_node["queued"]

    def test_failure_keeps_its_draw_order_in_a_tie(self, monkeypatch):
        """Node 0's failure, drawn at t=0, lands on the instant node 1's
        risk window (opened at t=10, 38 s) ends, but is queued only after
        node 2's failure at t=12.  Its number was reserved at the draw,
        before the risk end was scheduled, so it fires first: node 0
        fails inside its buddy's window, which is fatal."""

        outcomes = []

        def run():
            status, now, app, sim = run_platform(
                DOUBLE_NBL, 10 * 97.0,
                {0: [10.0 + 38.0], 1: [10.0], 2: [12.0]})
            outcomes.append((status, now, sim.fatal_group))
            return outcomes[-1], sim.engine.executed

        _differential(monkeypatch, run, _queue_every_failure)
        assert outcomes[0] == ("fatal", 48.0, (0, 1))

    def test_one_failure_queued_per_replica(self):
        engine = Engine()
        sim = PlatformSim(
            BuddySimProtocol(DOUBLE_NBL, PARAMS, PHI, PERIOD),
            ScriptedInjector(4, {0: [300.0], 1: [250.0], 2: [400.0],
                                 3: [120.0]}),
            Application(work_target=3 * 97.0), engine,
            Cluster(contiguous_groups(4, 2)))
        sim.start()
        assert sorted((event.kind, event.time)
                      for _, _, event in engine._queue) \
            == [("failure", 120.0), ("phase-end", 2.0)]
        assert sorted(sim._failures) == sorted(
            (time, seq, node) for seq, (node, time) in enumerate(
                [(0, 300.0), (1, 250.0), (2, 400.0), (3, 120.0)]))

    def test_failure_fired_from_outside_the_cursor(self, monkeypatch):
        """A failure fired from outside the cursor draws its node's next
        failure (here before the cursor's queued head) as an event of its
        own, and the queued head keeps its place."""

        class DelayInjector:
            n_nodes = 4

            def __init__(self):
                self._delays = {0: [1000.0, 30.0], 2: [400.0]}

            def next_failure_delay(self, node):
                delays = self._delays.get(node)
                return delays.pop(0) if delays else NEVER

        def run():
            protocol = BuddySimProtocol(DOUBLE_NBL, PARAMS, PHI, PERIOD)
            engine = Engine()
            app = Application(work_target=10 * 97.0)
            sim = PlatformSim(protocol, DelayInjector(), app, engine,
                              Cluster(contiguous_groups(4, 2)))
            sim.start()
            engine.schedule(120.0, sim._on_failure, payload=0,
                            kind="failure")
            engine.run(until=1e9, max_events=1000)
            return (sim.finalize(), engine.now, engine.executed,
                    app.commits, app.work_lost, sim.failures_seen)

        cursor, _ = _differential(monkeypatch, run, _queue_every_failure)
        # Node 0 at 120 (from outside) and 150 (its own next draw), then
        # the cursor's node 2 at 400 and node 0 at 1000.
        assert [state[0] for state in cursor["failures"]] \
            == [120.0, 150.0, 400.0, 1000.0]


@contextmanager
def _collector_paused():
    """Start from a clean collection with the collector off; always turn
    it back on."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestReplicasLeaveNoCycle:
    """A finished replica holds no reference cycle: the platform drops
    its event handles in ``finalize`` and ``run_des`` clears the engine,
    so everything a run built is freed by refcount, and the collector
    finds nothing to free."""

    @pytest.mark.parametrize("schedules, until, status", [
        ({}, 1e9, "completed"),
        ({0: [200.0]}, 150.0, "timeout"),   # phase end and failure queued
        ({0: [50.0]}, 80.0, "timeout"),     # inside the recovery block
        ({0: [10.0], 1: [20.0]}, 1e9, "fatal"),
    ])
    def test_finalized_platform_is_freed_by_refcount(self, schedules, until,
                                                     status):
        with _collector_paused():
            got, _, app, sim = run_platform(DOUBLE_NBL, 3 * 97.0, schedules,
                                            until=until)
            assert got == status
            assert sim._pending is sim._block_event is None
            assert sim._failure_event is None
            sim.engine.clear()  # what run_des, the engine's owner, does
            alive = weakref.ref(sim)
            del sim, app
            assert alive() is None

    def test_preset_cells_leave_no_cyclic_garbage(self):
        """The first cells of every preset, with a shared trace cache,
        with each replica's own streams, and with a horizon that cuts
        every run short: completed, fatal and timed-out replicas."""
        runs = {}
        for key in sorted(CAMPAIGN_PRESETS):
            spec = CAMPAIGN_PRESETS[key].spec(replicas=4, seed=4242)
            config = spec.config()
            runs[key] = (spec.controller(), [
                replace(config, share_traces=True),
                replace(config, share_traces=False),
                replace(config, max_time=500.0)])

        def run(controller, configs):
            statuses = Counter()
            for config in configs:
                trace_cache: dict = {}
                for plan in plan_cells(config)[:4]:
                    block = run_cell(config, plan, controller, trace_cache)
                    statuses.update(row.status for row in block)
            return statuses

        for args in runs.values():  # imports and module caches first
            run(*args)
        statuses, unreachable = Counter(), {}
        for key, args in runs.items():
            with _collector_paused():
                statuses += run(*args)
                unreachable[key] = gc.collect()
        assert unreachable == dict.fromkeys(runs, 0)
        assert set(statuses) == {"completed", "fatal", "timeout"}
