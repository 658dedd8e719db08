"""Event pipeline equivalence: the refactor's hard constraint.

The executor was refactored around a typed result-event pipeline
(:mod:`repro.sim.events`): backends produce events, and the JSONL sink,
store publisher, controller replay and progress tracker are independent
consumers on one bus.  The goldens under ``tests/golden/`` freeze the
*pre-refactor* engine's output bytes (commit 4d0e591) and, for a
non-exponential law, the eagerly drawn shared traces' bytes (commit
b0732b9; see ``tests/golden/_generate.py``); these tests prove the
event-driven engine reproduces them exactly — ordered and framed
sinks, fixed and adaptive control, resume from arbitrary truncation,
and distributed shard merge — and pin down the bus contract every
consumer relies on (ordering, single-shot streams, error propagation,
close-exactly-once).
"""

from __future__ import annotations

import dataclasses
import pathlib

import pytest

from repro import DOUBLE_NBL, TRIPLE, scenarios
from repro.errors import ParameterError
from repro.sim.adaptive import FixedReplicas
from repro.sim.backends import CampaignBackend, SerialBackend
from repro.sim.campaign import CampaignConfig
from repro.sim.events import (
    CampaignFinished,
    CampaignStarted,
    CellFinished,
    ControllerReplay,
    EventBus,
    EventConsumer,
    ProgressTracker,
    SinkWriter,
    StorePublisher,
)
from repro.sim.executor import CampaignSession, execute_spec
from repro.sim.sinks import make_sink
from repro.sim.spec import Campaign, CampaignSpec, ExecutionPolicy

GOLDEN = pathlib.Path(__file__).parent / "golden"
#: Every frozen output: (grid, sink kind, control kind).
GOLDEN_NAMES = ("ordered_fixed", "framed_fixed", "framed_adaptive",
                "ordered_hetero", "framed_wilson")


def golden(name: str):
    """One golden: (spec, frozen jsonl bytes, frozen manifest bytes)."""
    spec = CampaignSpec.load(GOLDEN / f"{name}.spec.json")
    data = (GOLDEN / f"{name}.jsonl").read_bytes()
    manifest = (GOLDEN / f"{name}.manifest").read_bytes()
    return spec, data, manifest


class Recorder(EventConsumer):
    """A user consumer that keeps the raw stream (and its close calls)."""

    def __init__(self):
        self.events = []
        self.closed = []

    def on_event(self, event):
        self.events.append(event)

    def close(self, error=None):
        self.closed.append(error)


class TestGoldenByteIdentity:
    """Bus-driven execution is byte-identical to the pre-refactor path."""

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_run_reproduces_frozen_bytes(self, name, tmp_path):
        spec, data, manifest = golden(name)
        out = tmp_path / "results.jsonl"
        Campaign(spec).run(out)
        assert out.read_bytes() == data
        assert out.with_name(out.name + ".manifest").read_bytes() \
            == manifest

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_resume_from_arbitrary_truncation(self, name, tmp_path):
        """Cut the frozen file at *any* byte offset — mid-record, on a
        record boundary, empty, or complete — and resume must rebuild
        the exact frozen bytes."""
        spec, data, manifest = golden(name)
        step = max(1, len(data) // 6)
        offsets = sorted({*range(0, len(data), step), len(data) - 1,
                          len(data)})
        for offset in offsets:
            out = tmp_path / f"cut{offset}.jsonl"
            out.write_bytes(data[:offset])
            out.with_name(out.name + ".manifest").write_bytes(manifest)
            execution = Campaign(spec).resume(out)
            assert out.read_bytes() == data, f"diverged at cut {offset}"
            report = execution.report
            assert report.cells_total \
                == report.cells_skipped + report.cells_run

    def test_distributed_merge_reproduces_frozen_bytes(self, tmp_path):
        """A queue worker + merge_shards lands on the same bytes a
        single-machine framed campaign froze before the refactor."""
        spec, data, manifest = golden("framed_fixed")
        qspec = dataclasses.replace(
            spec,
            policy=dataclasses.replace(
                spec.policy, queue=str(tmp_path / "queue"),
                worker_id="w0",
            ),
        )
        campaign = Campaign(qspec)
        campaign.run()
        out = tmp_path / "merged.jsonl"
        campaign.merge(out)
        assert out.read_bytes() == data
        assert out.with_name(out.name + ".manifest").read_bytes() \
            == manifest


class TestEventStream:
    """The grammar, the source tags, and replay-to-state equivalence."""

    @pytest.mark.parametrize("state", ["cold", "warm", "resume"])
    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_grammar_and_fanout_order(self, name, state, tmp_path):
        """``CampaignStarted CellFinished* CampaignFinished`` with one
        CellFinished per grid cell, whatever the cells' source: a cold
        run, a fully-warm store, or a resume of a truncated file."""
        spec, data, manifest = golden(name)
        out = tmp_path / "r.jsonl"
        store = None
        if state == "warm":
            store = str(tmp_path / "store")
            Campaign(spec).session(tmp_path / "cold.jsonl",
                                   store=store).run()
        elif state == "resume":
            out.write_bytes(data[:len(data) // 2])
            out.with_name(out.name + ".manifest").write_bytes(manifest)
        recorder = Recorder()
        session = Campaign(spec).session(
            out, resume=state == "resume", store=store,
            consumers=[recorder],
        )
        yielded = list(session.events())
        # Consumers see exactly the yielded stream, in the same order.
        assert recorder.events == yielded
        assert recorder.closed == [None]
        cells = yielded[0].cells_total
        assert [type(e) for e in yielded] == \
            [CampaignStarted] + [CellFinished] * cells + [CampaignFinished]
        assert sorted(e.plan.index for e in yielded[1:-1]) \
            == list(range(cells))
        expected = {"cold": {"backend"}, "warm": {"store"},
                    "resume": {"resume", "backend"}}[state]
        assert {e.source for e in yielded[1:-1]} == expected
        assert yielded[-1].report is session.result().report
        assert out.read_bytes() == data

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_replay_reconstructs_file_bytes(self, name, tmp_path):
        """An independent consumer holding only the events can rebuild
        the results file byte-for-byte (the consistent-observer
        property, proven against the frozen bytes)."""
        spec, data, _ = golden(name)
        recorder = Recorder()
        session = Campaign(spec).session(
            tmp_path / "live.jsonl", consumers=[recorder]
        )
        session.run()
        rebuilt = tmp_path / "rebuilt.jsonl"
        sink = make_sink(spec.policy.sink, rebuilt)
        sink.begin()
        for event in recorder.events:
            if isinstance(event, CellFinished) \
                    and event.source != "resume":
                sink.emit(event.plan, event.records)
        assert rebuilt.read_bytes() == data
        assert (tmp_path / "live.jsonl").read_bytes() == data

    def test_resume_cells_are_tagged_resume(self, tmp_path):
        spec, data, manifest = golden("framed_fixed")
        out = tmp_path / "r.jsonl"
        out.write_bytes(data[:len(data) // 2])
        out.with_name(out.name + ".manifest").write_bytes(manifest)
        recorder = Recorder()
        session = Campaign(spec).session(
            out, resume=True, consumers=[recorder]
        )
        session.run()
        started = recorder.events[0]
        assert started.resumed  # the half-file recovered something
        finished = [e for e in recorder.events
                    if isinstance(e, CellFinished)]
        by_source = {e.plan.index for e in finished
                     if e.source == "resume"}
        assert by_source == set(started.resumed)
        assert {e.source for e in finished} == {"resume", "backend"}
        # Recovered triples replay first, in grid order.
        head = [e.plan.index for e in finished[:len(by_source)]]
        assert head == sorted(by_source)
        assert out.read_bytes() == data
        report = session.result().report
        assert report.cells_skipped == len(by_source)

    def test_three_consumers_one_stream(self, tmp_path):
        """The acceptance shape: sink writer, store publisher and
        progress tracker (plus replay validation and a user consumer)
        all run off one stream, and each lands in its own medium."""
        spec, data, _ = golden("framed_fixed")
        recorder = Recorder()
        session = Campaign(spec).session(
            tmp_path / "r.jsonl", store=str(tmp_path / "store"),
            consumers=[recorder],
        )
        kinds = [type(c) for c in session.bus.consumers]
        assert kinds[:4] == [ControllerReplay, SinkWriter,
                             StorePublisher, ProgressTracker]
        execution = session.run()
        cells = len(execution.cells)
        publisher = next(c for c in session.bus.consumers
                         if isinstance(c, StorePublisher))
        replay = next(c for c in session.bus.consumers
                      if isinstance(c, ControllerReplay))
        # sink consumer: the frozen bytes
        assert (tmp_path / "r.jsonl").read_bytes() == data
        # store consumer: every fresh cell warehoused
        assert publisher.published == cells
        # replay consumer: every cell validated against the rule
        assert replay.validated == cells
        # metrics consumer: the report is its totals
        progress = session.progress()
        assert execution.report.cells_run == progress.cells_run == cells
        assert execution.report.replicas_run == progress.replicas_run
        # user consumer: saw every cell
        assert len([e for e in recorder.events
                    if isinstance(e, CellFinished)]) == cells

    def test_warm_store_replay_is_source_store(self, tmp_path):
        """A fully-warm run streams every cell as ``source="store"``,
        publishes nothing, and still writes byte-identical results."""
        spec, data, _ = golden("framed_fixed")
        store = str(tmp_path / "store")
        Campaign(spec).session(tmp_path / "cold.jsonl",
                               store=store).run()
        recorder = Recorder()
        warm = Campaign(spec).session(
            tmp_path / "warm.jsonl", store=store, consumers=[recorder]
        )
        execution = warm.run()
        finished = [e for e in recorder.events
                    if isinstance(e, CellFinished)]
        assert {e.source for e in finished} == {"store"}
        publisher = next(c for c in warm.bus.consumers
                         if isinstance(c, StorePublisher))
        assert publisher.published == 0
        assert (tmp_path / "warm.jsonl").read_bytes() == data
        assert execution.report.cells_cached \
            == execution.report.cells_total
        assert execution.report.replicas_run == 0

    def test_progress_pollable_mid_stream(self, tmp_path):
        spec, _, _ = golden("framed_fixed")
        session = Campaign(spec).session(tmp_path / "r.jsonl")
        assert session.progress().cells_done == 0
        seen = 0
        for event in session.events():
            if isinstance(event, CellFinished):
                seen += 1
                polled = session.progress()
                assert polled.cells_done == seen
                assert polled.cells_total == session.progress().cells_total
        assert session.progress().cells_done \
            == session.result().report.cells_total

    def test_cache_stats_surface(self, tmp_path):
        spec, _, _ = golden("framed_fixed")
        bare = Campaign(spec).session(tmp_path / "a.jsonl")
        assert bare.cache_stats() is None
        bare.run()
        stored = Campaign(spec).session(
            tmp_path / "b.jsonl", store=str(tmp_path / "store")
        )
        stored.run()
        stats = stored.cache_stats()
        assert stats is not None
        assert stats.max_bytes > 0


class TestBusContract:
    """Ordering, single-shot streams, error propagation, close-once."""

    def test_consumer_error_aborts_campaign(self, tmp_path):
        spec, _, _ = golden("framed_fixed")

        class Boom(EventConsumer):
            def __init__(self):
                self.closed = []

            def on_event(self, event):
                if isinstance(event, CellFinished):
                    raise RuntimeError("boom")

            def close(self, error=None):
                self.closed.append(error)

        boom = Boom()
        session = Campaign(spec).session(
            tmp_path / "r.jsonl", consumers=[boom]
        )
        with pytest.raises(RuntimeError, match="boom"):
            session.run()
        # closed exactly once, with the terminating error
        assert len(boom.closed) == 1
        assert isinstance(boom.closed[0], RuntimeError)
        # no result, and the stream cannot be re-consumed
        with pytest.raises(ParameterError, match="not finished"):
            session.result()
        with pytest.raises(ParameterError, match="consumed once"):
            next(session.events())

    def test_stream_is_single_shot(self, tmp_path):
        spec, _, _ = golden("framed_fixed")
        session = Campaign(spec).session(tmp_path / "r.jsonl")
        session.run()
        with pytest.raises(ParameterError, match="consumed once"):
            next(session.events())
        # but result() keeps answering
        assert session.result() is session.result()

    def test_subscribe_after_first_publish_refused(self, tmp_path):
        spec, _, _ = golden("framed_fixed")
        session = Campaign(spec).session(tmp_path / "r.jsonl")
        stream = session.events()
        next(stream)
        with pytest.raises(ParameterError, match="late consumer"):
            session.subscribe(Recorder())
        stream.close()

    def test_subscribe_type_checked(self):
        with pytest.raises(ParameterError, match="EventConsumer"):
            EventBus().subscribe(object())

    def test_close_runs_every_consumer_once(self):
        class FailingClose(Recorder):
            def close(self, error=None):
                super().close(error)
                raise RuntimeError("close failed")

        failing, tail = FailingClose(), Recorder()
        bus = EventBus()
        bus.subscribe(failing)
        bus.subscribe(tail)
        # Clean termination: the close failure surfaces...
        with pytest.raises(RuntimeError, match="close failed"):
            bus.close(None)
        # ...but every later consumer was still closed, exactly once,
        # and a second close is a no-op.
        assert failing.closed == [None] and tail.closed == [None]
        bus.close(None)
        assert failing.closed == [None] and tail.closed == [None]

    def test_close_failure_never_masks_stream_error(self):
        class FailingClose(Recorder):
            def close(self, error=None):
                super().close(error)
                raise RuntimeError("close failed")

        bus = EventBus()
        failing = bus.subscribe(FailingClose())
        error = ValueError("the stream's real failure")
        bus.close(error)  # must not raise: the caller propagates error
        assert failing.closed == [error]

    def test_controller_replay_rejects_inconsistent_stream(
        self, tmp_path
    ):
        """A CellFinished whose replica count disagrees with the
        stopping rule aborts the campaign by name."""
        spec, _, _ = golden("framed_fixed")
        recorder = Recorder()
        Campaign(spec).session(
            tmp_path / "r.jsonl", consumers=[recorder]
        ).run()
        event = next(e for e in recorder.events
                     if isinstance(e, CellFinished))
        truncated = dataclasses.replace(
            event, results=event.results[:1]
        )
        replay = ControllerReplay(FixedReplicas(len(event.results)))
        with pytest.raises(ParameterError, match="does not replay"):
            replay.on_event(truncated)
        assert replay.validated == 0


# ----------------------------------------------------------------------
# Emission order, pinned cell for cell
# ----------------------------------------------------------------------
def half_warm_spec(m_values=(600.0, 1200.0), policy=None) -> CampaignSpec:
    """Four cells (2 protocols × 2 M, no shared traces, so a cell's
    store key does not depend on its grid position): warming the store
    with ``m_values=(300.0, 600.0)`` covers cells 0 and 2 of the
    default grid."""
    return CampaignSpec(
        grid=CampaignConfig(
            protocols=(DOUBLE_NBL, TRIPLE),
            base_params=scenarios.BASE.parameters(M=600.0, n=12),
            m_values=m_values, phi_values=(1.0,), work_target=900.0,
            replicas=2, seed=2027, share_traces=False,
        ),
        policy=policy or ExecutionPolicy(),
    )


class ReversedBackend(CampaignBackend):
    """Completes chunks in reverse submission order."""

    def execute(self, config, chunks, controller):
        inner = SerialBackend()
        yield from reversed(list(inner.execute(config, chunks, controller)))


def cell_sequence(tmp_path, sink, backend, state):
    """``[(plan.index, source)]`` of every ``CellFinished`` of one run.

    ``state`` is the store/results-file situation the run starts from:
    ``cold`` (no store), ``half-warm`` (store holds cells 0 and 2),
    ``resume-warm`` (a store-backed cold run's file cut in half, resumed
    over that now fully-warm store) and ``resume-half-warm`` (a storeless
    run's file cut in half, resumed over the half-warm store).
    """
    policy = ExecutionPolicy(sink=sink)
    if backend == "reversed":
        policy = dataclasses.replace(policy, chunk_size=1)
    spec = half_warm_spec(policy=policy)
    store = tmp_path / "store"
    out = tmp_path / "results.jsonl"

    def session(**kwargs):
        return CampaignSession(
            spec, results_path=out,
            backend=ReversedBackend() if backend == "reversed" else None,
            **kwargs)

    if state in ("half-warm", "resume-half-warm"):
        execute_spec(half_warm_spec(m_values=(300.0, 600.0)), store=store)
    if state.startswith("resume"):
        session(store=store if state == "resume-warm" else None).run()
        data = out.read_bytes()
        out.write_bytes(data[:len(data) // 2])
    recorder = Recorder()
    session(
        store=None if state == "cold" else store,
        resume=state.startswith("resume"), consumers=[recorder],
    ).run()
    return [(e.plan.index, e.source) for e in recorder.events
            if isinstance(e, CellFinished)]


#: Recorded on the pre-refactor session (separate ordered/framed
#: emission branches); any producer rewrite must reproduce it exactly.
EMISSION_ORDER = {
    ('framed', 'reversed', 'cold'):
        [(3, 'backend'), (2, 'backend'), (1, 'backend'), (0, 'backend')],
    ('framed', 'reversed', 'half-warm'):
        [(0, 'store'), (2, 'store'), (3, 'backend'), (1, 'backend')],
    ('framed', 'reversed', 'resume-half-warm'):
        [(2, 'resume'), (3, 'resume'), (0, 'store'), (1, 'backend')],
    ('framed', 'reversed', 'resume-warm'):
        [(2, 'resume'), (3, 'resume'), (0, 'store'), (1, 'store')],
    ('framed', 'serial', 'cold'):
        [(0, 'backend'), (1, 'backend'), (2, 'backend'), (3, 'backend')],
    ('framed', 'serial', 'half-warm'):
        [(0, 'store'), (2, 'store'), (1, 'backend'), (3, 'backend')],
    ('framed', 'serial', 'resume-half-warm'):
        [(0, 'resume'), (2, 'store'), (1, 'backend'), (3, 'backend')],
    ('framed', 'serial', 'resume-warm'):
        [(0, 'resume'), (1, 'store'), (2, 'store'), (3, 'store')],
    ('ordered', 'reversed', 'cold'):
        [(0, 'backend'), (1, 'backend'), (2, 'backend'), (3, 'backend')],
    ('ordered', 'reversed', 'half-warm'):
        [(0, 'store'), (1, 'backend'), (2, 'store'), (3, 'backend')],
    ('ordered', 'reversed', 'resume-half-warm'):
        [(0, 'resume'), (1, 'backend'), (2, 'store'), (3, 'backend')],
    ('ordered', 'reversed', 'resume-warm'):
        [(0, 'resume'), (1, 'store'), (2, 'store'), (3, 'store')],
    ('ordered', 'serial', 'cold'):
        [(0, 'backend'), (1, 'backend'), (2, 'backend'), (3, 'backend')],
    ('ordered', 'serial', 'half-warm'):
        [(0, 'store'), (1, 'backend'), (2, 'store'), (3, 'backend')],
    ('ordered', 'serial', 'resume-half-warm'):
        [(0, 'resume'), (1, 'backend'), (2, 'store'), (3, 'backend')],
    ('ordered', 'serial', 'resume-warm'):
        [(0, 'resume'), (1, 'store'), (2, 'store'), (3, 'store')],
}


class TestEmissionOrder:
    """Resume cells, store hits and backend cells arrive in a fixed
    order: grid order under the ordered sink (completion-order chunks
    buffered), store hits before completion-order backend cells under
    the framed one."""

    @pytest.mark.parametrize("sink, backend, state", sorted(EMISSION_ORDER))
    def test_cell_sequence(self, sink, backend, state, tmp_path):
        assert cell_sequence(tmp_path, sink, backend, state) \
            == EMISSION_ORDER[sink, backend, state]
