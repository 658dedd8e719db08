"""The event wire format: one schema for NDJSON streams and replay.

Contract under test (mirrors the spec/envelope serialisation
discipline): ``event_to_dict`` emits a versioned, strictly-JSON-safe
dict for every event kind; ``event_from_dict`` is its exact inverse
(``event_to_dict(event_from_dict(d)) == d`` — property-tested through
real JSON text, non-finite floats included); unknown kinds, versions
and fields are refused by name; and a ``CellFinished`` cell is
*recomputed* from its plan and replicas, so the wire can never carry an
aggregate that disagrees with its inputs.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import io as repro_io
from repro.errors import ParameterError
from repro.sim.events import (
    EVENT_SOURCES,
    EVENT_WIRE_FORMAT,
    EVENT_WIRE_VERSION,
    CampaignFinished,
    CampaignStarted,
    CellFinished,
    event_from_dict,
    event_to_dict,
    make_cell,
)
from repro.sim.executor import CellPlan, ExecutionReport
from repro.sim.results import DesResult
from repro.sim.spec import Campaign
from repro.experiments.scenarios import get_campaign_preset

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e12, max_value=1e12)
any_float = st.one_of(finite, st.just(float("nan")),
                      st.just(float("inf")), st.just(float("-inf")))

plans = st.builds(
    CellPlan,
    index=st.integers(min_value=0, max_value=10_000),
    protocol=st.sampled_from(["double-nbl", "triple", "double-blocking"]),
    m_index=st.integers(min_value=0, max_value=50),
    M=st.floats(min_value=1.0, max_value=1e9, allow_nan=False),
    phi=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    effective_phi=st.floats(min_value=0.0, max_value=100.0,
                            allow_nan=False),
)


@st.composite
def des_results(draw):
    status = draw(st.sampled_from(["completed", "fatal", "timeout"]))
    return DesResult(
        status=status,
        makespan=draw(st.floats(min_value=0.0, max_value=1e9,
                                allow_nan=False)),
        work_target=draw(st.floats(min_value=1.0, max_value=1e9,
                                   allow_nan=False)),
        work_done=draw(st.floats(min_value=0.0, max_value=1e9,
                                 allow_nan=False)),
        failures=draw(st.integers(min_value=0, max_value=1000)),
        rollbacks=draw(st.integers(min_value=0, max_value=1000)),
        work_lost=draw(st.floats(min_value=0.0, max_value=1e9,
                                 allow_nan=False)),
        commits=draw(st.integers(min_value=0, max_value=10_000)),
        risk_time=draw(st.floats(min_value=0.0, max_value=1e9,
                                 allow_nan=False)),
        fatal_time=draw(any_float),
        fatal_group=tuple(draw(st.lists(
            st.integers(min_value=0, max_value=64), max_size=4))),
        meta=draw(st.dictionaries(
            st.text(max_size=12),
            st.one_of(st.text(max_size=12), any_float,
                      st.integers(min_value=-2**53, max_value=2**53),
                      st.booleans(), st.none()),
            max_size=6)),
    )


result_batches = st.lists(des_results(), min_size=1, max_size=4)
sources = st.sampled_from(EVENT_SOURCES)

reports = st.builds(
    ExecutionReport,
    cells_total=st.integers(min_value=0, max_value=10_000),
    cells_skipped=st.integers(min_value=0, max_value=10_000),
    cells_run=st.integers(min_value=0, max_value=10_000),
    workers=st.integers(min_value=1, max_value=64),
    chunk_size=st.integers(min_value=1, max_value=64),
    elapsed=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    replicas_run=st.integers(min_value=0, max_value=100_000),
    sink=st.sampled_from(["ordered", "framed"]),
    cells_cached=st.integers(min_value=0, max_value=10_000),
)


def wire_round_trip(event):
    """Through real JSON text, exactly as the NDJSON stream carries it."""
    wire = event_to_dict(event)
    text = json.dumps(wire, sort_keys=True, allow_nan=False)
    back = event_from_dict(json.loads(text))
    assert type(back) is type(event)
    # Wire-dict equality is the exact-round-trip claim (NaN is encoded
    # as a typed sentinel, so dict equality is well defined).
    assert event_to_dict(back) == wire
    return back


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(plan=plans, results=result_batches, source=sources)
    def test_cell_finished_recomputes_the_cell(self, plan, results, source):
        results = tuple(results)
        event = CellFinished(plan=plan, cell=make_cell(plan, results),
                             results=results, source=source)
        wire = event_to_dict(event)
        assert "cell" not in wire  # derivable state never transmitted
        back = wire_round_trip(event)
        assert back.plan == plan
        assert back.source == source
        assert [repro_io.dump_result(r) for r in back.results] == \
            [repro_io.dump_result(r) for r in results]
        assert back.cell.protocol == plan.protocol
        assert back.cell.summary.n_replicas == len(results)
        mean = back.cell.summary.mean
        expected = event.cell.summary.mean
        assert mean == expected or (
            math.isnan(mean) and math.isnan(expected)
        )

    @settings(max_examples=60, deadline=None)
    @given(report=reports)
    def test_finished(self, report):
        assert wire_round_trip(CampaignFinished(report=report)).report \
            == report

    def test_campaign_started_carries_the_spec(self):
        spec = get_campaign_preset("smoke").spec()
        from repro.sim.executor import plan_cells

        event = CampaignStarted(
            spec=spec, plans=tuple(plan_cells(spec.config())),
            resumed=(0, 2),
        )
        back = wire_round_trip(event)
        assert back.spec == spec
        assert back.plans == event.plans
        assert back.resumed == (0, 2)

    def test_live_stream_round_trips(self, tmp_path):
        """Every event of a real campaign survives the wire."""
        spec = get_campaign_preset("smoke").spec()
        session = Campaign(spec).session(tmp_path / "r.jsonl")
        kinds = [type(wire_round_trip(ev)).__name__
                 for ev in session.events()]
        cells = len(session.result().cells)
        assert kinds == ["CampaignStarted"] + ["CellFinished"] * cells \
            + ["CampaignFinished"]


# ----------------------------------------------------------------------
# Record lines: volatile, never on the wire
# ----------------------------------------------------------------------
finite_results = st.builds(
    DesResult,
    status=st.just("completed"),
    makespan=st.floats(min_value=900.0, max_value=1e7),
    work_target=st.just(900.0),
    work_done=st.just(900.0),
    failures=st.integers(min_value=0, max_value=1000),
    rollbacks=st.integers(min_value=0, max_value=1000),
    work_lost=st.floats(min_value=0.0, max_value=1e6),
    commits=st.integers(min_value=0, max_value=10_000),
    risk_time=st.floats(min_value=0.0, max_value=1e6),
    fatal_time=st.floats(min_value=0.0, max_value=1e6),
    meta=st.dictionaries(st.text(max_size=12),
                         st.one_of(st.text(max_size=12),
                                   st.integers(min_value=-2**53,
                                               max_value=2**53)),
                         max_size=4),
)


class TestRecords:
    @settings(max_examples=60, deadline=None)
    @given(plan=plans, results=st.lists(finite_results, min_size=1,
                                        max_size=4),
           source=sources)
    def test_decoded_event_equals_live_and_reencodes_its_records(
            self, plan, results, source):
        results = tuple(results)
        live = CellFinished(plan=plan, cell=make_cell(plan, results),
                            results=results, source=source)
        texts = tuple(repro_io.dump_result(r) for r in results)
        supplied = CellFinished(plan=plan, cell=live.cell,
                                results=results, source=source,
                                records=texts)
        assert live.records == texts
        assert supplied == live  # records are excluded from equality
        assert repr(supplied) == repr(live)
        wire = event_to_dict(supplied)
        assert wire == event_to_dict(live)
        assert "records" not in wire
        back = wire_round_trip(supplied)
        assert back == live
        assert back.records == live.records

    def test_live_records_never_ride_the_wire(self, tmp_path):
        """A warm campaign's cells carry the store's verified lines —
        the cold file's lines — outside their wire dicts, and a decoded
        event re-encodes exactly those lines."""
        spec = get_campaign_preset("smoke").spec()
        store = tmp_path / "store"
        cold = tmp_path / "cold.jsonl"
        Campaign(spec).run(cold, store=store)
        lines = cold.read_text().splitlines()
        session = Campaign(spec).session(tmp_path / "warm.jsonl",
                                         store=store)
        records = []
        for event in session.events():
            if not isinstance(event, CellFinished):
                continue
            assert event.source == "store"
            assert set(event_to_dict(event)) == {
                "format", "version", "kind", "plan", "source", "results"}
            back = wire_round_trip(event)
            assert back.records == event.records
            records.extend(event.records)
        assert records == lines


# ----------------------------------------------------------------------
# Refused by name
# ----------------------------------------------------------------------
class TestValidation:
    def good(self):
        plan = CellPlan(index=0, protocol="triple", m_index=0, M=600.0,
                        phi=1.0, effective_phi=1.0)
        results = (DesResult(
            status="completed", makespan=1200.0, work_target=900.0,
            work_done=900.0, failures=1, rollbacks=1, work_lost=60.0,
            commits=4, risk_time=2.0),)
        return event_to_dict(CellFinished(
            plan=plan, cell=make_cell(plan, results), results=results))

    def test_header_is_stamped(self):
        wire = self.good()
        assert wire["format"] == EVENT_WIRE_FORMAT
        assert wire["version"] == EVENT_WIRE_VERSION

    def test_rejects_non_dict(self):
        with pytest.raises(ParameterError, match="must be an object"):
            event_from_dict(["CellFinished"])

    def test_rejects_foreign_format(self):
        with pytest.raises(ParameterError, match="format"):
            event_from_dict({**self.good(), "format": "something-else"})

    def test_rejects_future_version(self):
        with pytest.raises(ParameterError, match="version 99"):
            event_from_dict({**self.good(), "version": 99})

    def test_rejects_unknown_kind(self):
        with pytest.raises(ParameterError, match="unknown campaign-event"):
            event_from_dict({**self.good(), "kind": "CellExploded"})

    @pytest.mark.parametrize("kind", ["CellStarted", "ReplicaBatch",
                                      "CampaignProgress"])
    def test_rejects_retired_kinds_by_name(self, kind):
        """The stream carries each cell once: the retired per-cell
        start/batch events and the progress snapshot are not wire
        kinds, and a stream holding one is refused naming it."""
        with pytest.raises(ParameterError,
                           match=f"unknown campaign-event kind '{kind}'"):
            event_from_dict({"format": EVENT_WIRE_FORMAT,
                             "version": EVENT_WIRE_VERSION,
                             "kind": kind})

    def test_rejects_unknown_field(self):
        with pytest.raises(ParameterError, match="surprise"):
            event_from_dict({**self.good(), "surprise": 1})

    def test_rejects_unknown_source(self):
        with pytest.raises(ParameterError, match="unknown event source"):
            event_from_dict({**self.good(), "source": "telepathy"})

    def test_rejects_missing_plan_field(self):
        wire = self.good()
        del wire["plan"]["M"]
        with pytest.raises(ParameterError, match="missing"):
            event_from_dict(wire)

    def test_rejects_summary_results(self):
        """A summary envelope is a valid repro.io record but not a
        replica result; the wire refuses it by type."""
        from repro.sim.results import MonteCarloSummary

        summary = MonteCarloSummary.from_samples([0.25, 0.5])
        plan = CellPlan(index=0, protocol="triple", m_index=0, M=600.0,
                        phi=1.0, effective_phi=1.0)
        wire = {
            "format": EVENT_WIRE_FORMAT, "version": EVENT_WIRE_VERSION,
            "kind": "CellFinished",
            "plan": dataclasses.asdict(plan), "source": "backend",
            "results": [repro_io.to_envelope(summary)],
        }
        with pytest.raises(ParameterError, match="DesResult"):
            event_from_dict(wire)

    def test_rejects_unserialisable_event(self):
        class Mystery:
            pass

        with pytest.raises(ParameterError, match="cannot serialise"):
            event_to_dict(Mystery())
